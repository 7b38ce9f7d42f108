"""Critical pairs and critical cylinders by string-overlap analysis.

A critical pair is a minimal genuine overlap of two coinitial steps, one of
them equational.  A critical cylinder pairs a step with a relation instance
whose active areas properly interfere: for a named base the step's core and
the base's source window must overlap with neither containing the other,
for an exchange base the core must touch both exchanged factors (anything
less is completable by pure exchange, the trivially-true shape).

Every overlap is found by placing a generator's source against a window at
each offset where the two agree on their shared letters (``_placements``);
``_side_heads`` lists once per base the steps that start its own sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import oracle
from .core import (
    CellTrace,
    Move,
    Path,
    Presentation,
    RelationInstance,
    RewriteStep,
    Word,
    check_trace,
    instance_sides,
    position,
)
from .objects import words_upto
from .residuation import (
    ResidualTable,
    ResiduationError,
    Residuator,
    exchange_instance,
    retype_step,
    steps_disjoint,
    tile_key,
)


@dataclass(frozen=True)
class CriticalPair:
    word: Word
    f: RewriteStep  # equational
    g: RewriteStep
    resolved: bool


@dataclass(frozen=True)
class CriticalCylinder:
    f: RewriteStep  # the vertical step
    base: RelationInstance
    flavor: str  # "equational_vertical" | "equational_base"


@dataclass(frozen=True)
class CylinderVerdict:
    residual_targets_equal: str  # "equal" | "exchange_equal" | "unequal"
    top: CellTrace | None
    notes: str = ""
    vertical_residuals: tuple[Path, Path] | None = None
    side_residuals: tuple[Path, Path] | None = None

    @property
    def vertical_residual(self) -> Path | None:
        return self.vertical_residuals[0] if self.vertical_residuals else None


# ---------------------------------------------------------------------------
# overlap geometry


def _placements(window: Word, src: Word, reach: int) -> list[int]:
    """The offsets d of ``src`` against ``window`` (the window at 0), from
    ``-reach`` to ``len(window) + reach - len(src)``, at which the two agree
    on the letters they share."""
    n, k = len(window), len(src)
    return [
        d
        for d in range(-reach, n + reach - k + 1)
        if window[max(d, 0) : max(d + k, 0)] == src[max(-d, 0) : max(n - d, 0)]
    ]


def _side_heads(p: Presentation, base: RelationInstance) -> set[tuple[str, int]]:
    """The ``(gen, offset)`` of each side's first step on the unwhiskered base."""
    return {(side[0][1], side[0][0]) for side in instance_sides(p, base)[1:] if side}


def _proper_overlap(a1: int, b1: int, a2: int, b2: int) -> bool:
    """Intervals intersect and neither contains the other."""
    if min(b1, b2) <= max(a1, a2):
        return False
    return not (a1 <= a2 and b2 <= b1) and not (a2 <= a1 and b1 <= b2)


# ---------------------------------------------------------------------------
# critical pairs


def enumerate_critical_pairs(p: Presentation, table: ResidualTable) -> list[CriticalPair]:
    """All minimal genuine overlaps (equational step, any step), each marked
    resolved when ``table`` has its tile."""
    out: list[CriticalPair] = []
    seen: set = set()
    gen_index = {g.name: i for i, g in enumerate(p.generators)}
    for e in p.generators:
        if not e.equational:
            continue
        for h in p.generators:
            for d in _placements(e.source, h.source, len(h.source)):
                a = max(0, -d)
                f, g = (a, e.name), (a + d, h.name)
                if f == g or steps_disjoint(p, f, g):
                    continue
                key = tile_key(f, g)
                if key in seen:
                    continue
                seen.add(key)
                word = h.source[:a] + e.source + h.source[len(e.source) - d :]
                f, g = p.step_at(word, f), p.step_at(word, g)
                out.append(CriticalPair(word, f, g, key in table.entries))
    out.sort(
        key=lambda c: (gen_index[c.f.gen], gen_index[c.g.gen], len(c.f.left), len(c.g.left), c.word)
    )
    return out


# ---------------------------------------------------------------------------
# critical cylinders


def _flavor(base_eq: bool) -> str:
    return "equational_base" if base_eq else "equational_vertical"


def _named_cylinders(p: Presentation) -> list[CriticalCylinder]:
    """Steps whose core properly overlaps a relation's source window (in
    path mode: starts where the relation does), other than a side's head."""
    out = []
    for rel in p.relations:
        window, n = rel.lhs.source, len(rel.lhs.source)
        base_eq = p.is_equational_path(rel.lhs) and p.is_equational_path(rel.rhs)
        heads = _side_heads(p, RelationInstance((), (), True, name=rel.name))
        for e in p.generators:
            if not (e.equational or base_eq):
                continue
            k = len(e.source)
            for d in _placements(window, e.source, k - 1):
                if (e.name, d) in heads:
                    continue
                if p.mode == "monoidal" and not _proper_overlap(0, n, d, d + k):
                    continue
                a = max(0, -d)
                word = e.source[:a] + window + e.source[n - d :]
                inst = RelationInstance(word[:a], word[a + n :], True, name=rel.name)
                f = p.step_at(word, (a + d, e.name))
                out.append(CriticalCylinder(f, inst, _flavor(base_eq)))
    return out


def _exchange_cylinders(p: Presentation) -> list[CriticalCylinder]:
    """Verticals whose core touches both factors of an exchange base."""
    out = []
    for g1 in p.generators:
        for g2 in p.generators:
            s1, s2 = g1.source, g2.source
            base_eq = g1.equational and g2.equational
            for e in p.generators:
                core = e.source
                if len(core) < 2 or not (e.equational or base_eq):
                    continue
                # first k1 letters of the core close g1's source, last k2 open g2's
                for k1 in range(1, min(len(core), len(s1)) + 1):
                    for k2 in range(1, min(len(core) - k1, len(s2)) + 1):
                        if s1[len(s1) - k1 :] != core[:k1]:
                            continue
                        if s2[:k2] != core[len(core) - k2 :]:
                            continue
                        mid = core[k1 : len(core) - k2]
                        f = RewriteStep(s1[: len(s1) - k1], e.name, s2[k2:])
                        inst = RelationInstance((), (), True, exch=(g1.name, mid, g2.name))
                        out.append(CriticalCylinder(f, inst, _flavor(base_eq)))
    return out


def enumerate_critical_cylinders(
    p: Presentation, table: ResidualTable
) -> list[CriticalCylinder]:
    """All critical (step, relation instance) coincidences whose vertical
    step is equational or whose base has equational sides.  The flavor is
    ``equational_base`` when the base has equational sides, else
    ``equational_vertical``."""
    gen_index = {g.name: i for i, g in enumerate(p.generators)}
    out = _named_cylinders(p) + _exchange_cylinders(p)
    out.sort(
        key=lambda c: (
            0 if c.flavor == "equational_vertical" else 1,
            gen_index[c.f.gen],
            c.base.name or "~exch",
            p.fmt_instance(c.base),
            len(c.f.left),
        )
    )
    return out


# ---------------------------------------------------------------------------
# closing a coincidence


def close_coincidence(
    f: RewriteStep, base: RelationInstance, res: Residuator, max_cells: int, budget: int
) -> tuple[CellTrace | None, Path | None, str, tuple[Path, Path] | None]:
    """Close the coincidence of the vertical step ``f`` with the relation
    instance ``base``: ``(top, fg, notes, sides)``.  ``top`` joins the
    residuals ``sides`` of the base's two sides after f, which only
    ``check_cylinder`` reads, ``fg`` is the vertical residual along the
    second side and ``notes`` says why there is no top.  fg and sides are
    None when residuation fails, sides also when the interchange builds the
    top.  The presentation and the residual table are those of ``res``,
    whose memo several closings may share.

    When ``base`` is an exchange whose factors f misses, and f and the first
    factor have letters, the sides' residuals are the base's sides moved
    past f, and f's residual is f moved past both factors: the top is the
    base moved past f, built directly (interchange).  An f without letters
    can land on the second factor's spot once the first is applied.
    Otherwise the residuals come from ``Residuator.residuals``, and the top
    from ``oracle.search_trace`` within ``max_cells`` and ``budget``: it
    returns the exchange trace of exchange-equal residuals before it
    searches, and at ``max_cells`` 0 only that."""
    p = res.p
    w, side1, side2 = instance_sides(p, base)
    fs, after_f, end = position(f), p.step_target(f), w
    for s in side2:  # the sides' common end word
        end = p.step_target(p.step_at(end, s))
    if (
        base.exch
        and p.gen(f.gen).source
        and p.gen(side1[0][1]).source
        and all(p.gen(h[1]).equational and steps_disjoint(p, fs, h) for h in (side1[0], side2[0]))
    ):
        (h1, _), (g2, g1) = side1, side2
        e1, e2 = retype_step(p, h1, fs), retype_step(p, g2, fs)
        top = CellTrace(
            p.path_at(after_f, [e1, retype_step(p, e2, e1)]),
            (Move(0, exchange_instance(p, after_f, e1, e2)),),
            p,
        )
        return top, p.path_at(end, [retype_step(p, retype_step(p, fs, g2), g1)]), "", None
    try:
        (_, r1, _), (f2, r2, _) = (res.residuals(w, [fs], side) for side in (side1, side2))
    except ResiduationError as exc:
        return None, None, f"residuation failed: {exc}", None
    fg, sides = p.path_at(end, f2), (p.path_at(after_f, r1), p.path_at(after_f, r2))
    if p.path_target(sides[0]) != p.path_target(sides[1]):
        return None, fg, "side residuals are not cofinal", sides
    top = oracle.search_trace(p, *sides, max_cells=max_cells, budget=budget)
    return top, fg, "top search exhausted (inconclusive)" if top is None else "", sides


def check_cylinder(
    f: RewriteStep, base: RelationInstance, res: Residuator, max_cells: int, budget: int
) -> CylinderVerdict:
    """The closing of a critical cylinder (``close_coincidence``) with the
    verdict on its two vertical residuals: equal, equal up to exchange, or
    unequal."""
    p = res.p
    top, fg2, notes, sides = close_coincidence(f, base, res, max_cells, budget)
    if fg2 is None:
        return CylinderVerdict("unequal", None, notes)
    w, side1, _ = instance_sides(p, base)
    fg1 = res.pair(Path(w, (f,)), p.path_at(w, side1))[0]  # a memo hit unless interchanged
    if fg1 == fg2:
        verdict = "equal"
    elif oracle.exchange_canonical(fg1, p) == oracle.exchange_canonical(fg2, p):
        verdict = "exchange_equal"
    else:
        verdict = "unequal"
    # an interchange's top joins the sides' residuals
    return CylinderVerdict(verdict, top, notes, (fg1, fg2), sides or (top.source, check_trace(p, top)))


# ---------------------------------------------------------------------------
# trivially completable coincidences (sampled for the weight checks), by shape

# the letters that stand for a shape's gap words (an object name has no space)
SLOTS = ("<x gap>", "<mid 1>", "<mid 2>", "<y gap>")


class _Any:
    """A window letter that agrees with every letter: a gap letter."""

    def __eq__(self, other) -> bool:
        return True


@dataclass(eq=False)
class BaseShape:
    """Sampled coincidences of one vertical step with one equational-sided
    base that close alike: ``f`` and ``base`` on one word, which has a
    ``SLOTS`` letter for each gap word when ``marked``, else is the core of
    every sample.  A member ``(family, (gen, d), a, b, nx, ny, mids, xs,
    ys)`` is one placement of the step, at ``d`` on its base's window, with
    the middle words ``(index, mid)`` and the contexts ``(index, context,
    core part)`` it fits.  A sample's gap words are its core part of x past
    ``nx`` letters, its middle before ``a`` and from ``b``, and its core
    part of y but its last ``ny`` letters."""

    f: RewriteStep
    base: RelationInstance
    marked: bool
    members: list = field(default_factory=list)

    def samples(self):
        """``(sample order, x, y, gap words)`` of each sample."""
        for family, gd, a, b, nx, ny, mids, xs, ys in self.members:
            for mi, mid in mids:
                for xi, cx, in_x in xs:
                    for yi, cy, in_y in ys:
                        gaps = (in_x[nx:], mid[:a], mid[b:], in_y[: len(in_y) - ny])
                        yield (*family, mi, xi, yi, *gd), cx, cy, gaps


class BaseSamples:
    """The sampled coincidences, by shape in ``shapes``; ``len`` counts the samples."""

    def __init__(self) -> None:
        self.shapes: dict[tuple, BaseShape] = {}
        self.count = 0

    def __len__(self) -> int:
        return self.count


def trivial_equational_base_samples(p: Presentation) -> BaseSamples:
    """Sampled (vertical step, equational-sided base) coincidences of the
    trivially completable shape: the vertical does not touch both exchanged
    factors (for exchange bases) or is disjoint/nested (for named bases).
    Contexts and exchange middles range over the words up to length 2.

    The sample x·(f | inst)·y has the core ``(f, inst)``, where ``x`` and
    ``y`` are the context the step and the base share; presentations that
    fail the strip condition of ``coherence.CheckContext`` keep ``x`` and
    ``y`` empty.  Samples come by base (exchanges by e1, e2 and mid, then
    the named relations), then by x, by y and in ``steps_on`` order, the
    order ``BaseShape.samples`` gives.  No whiskered word is scanned: a
    step at offset ``d`` from the window reaches ``max(0, -d)`` letters into
    x and ``max(0, d + k - n)`` into y (``k`` its source's length, ``n`` the
    window's), and it applies when its letters match on the window and on
    each context.  An exchange window is placed against once per middle
    length, its middle matching any letters, and each placement keeps the
    middles it fits.

    Cores differ in gap words: the letters of the middle the step does not
    cover, and those of x or y between the base and a step beside it.  When
    the strip condition holds and every generator has letters, an exchange
    core is keyed by its shape, the core with a slot letter per gap word.
    Its step is anchored at e2 when it ends past the middle, else at e1, so
    the shape is fixed by the step's offset from its anchor: a gap between
    them has one length, the middle's far side any.  A named base, whose
    cores a search closes, has one shape per core."""
    out = BaseSamples()
    if p.mode != "monoidal":
        return out
    strip = all(
        any(not s.left for s in side.steps) and any(not s.right for s in side.steps)
        for r in p.relations
        for side in (r.lhs, r.rhs)
    )
    shaped = strip and all(g.source for g in p.generators)
    reach = 2
    words = words_upto(p, reach)
    fits: dict = {}
    mids_of: dict = {}

    def add(f: RewriteStep, base: RelationInstance, marked: bool, member: tuple) -> None:
        shape = out.shapes.get((f, base))
        if shape is None:
            shape = out.shapes[f, base] = BaseShape(f, base, marked)
        shape.members.append(member)
        out.count += len(member[-3]) * len(member[-2]) * len(member[-1])

    def contexts(n: int, s: Word, right: bool) -> tuple[dict, list]:
        """The context words whose ``n`` letters next to the base start (for
        y: end) with ``s``, as ``(index, context, core part)``: by core part,
        and all of them."""
        if (n, s, right) not in fits:
            by_part: dict = {}
            for i, w in enumerate(words):
                cut = n if right else len(w) - n
                part, ctx = (w[:cut], w[cut:]) if right else (w[cut:], w[:cut])
                if len(w) < n or (part[len(part) - len(s) :] if right else part[: len(s)]) != s:
                    continue
                if not strip:
                    part, ctx = w, ()
                by_part.setdefault(part, []).append((i, ctx, part))
            fits[n, s, right] = by_part, sum(by_part.values(), [])
        return fits[n, s, right]

    def sample(family, base: RelationInstance, window: Word, m0: int, m: int) -> None:
        # the middle is window[m0 : m0 + m], of any letters (empty for a named
        # base); skip a critical step, and a side's whiskered first step
        n, exch = len(window), base.exch
        heads = {(exch[0], 0), (exch[2], m0 + m)} if exch else _side_heads(p, base)
        for gi, g in enumerate(p.generators):
            src, k = g.source, len(g.source)
            for d in _placements(window, src, reach):
                if (g.name, d) in heads or (
                    min(d + k, m0) > max(d, 0) and min(d + k, n) > max(d, m0 + m)
                    if exch
                    else _proper_overlap(d, d + k, 0, n)
                ):
                    continue
                lx, ly = max(0, -d), max(0, d + k - n)
                sx, sy = src[: min(k, lx)], src[k - min(k, ly) :]
                (xs, x_all), (ys, y_all) = contexts(lx, sx, False), contexts(ly, sy, True)
                # the step covers the middle from a to b, or sits before it
                # (anchored at e1) or after it (at e2)
                lo, hi, on_e2 = max(d, m0), min(d + k, m0 + m), d + k > m0 + m
                a, b = (lo - m0, hi - m0) if lo < hi else (m, m) if on_e2 else (0, 0)
                cover = src[m0 + a - d : m0 + b - d] if a < b else ()
                if (m, a, cover) not in mids_of:
                    mids_of[m, a, cover] = [
                        (i, w) for i, w in enumerate(words) if len(w) == m and w[a:b] == cover
                    ]
                mids = mids_of[m, a, cover]
                if exch and shaped:
                    one = on_e2 or a > 0  # the middle has letters before the step's
                    mid = (SLOTS[1],) * one + cover + (SLOTS[2],) * (not on_e2)
                    in_x, in_y = sx + (SLOTS[0],) * (lx > k), (SLOTS[3],) * (ly > k) + sy
                    # the step's offset: in x, in e1, in the middle, in e2 or in y
                    at = (
                        max(0, d) if d < m0
                        else m0 + one if d < m0 + m
                        else m0 + len(mid) + min(d, n) - m0 - m + (d > n)
                    )
                    f = p.step_at(in_x + window[:m0] + mid + window[m0 + m :] + in_y, (at, g.name))
                    member = (family, (gi, d), a, b, len(sx), len(sy), mids, x_all, y_all)
                    add(f, RelationInstance(in_x, in_y, True, exch=(exch[0], mid, exch[2])), True, member)
                    continue
                for mi, mid in mids:
                    inst = replace(base, exch=(exch[0], mid, exch[2])) if exch else base
                    core = window[:m0] + mid + window[m0 + m :]
                    for in_x, xv in xs.items():
                        for in_y, yv in ys.items():
                            f = p.step_at(in_x + core + in_y, (len(in_x) + d, g.name))
                            member = (family, (gi, d), 0, 0, 0, 0, [(mi, mid)], xv, yv)
                            add(f, replace(inst, left=in_x, right=in_y), False, member)

    eq_gens = [g for g in p.generators if g.equational]
    for i1, e1 in enumerate(eq_gens):
        for i2, e2 in enumerate(eq_gens):
            for m in range(reach + 1):
                base = RelationInstance((), (), True, exch=(e1.name, (), e2.name))
                sample((i1, i2), base, e1.source + (_Any(),) * m + e2.source, len(e1.source), m)
    for i, rel in enumerate(p.relations):
        if p.is_equational_path(rel.lhs) and p.is_equational_path(rel.rhs):
            base = RelationInstance((), (), True, name=rel.name)
            sample((len(eq_gens), i), base, rel.lhs.source, 0, 0)
    return out
