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

from dataclasses import dataclass, replace

from . import oracle
from .core import (
    CellTrace,
    Path,
    Presentation,
    RelationInstance,
    RewriteStep,
    Word,
    instance_sides,
    position,
)
from .objects import words_upto
from .residuation import ResidualTable, ResiduationError, Residuator, steps_disjoint, tile_key


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
# cylinder check


def check_cylinder(
    f: RewriteStep, base: RelationInstance, res: Residuator, max_cells: int, budget: int
) -> CylinderVerdict:
    """Close the coincidence of the vertical step ``f`` with the relation
    instance ``base``: compare the vertical's residuals along the base's two
    sides and search for the top connecting the sides' residuals.  The
    presentation and the residual table are those of ``res``, whose memo
    several checks may share."""
    p = res.p
    w, side1, side2 = instance_sides(p, base)
    g1, g2 = p.path_at(w, side1), p.path_at(w, side2)
    fpath = Path(w, (f,))
    try:
        fg1, g1f = res.pair(fpath, g1)
        fg2, g2f = res.pair(fpath, g2)
    except ResiduationError as exc:
        return CylinderVerdict("unequal", None, notes=f"residuation failed: {exc}")
    if fg1 == fg2:
        verdict = "equal"
    elif oracle.exchange_canonical(fg1, p) == oracle.exchange_canonical(fg2, p):
        verdict = "exchange_equal"
    else:
        verdict = "unequal"
    top = None
    notes = ""
    if p.path_target(g1f) == p.path_target(g2f):
        top = oracle.search_trace(p, g1f, g2f, max_cells=max_cells, budget=budget)
        if top is None:
            notes = "top search exhausted (inconclusive)"
    else:
        notes = "side residuals are not cofinal"
    return CylinderVerdict(verdict, top, notes, (fg1, fg2), (g1f, g2f))


def close_exchange_core(
    f: RewriteStep, base: RelationInstance, res: Residuator
) -> tuple[CellTrace, Path] | None:
    """The top and the vertical residual along the second side of the
    coincidence of ``f`` with the forward exchange ``base``, as
    ``check_cylinder`` finds them, built by naturality of exchange; None
    when naturality does not fix them.

    Each side is a step h1, then a step h2.  f meets h1 in a tile or an
    exchange (``Residuator.step_pair``), giving h1/f and f/h1; h2 is then
    carried across each step of f/h1 the same way while it stays one step
    distinct from that step.  The side's residual is h1/f followed by what
    h2 became, and f's residual is what f/h1 became: the zig-zag's answer.
    If the side residuals are equal or exchange-equal, the top is the trace
    ``search_trace`` returns before searching (``oracle.exchange_trace``):
    the factor f misses, carried across the other's residual."""
    p = res.p
    w, *sides = instance_sides(p, base)
    residuals = []
    for h1, h2 in sides:
        tile = res.step_pair(position(f), h1)
        if tile is None:
            return None
        h, f_after = [h2], []
        for s in tile[1]:
            if len(h) != 1 or h[0] == s:
                return None
            tile2 = res.step_pair(s, h[0])
            if tile2 is None:
                return None
            h = tile2[0]
            f_after += tile2[1]
        residuals.append((tile[0] + h, f_after))
    after_f = p.step_target(f)
    top = oracle.exchange_trace(
        p, p.path_at(after_f, residuals[0][0]), p.path_at(after_f, residuals[1][0])
    )
    if top is None:
        return None
    return top, p.path_at(p.path_target(p.path_at(w, sides[1])), residuals[1][1])


# ---------------------------------------------------------------------------
# trivially completable coincidences (sampled for the weight checks)


def trivial_equational_base_samples(
    p: Presentation,
) -> list[tuple[tuple[RewriteStep, RelationInstance], Word, Word]]:
    """Sampled (vertical step, equational-sided base) coincidences of the
    trivially completable shape: the vertical does not touch both exchanged
    factors (for exchange bases) or is disjoint/nested (for named bases).
    Contexts and exchange middles range over the words up to length 2.

    The sample x·(f | inst)·y comes as ``(core, x, y)`` with ``core = (f,
    inst)``, where ``x`` and ``y`` are the context the step and the base
    share; equal cores are one object.  Presentations that fail the strip
    condition of ``coherence.CheckContext`` keep ``x`` and ``y`` empty.
    Samples come by base (exchanges by e1, e2 and mid, then the named
    relations), then by x, by y and in ``steps_on`` order.

    No whiskered word is scanned.  A step at offset ``d`` from the window
    reaches ``max(0, -d)`` letters into x and ``max(0, d + k - n)`` into y
    (``k`` its source's length, ``n`` the window's), and it applies to
    x·window·y when its letters match on the window and on each context.
    The placements are listed once per base in generator order, then by
    ``d``: ``steps_on`` order on every x·window·y.  Each x and each y marks
    the placements it fits, and the samples of (x, y) are those both fit."""
    out: list[tuple[tuple[RewriteStep, RelationInstance], Word, Word]] = []
    if p.mode != "monoidal":
        return out
    strip = all(
        any(not s.left for s in side.steps) and any(not s.right for s in side.steps)
        for r in p.relations
        for side in (r.lhs, r.rhs)
    )
    reach = 2
    words = words_upto(p, reach)

    def sample(base: RelationInstance, window: Word, critical) -> None:
        # skip a step whose interval relative to the window ``critical``
        # flags, and a side's whiskered first step: its gen at its offset
        n, heads = len(window), _side_heads(p, base)
        # placements matching on the window: (gen, d, how far it reaches
        # into x and its source's letters there, the same for y)
        places = []
        for g in p.generators:
            src, k = g.source, len(g.source)
            for d in _placements(window, src, reach):
                if (g.name, d) in heads or critical(d, d + k):
                    continue
                lx, ly = max(0, -d), max(0, d + k - n)
                places.append((g.name, d, lx, src[: min(k, lx)], ly, src[k - min(k, ly) :]))
        # per context word and placement: (the word's part inside the core,
        # the part left as context) if the placement fits it, else None
        fit_x = {
            x: [
                ((x[len(x) - lx :], x[: len(x) - lx]) if strip else (x, ()))
                if len(x) >= lx and x[len(x) - lx :][: len(sx)] == sx else None
                for _, _, lx, sx, _, _ in places
            ]
            for x in words
        }
        fit_y = {
            y: [
                ((y[:ly], y[ly:]) if strip else (y, ()))
                if len(y) >= ly and y[ly - len(sy) : ly] == sy else None
                for *_, ly, sy in places
            ]
            for y in words
        }
        cores: dict = {}
        for x in words:
            fx = [(i, part) for i, part in enumerate(fit_x[x]) if part]
            for y in words:
                fy = fit_y[y]
                for i, (in_x, ctx_x) in fx:
                    if fy[i] is None:
                        continue
                    in_y, ctx_y = fy[i]
                    key = (i, in_x, in_y)
                    core = cores.get(key)
                    if core is None:
                        gen, d = places[i][:2]
                        f = p.step_at(in_x + window + in_y, (len(in_x) + d, gen))
                        core = cores[key] = (f, replace(base, left=in_x, right=in_y))
                    out.append((core, ctx_x, ctx_y))

    eq_gens = [g for g in p.generators if g.equational]
    for e1 in eq_gens:
        for e2 in eq_gens:
            for mid in words:
                c1 = (0, len(e1.source))
                c2 = (c1[1] + len(mid), c1[1] + len(mid) + len(e2.source))
                sample(
                    RelationInstance((), (), True, exch=(e1.name, mid, e2.name)),
                    e1.source + mid + e2.source,
                    lambda a, b: min(b, c1[1]) > max(a, c1[0]) and min(b, c2[1]) > max(a, c2[0]),
                )
    for rel in p.relations:
        if p.is_equational_path(rel.lhs) and p.is_equational_path(rel.rhs):
            sample(
                RelationInstance((), (), True, name=rel.name),
                rel.lhs.source,
                lambda a, b: _proper_overlap(a, b, 0, len(rel.lhs.source)),
            )
    return out
