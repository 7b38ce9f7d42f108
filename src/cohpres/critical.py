"""Critical pairs and critical cylinders by string-overlap analysis.

A critical pair is a minimal genuine overlap of two coinitial steps, one of
them equational.  A critical cylinder pairs a step with a relation instance
whose active areas properly interfere: for a named base the step's core and
the base's source window must overlap with neither containing the other,
for an exchange base the core must touch both exchanged factors (anything
less is completable by pure exchange, the trivially-true shape).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import oracle
from .core import (
    CellTrace,
    Path,
    Presentation,
    Relation,
    RelationInstance,
    RewriteStep,
    Word,
    instance_sides,
    position,
)
from .objects import words_upto
from .residuation import ResidualTable, ResiduationError, Residuator, tile_key


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


def _placements(u: Word, v: Word) -> list[tuple[int, Word]]:
    """Relative offsets d of factor v against factor u (u starting at 0) such
    that the two genuinely interfere, with the merged word they live on."""
    lu, lv = len(u), len(v)
    out: list[tuple[int, Word]] = []
    if lu == 0 and lv == 0:
        return [(0, ())]
    if lv == 0:
        return [(d, u) for d in range(1, lu)]
    if lu == 0:
        return [(-d, v) for d in range(1, lv)]
    for d in range(-(lv - 1), lu):
        lo, hi = max(0, d), min(lu, d + lv)
        if lo >= hi:
            continue
        if any(u[i] != v[i - d] for i in range(lo, hi)):
            continue
        left = v[: -d] if d < 0 else ()
        right = v[lu - d :] if d + lv > lu else ()
        out.append((d, left + u + right))
    return out


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
            for d, word in _placements(e.source, h.source):
                e_left, h_left = max(0, -d) if d < 0 else 0, max(0, d)
                f = RewriteStep(word[:e_left], e.name, word[e_left + len(e.source) :])
                g = RewriteStep(word[:h_left], h.name, word[h_left + len(h.source) :])
                if f == g:
                    continue
                key = tile_key((e_left, e.name), (h_left, h.name))
                if key in seen:
                    continue
                seen.add(key)
                out.append(CriticalPair(word, f, g, key in table.entries))
    out.sort(
        key=lambda c: (gen_index[c.f.gen], gen_index[c.g.gen], len(c.f.left), len(c.g.left), c.word)
    )
    return out


# ---------------------------------------------------------------------------
# critical cylinders


def _first_steps(rel: Relation) -> tuple[RewriteStep, ...]:
    return tuple(side.steps[0] for side in (rel.lhs, rel.rhs) if side.steps)


def _named_cylinders(p: Presentation, vertical_pool, base_pool) -> list[CriticalCylinder]:
    out = []
    for rel in base_pool:
        window = rel.lhs.source
        for e in vertical_pool:
            if p.mode == "path":
                if rel.lhs.source != e.source:
                    continue
                f = RewriteStep((), e.name, ())
                heads = _first_steps(rel)
                if f in heads:
                    continue
                out.append(
                    CriticalCylinder(f, RelationInstance((), (), True, name=rel.name), "")
                )
                continue
            for d, word in _placements(window, e.source):
                w_start = max(0, -d)
                c_start = w_start + d
                if not _proper_overlap(
                    w_start, w_start + len(window), c_start, c_start + len(e.source)
                ):
                    continue
                f = RewriteStep(word[:c_start], e.name, word[c_start + len(e.source) :])
                inst = RelationInstance(word[:w_start], word[w_start + len(window) :], True, name=rel.name)
                lhs, rhs = instance_sides(p, inst)
                if (lhs.steps and f == lhs.steps[0]) or (rhs.steps and f == rhs.steps[0]):
                    continue
                out.append(CriticalCylinder(f, inst, ""))
    return out


def _exchange_cylinders(p: Presentation, vertical_pool, pair_pool) -> list[CriticalCylinder]:
    """Verticals whose core touches both factors of an exchange base."""
    out = []
    for g1 in pair_pool:
        for g2 in pair_pool:
            s1, s2 = p.gen(g1).source, p.gen(g2).source
            for e in vertical_pool:
                core = e.source
                if len(core) < 2:
                    continue
                # first k1 letters of the core close g1's source, last k2 open g2's
                for k1 in range(1, min(len(core), len(s1)) + 1):
                    for k2 in range(1, min(len(core) - k1, len(s2)) + 1):
                        if s1[len(s1) - k1 :] != core[:k1]:
                            continue
                        if s2[:k2] != core[len(core) - k2 :]:
                            continue
                        mid = core[k1 : len(core) - k2]
                        word = s1 + mid + s2
                        f = RewriteStep(s1[: len(s1) - k1], e.name, s2[k2:])
                        inst = RelationInstance((), (), True, exch=(g1, mid, g2))
                        lhs, rhs = instance_sides(p, inst)
                        if f == lhs.steps[0] or f == rhs.steps[0]:
                            continue
                        out.append(CriticalCylinder(f, inst, ""))
    return out


def enumerate_critical_cylinders(
    p: Presentation, table: ResidualTable
) -> list[CriticalCylinder]:
    """All critical (step, relation instance) coincidences, both flavors."""
    eq_gens = [g for g in p.generators if g.equational]
    all_gens = list(p.generators)
    gen_index = {g.name: i for i, g in enumerate(p.generators)}
    out: list[CriticalCylinder] = []

    # flavor 1: equational vertical step against any base
    named1 = _named_cylinders(p, eq_gens, p.relations)
    exch1 = _exchange_cylinders(p, eq_gens, [g.name for g in all_gens])

    # flavor 2: any vertical step against a base with equational sides
    eq_named = [
        r
        for r in p.relations
        if p.is_equational_path(r.lhs) and p.is_equational_path(r.rhs)
    ]
    named2 = _named_cylinders(p, all_gens, eq_named)
    exch2 = _exchange_cylinders(p, all_gens, [g.name for g in eq_gens])

    seen = set()
    for cyl in named1 + exch1 + named2 + exch2:
        key = (cyl.f, cyl.base.left, cyl.base.right, cyl.base.name, cyl.base.exch)
        if key in seen:
            continue
        seen.add(key)
        lhs, rhs = instance_sides(p, cyl.base)
        base_eq = p.is_equational_path(lhs) and p.is_equational_path(rhs)
        flavor = "equational_base" if base_eq else "equational_vertical"
        out.append(CriticalCylinder(cyl.f, cyl.base, flavor))
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
    g1, g2 = instance_sides(p, base)
    fpath = Path(g1.source, (f,))
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
    e1, mid, e2 = base.exch  # type: ignore[misc]
    s1, t1 = p.gen(e1).source, p.gen(e1).target
    a1, a2 = len(base.left), len(base.left) + len(s1) + len(mid)
    residuals = []
    for h1, h2 in (((a1, e1), (a2 + len(t1) - len(s1), e2)), ((a2, e2), (a1, e1))):
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
    after_base = base.left + t1 + mid + p.gen(e2).target + base.right
    return top, p.path_at(after_base, residuals[1][1])


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

    def sample(base: RelationInstance, critical) -> None:
        # skip a step whose interval relative to the window ``critical``
        # flags, and a side's whiskered first step: its gen at its offset
        sides = instance_sides(p, base)
        window = sides[0].source
        n = len(window)
        heads = {
            (s.steps[0].gen, len(s.steps[0].left))
            for s in sides
            if s.steps and p.step_source(s.steps[0]) == window
        }
        # placements matching on the window: (gen, d, how far it reaches
        # into x and its source's letters there, the same for y)
        places = []
        for g in p.generators:
            src, k = g.source, len(g.source)
            for d in range(-reach, n + reach - k + 1):
                lo, hi = max(d, 0), min(d + k, n)
                if (g.name, d) in heads or critical(d, d + k):
                    continue
                if lo < hi and window[lo:hi] != src[lo - d : hi - d]:
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
                        word = in_x + window + in_y
                        at = len(in_x) + d
                        f = RewriteStep(word[:at], gen, word[at + len(p.gen(gen).source) :])
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
                    lambda a, b: min(b, c1[1]) > max(a, c1[0]) and min(b, c2[1]) > max(a, c2[0]),
                )
    for rel in p.relations:
        if p.is_equational_path(rel.lhs) and p.is_equational_path(rel.rhs):
            sample(
                RelationInstance((), (), True, name=rel.name),
                lambda a, b: _proper_overlap(a, b, 0, len(rel.lhs.source)),
            )
    return out
