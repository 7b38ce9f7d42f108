"""Brute-force ground truth at desk scale.

Everything here is budgeted and independent of the residuation fast paths:
exchange canonical forms decide commutation equivalence, a bidirectional
search decides 2-cell equality within a budget, hom-sets are enumerated in
one walk per source and partitioned by congruence closure, and a tile-search
oracle recomputes residuals straight from the declared relations.  Rewrites
and exchanges work on positions: a path is matched as its flat key of
``(offset, gen)`` steps with the word after each step, and relation sides
are found as windows of such steps.  Hom-sets are walked and partitioned on
these keys; ``HomClasses.classes`` builds ``Path``s only when read.  The
step and exchange geometry is this module's own, not borrowed from
``residuation``; ``Presentation.path_words`` and ``objects.steps_on`` are
plumbing.  Searches record their rewrites as moves and build an answer's
trace once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement

from .core import (
    CellTrace,
    CohpresError,
    Move,
    Path,
    Presentation,
    RelationInstance,
    RewriteStep,
    Word,
    compose,
    invert_instance,
    position,
    tensor_ctx,
    trace_from_moves,
)
from .objects import steps_on, words_upto


class ExplosionError(CohpresError):
    pass


# ---------------------------------------------------------------------------
# step geometry (kept local and elementary on purpose)


def _interval(p: Presentation, s: RewriteStep) -> tuple[int, int]:
    a = len(s.left)
    return a, a + len(p.gen(s.gen).source)


def _intervals_independent(a1: int, b1: int, a2: int, b2: int) -> bool:
    if a1 == b1 and a2 == b2:
        return a1 != a2
    if a1 == b1:
        return a1 <= a2 or a1 >= b2
    if a2 == b2:
        return a2 <= a1 or a2 >= b1
    return b1 <= a2 or b2 <= a1


def _rest(path: Path, p: Presentation) -> Path:
    """``path`` without its first step."""
    return Path(p.step_target(path.steps[0]), path.steps[1:])


def _exchange(p: Presentation, a_s: int, gs: str, at: int, gt: str):
    """Consecutive steps s;t, given as ``(offset, gen)``, swapped into t';s'
    as ``(at', a_s', left)``, or None when their active areas meet; ``left``
    when t' is left of s, which at a gap only t's own interval tells."""
    s, t = p.gen(gs), p.gen(gt)
    kt = len(t.source)
    if not _intervals_independent(at, at + kt, a_s, a_s + len(s.target)):
        return None
    if at + kt <= a_s:
        return at, a_s + len(t.target) - kt, True
    return at + len(s.source) - len(s.target), a_s, False


def _exchange_instance(p: Presentation, w: Word, a_s: int, gs: str, at: int, gt: str, left: bool):
    """The cell from s;t to t';s' (see ``_exchange``) on the source word
    ``w`` of s: when t' is left of s, the exchange of (t', s) backwards."""
    b_s, bt = a_s + len(p.gen(gs).source), at + len(p.gen(gt).source)
    if left:
        return RelationInstance(w[:at], w[b_s:], False, exch=(gt, w[bt:a_s], gs))
    return RelationInstance(w[:a_s], w[bt:], True, exch=(gs, w[b_s:at], gt))


def exchange_canonical(path: Path, p: Presentation) -> Path:
    """The canonical representative of a path up to exchange.

    Repeatedly swaps adjacent independent steps whenever the later one acts
    strictly further left; this sorts commuting steps by position and is the
    identity in path mode.
    """
    return canonical_with_trace(path, p)[0]


def canonical_with_trace(path: Path, p: Presentation) -> tuple[Path, tuple[Move, ...]]:
    """The exchange-canonical form and the exchange moves leading to it."""
    if p.mode == "path":
        return path, ()
    steps, moves = list(path.steps), []
    changed = True
    while changed:
        changed = False
        for i in range(len(steps) - 1):
            (a_s, gs), (at, gt) = position(steps[i]), position(steps[i + 1])
            swap = _exchange(p, a_s, gs, at, gt)
            if swap is None or swap[0] >= a_s:
                continue
            w, (at, a_s2, left) = p.step_source(steps[i]), swap
            moves.append(Move(i, _exchange_instance(p, w, a_s, gs, at, gt, left)))
            steps[i : i + 2] = p.path_at(w, ((at, gt), (a_s2, gs))).steps
            changed = True
    return Path(path.source, tuple(steps)), tuple(moves)


# ---------------------------------------------------------------------------
# single-cell rewriting moves on positions
#
# A path is matched as its flat positional key ``(off0, gen0, off1, gen1, ...)``
# with its words: its source, then the word after each step.


def _flat(steps) -> tuple:
    return tuple([v for s in steps for v in (len(s.left), s.gen)])


@lru_cache(maxsize=4096)
def _shift(key: tuple, d: int) -> tuple:
    """A flat positional key with every offset moved right by ``d``."""
    return tuple([v for off, g in zip(key[::2], key[1::2]) for v in (off + d, g)]) if d else key


_SIDES: tuple = (None, {})  # the relations compiled last, and their sides


def _compile_sides(p: Presentation) -> dict:
    """Each relation side as ``(order, fwd, name, source, key, other, rhs)``
    (its place by relation, then direction; the other side's flat key and
    path) under the generator of its first step, or None; kept for reuse."""
    global _SIDES
    if _SIDES[0] is not p.relations:
        by_gen: dict[str | None, list] = {}
        for i, rel in enumerate(p.relations):
            for fwd, lhs, rhs in ((True, rel.lhs, rel.rhs), (False, rel.rhs, rel.lhs)):
                key = _flat(lhs.steps)
                side = (2 * i + (not fwd), fwd, rel.name, lhs.source, key, _flat(rhs.steps), rhs)
                by_gen.setdefault(key[1] if key else None, []).append(side)
        _SIDES = p.relations, by_gen
    return _SIDES[1]


def _windows(by_gen: dict, key: tuple, words, bound: float = math.inf):
    """Every ``(order, j, d, side)`` where ``side`` shifted right by ``d``
    matches the path from step ``j`` (with no steps: at ``d`` in ``words[j]``)
    and leaves at most ``bound`` steps; sorted, by relation, direction, place."""
    room = 2 * bound - len(key)  # how many more key entries a result may have
    for j in range(len(key) // 2):
        for side in by_gen.get(key[2 * j + 1], ()):
            source, lkey, other = side[3:6]
            d, end = key[2 * j] - lkey[0], 2 * j + len(lkey)
            if d < 0 or end > len(key) or words[j][d : d + len(source)] != source:
                continue
            if len(other) - len(lkey) <= room and key[2 * j : end] == _shift(lkey, d):
                yield side[0], j, d, side
    for side in by_gen.get(None, ()):
        source, other = side[3], side[5]
        if len(other) > room:
            continue
        for j, w in enumerate(words):
            for d in range(len(w) - len(source) + 1):
                if w[d : d + len(source)] == source:
                    yield side[0], j, d, side


def _exchanges(p: Presentation, key: tuple):
    """Every exchange ``(j, at', a_s', left)`` of the path ``key``, by place."""
    if p.mode == "monoidal":
        for j in range(0, len(key) - 2, 2):
            swap = _exchange(p, *key[j : j + 4])
            if swap is not None:
                yield (j // 2, *swap)


def rewrite_moves(p: Presentation, path: Path) -> list[tuple[Path, Move]]:
    """All single named-relation or exchange rewrites applicable to a path,
    each as the rewritten path and its move: relations in ``_windows``
    order, then exchanges by position."""
    by_gen = _compile_sides(p)
    steps, words = path.steps, p.path_words(path)
    key, out = _flat(steps), []
    for _, j, d, (_, fwd, name, source, lkey, _, rhs) in sorted(_windows(by_gen, key, words)):
        x, y = words[j][:d], words[j][d + len(source) :]
        new = steps[:j] + tensor_ctx(p, x, rhs, y).steps + steps[j + len(lkey) // 2 :]
        out.append((Path(path.source, new), Move(j, RelationInstance(x, y, fwd, name=name))))
    for j, at, a_s2, left in _exchanges(p, key):
        a_s, gs, _, gt = key[2 * j : 2 * j + 4]
        swapped = p.path_at(words[j], ((at, gt), (a_s2, gs))).steps
        inst = _exchange_instance(p, words[j], a_s, gs, at, gt, left)
        out.append((Path(path.source, steps[:j] + swapped + steps[j + 2 :]), Move(j, inst)))
    return out


# ---------------------------------------------------------------------------
# bounded 2-cell search


def _splice(p: Presentation, start: Path, moves, back) -> CellTrace:
    """The trace from ``start`` along ``moves`` and then ``back`` inverted,
    in reverse order: a path reached from both ends of a search."""
    flipped = tuple(Move(at, invert_instance(inst)) for at, inst in reversed(back))
    return trace_from_moves(p, start, tuple(moves) + flipped)


def exchange_trace(p: Presentation, start: Path, goal: Path) -> CellTrace | None:
    """The trace start =>* goal that ``search_trace`` returns before its
    search when the two paths are equal or exchange-equal: no cells, or the
    exchange-canonical moves of ``start`` followed by those of ``goal``
    inverted.  None when the paths are not exchange-equal."""
    if start == goal:
        return trace_from_moves(p, start, ())
    canon, back = canonical_with_trace(goal, p)
    if canon == start:  # a canonical form has no canonical moves
        return _splice(p, start, (), back)
    start_canon, moves = canonical_with_trace(start, p)
    return _splice(p, start, moves, back) if start_canon == canon else None


def search_trace(
    p: Presentation,
    start: Path,
    goal: Path,
    max_cells: int = 12,
    budget: int = 20_000,
) -> CellTrace | None:
    """Bidirectional breadth-first search for a 2-cell trace start =>* goal.

    Visited states are deduplicated on raw paths; the two searches meet on
    exchange-canonical forms, with the connecting exchange cells spliced in.
    Exchange-equal paths meet before any search (``exchange_trace``), the
    only meeting at ``max_cells`` 0.
    """
    if start.source != goal.source or p.path_target(start) != p.path_target(goal):
        raise CohpresError("search_trace requires parallel paths")
    met = exchange_trace(p, start, goal)
    if met is not None or max_cells <= 0:
        return met

    # per side: the moves from its origin to each visited path, and for each
    # canonical form the first path reaching it with the moves from there
    sides: list[dict] = []
    for origin in (start, goal):
        canon, cmoves = canonical_with_trace(origin, p)
        canon_at = {canon: (origin, cmoves)}
        sides.append({"moves": {origin: ()}, "canon": canon_at, "frontier": [origin], "depth": 0})

    def stitch(a, ca, b, cb) -> CellTrace:
        return _splice(p, start, sides[0]["moves"][a] + ca, sides[1]["moves"][b] + cb)

    visited = 2
    while sides[0]["frontier"] or sides[1]["frontier"]:
        # a side with a frontier: the shallower, then the narrower, then start's
        rank = [(not s["frontier"], s["depth"], len(s["frontier"])) for s in sides]
        si = rank.index(min(rank))
        side, other = sides[si], sides[1 - si]
        if side["depth"] + other["depth"] >= max_cells:
            return None
        side["depth"] += 1
        new_frontier: list[Path] = []
        for node in side["frontier"]:
            base = side["moves"][node]
            for new_path, move in rewrite_moves(p, node):
                if new_path in side["moves"]:
                    continue
                visited += 1
                if visited > budget:
                    return None
                side["moves"][new_path] = base + (move,)
                canon, cmoves = canonical_with_trace(new_path, p)
                if canon not in side["canon"]:
                    side["canon"][canon] = (new_path, cmoves)
                if canon in other["canon"]:
                    met, moves = other["canon"][canon]
                    if si == 0:
                        return stitch(new_path, cmoves, met, moves)
                    return stitch(met, moves, new_path, cmoves)
                new_frontier.append(new_path)
        side["frontier"] = new_frontier
    return None


# ---------------------------------------------------------------------------
# hom-set enumeration


@dataclass(frozen=True)
class HomClasses:
    """The classes of hom(source, target) at ``bound`` as member keys in walk
    order; ``classes`` builds them as sorted ``Path``s only when read."""

    source: Word
    target: Word
    bound: int
    keys: tuple[tuple[tuple, ...], ...]
    pres: Presentation = field(compare=False, repr=False)

    @property
    def count(self) -> int:
        return len(self.keys)

    @cached_property
    def classes(self) -> tuple[tuple[Path, ...], ...]:
        p = self.pres
        groups = [[p.path_at(self.source, zip(k[::2], k[1::2])) for k in g] for g in self.keys]
        return tuple(
            tuple(sorted(g, key=lambda q: (len(q.steps), p.fmt_path(q))))
            for g in sorted(groups, key=lambda g: (len(g[0].steps), p.fmt_path(g[0])))
        )


class UnionFind:
    """Disjoint sets of 0..n-1; each class's root is its smallest member."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _classes(p: Presentation, by_gen: dict, members: list, bound: int) -> tuple:
    """The parallel ``(key, words)`` paths ``members`` partitioned by single
    rewrites within ``bound``, as keys, in order of first member."""
    index = {key: i for i, (key, _) in enumerate(members)}
    uf = UnionFind(len(members))
    for i, (key, words) in enumerate(members):
        new_keys = [
            key[: 2 * j] + _shift(side[5], d) + key[2 * j + len(side[4]) :]
            for _, j, d, side in _windows(by_gen, key, words, bound)
        ]
        new_keys += [
            key[: 2 * j] + (at, key[2 * j + 3], a_s2, key[2 * j + 1]) + key[2 * j + 4 :]
            for j, at, a_s2, _left in _exchanges(p, key)
        ]
        for j in {index.get(new) for new in new_keys} - {None}:
            uf.union(i, j)
    groups: dict[int, list[tuple]] = {}
    for i, (key, _) in enumerate(members):
        groups.setdefault(uf.find(i), []).append(key)
    return tuple(map(tuple, groups.values()))


def _hom_partition(
    src: Word, tgts: tuple[Word, ...], p: Presentation, bound: int, guard: int = 200_000
) -> dict[Word, HomClasses]:
    """The hom classes to each of ``tgts`` from one walk; errors name ``tgts[0]``.
    The walk lists positional paths in ``objects.paths_from`` order."""
    by_tgt: dict[Word, list] = {t: [] for t in tgts}
    limit = max(guard, 1)  # the empty path is never refused
    level, generated, steps_at = [((), (src,))], 1, {}
    if src in by_tgt:
        by_tgt[src].append(level[0])
    for _ in range(bound):
        nxt = []
        for key, words in level:
            if words[-1] not in steps_at:
                here = steps_on(words[-1], p)
                steps_at[words[-1]] = [(position(s), p.step_target(s)) for s in here]
            for step, t in steps_at[words[-1]]:
                generated += 1
                if generated > limit:
                    raise ExplosionError(
                        f"hom enumeration exceeded {guard} paths for "
                        f"{p.fmt_word(src)} -> {p.fmt_word(tgts[0])}"
                    )
                item = (key + step, words + (t,))
                nxt.append(item)
                if t in by_tgt:
                    by_tgt[t].append(item)
        level = nxt
    # one direction of each relation: a window found forward on A, giving B,
    # is the one found backward on B; exchanges keep both directions
    by_gen = {g: [side for side in sides if side[1]] for g, sides in _compile_sides(p).items()}
    return {
        t: HomClasses(src, t, bound, _classes(p, by_gen, qs, bound), p)
        for t, qs in by_tgt.items()
    }


def enumerate_hom_classes(
    src: Word, tgt: Word, p: Presentation, bound: int, guard: int = 200_000
) -> HomClasses:
    """All paths src -> tgt of at most ``bound`` steps, partitioned by the
    congruence generated by single relation applications inside the bound.

    Raises ExplosionError once more than ``guard`` paths from ``src`` have
    been generated, counting the empty path."""
    return _hom_partition(src, (tgt,), p, bound, guard)[tgt]


# ---------------------------------------------------------------------------
# combinatorial oracle for the surjection PRO


def _monotone_surjections(n: int, k: int) -> int:
    if n < k:
        return 0
    return sum(len(set(values)) == k for values in combinations_with_replacement(range(k), n))


def surjection_count(pq: tuple[int, int], rs: tuple[int, int]) -> int:
    """Number of morphisms (p,q) -> (r,s) in the product of surjection PROs,
    counted by direct enumeration of monotone maps."""
    return _monotone_surjections(pq[0], rs[0]) * _monotone_surjections(pq[1], rs[1])


# ---------------------------------------------------------------------------
# independent tile-search residuation oracle


class OracleFailure(CohpresError):
    pass


def _oracle_tile(p: Presentation, f0: RewriteStep, g0: RewriteStep, word: Word):
    """Find (g0/f0, f0/g0) by scanning relation instances on the word."""
    (af, bf), (ag, bg) = _interval(p, f0), _interval(p, g0)
    if _intervals_independent(af, bf, ag, bg):
        # recompute the exchange square from scratch on the word: the step
        # right of the other moves by how much the other changes the length
        f_left = bf <= ag or (af == bf and af <= ag)
        df, dg = len(p.gen(f0.gen).target) - (bf - af), len(p.gen(g0.gen).target) - (bg - ag)
        return (
            p.path_at(p.step_target(f0), [(ag + df if f_left else ag, g0.gen)]),
            p.path_at(p.step_target(g0), [(af if f_left else af + dg, f0.gen)]),
        )
    f_eq, g_eq = p.is_equational_step(f0), p.is_equational_step(g0)
    for rel in p.relations:
        for side_a, side_b in ((rel.lhs, rel.rhs), (rel.rhs, rel.lhs)):
            if side_a.source and len(side_a.source) > len(word):
                continue
            if not side_a.steps or not side_b.steps:
                continue
            # heads that share context make a relation that holds only there
            (a1, b1), (a2, b2) = _interval(p, side_a.steps[0]), _interval(p, side_b.steps[0])
            if min(a1, a2) > 0 or max(b1, b2) < len(side_a.source):
                continue
            for cut in range(len(word) - len(side_a.source) + 1):
                if word[cut : cut + len(side_a.source)] != side_a.source:
                    continue
                x, y = word[:cut], word[cut + len(side_a.source) :]
                wa, wb = tensor_ctx(p, x, side_a, y), tensor_ctx(p, x, side_b, y)
                if wa.steps[0] != f0 or wb.steps[0] != g0:
                    continue
                rest_a, rest_b = _rest(wa, p), _rest(wb, p)
                if f_eq and not p.is_equational_path(rest_b):
                    continue
                if not f_eq and g_eq and not p.is_equational_path(rest_a):
                    continue
                return rest_a, rest_b
    raise OracleFailure(
        f"no tile found for ({p.fmt_step(f0)}, {p.fmt_step(g0)}) on {p.fmt_word(word)}"
    )


def oracle_residual_pair(
    g: Path, f: Path, p: Presentation, depth: int = 64
) -> tuple[Path, Path]:
    """(g/f, f/g) recomputed from the raw relations, splitting g first.

    Independent of the residual table and of the memoized strategy; used to
    cross-check residuation results.
    """
    if depth <= 0:
        raise OracleFailure("oracle residuation depth exhausted")
    if g.source != f.source:
        raise OracleFailure("oracle: paths not coinitial")
    if not f.steps:
        return g, Path(p.path_target(g), ())
    if not g.steps:
        return Path(p.path_target(f), ()), f
    if f.steps[0] == g.steps[0]:
        return oracle_residual_pair(_rest(g, p), _rest(f, p), p, depth - 1)
    if len(g.steps) > 1:
        g1 = Path(g.source, g.steps[:1])
        g1f, fg1 = oracle_residual_pair(g1, f, p, depth - 1)
        grest_res, f_rest = oracle_residual_pair(_rest(g, p), fg1, p, depth - 1)
        return compose(p, g1f, grest_res), f_rest
    if len(f.steps) > 1:
        f1 = Path(f.source, f.steps[:1])
        gf1, f1g = oracle_residual_pair(g, f1, p, depth - 1)
        gff, frest_after = oracle_residual_pair(gf1, _rest(f, p), p, depth - 1)
        return gff, compose(p, f1g, frest_after)
    return _oracle_tile(p, f.steps[0], g.steps[0], f.source)


# ---------------------------------------------------------------------------
# three-way comparison


def normal_words(p: Presentation, max_word: int) -> list[Word]:
    words = words_upto(p, 1)[1:] if p.mode == "path" else words_upto(p, max_word)
    return [w for w in words if not steps_on(w, p, equational=True)]


FRACTION_SAMPLES = 20  # fraction pairs a monoidal comparison samples


def compare_constructions(
    p: Presentation,
    max_word: int,
    max_steps: int,
    oracle_family: str | None = None,
) -> dict:
    """Compare hom-set class counts across the constructions at desk scale."""
    from . import constructions as con
    from .residuation import derive_residual_table
    def counts(src: Word, tgts: tuple[Word, ...], pres: Presentation) -> dict[Word, int]:
        return {t: h.count for t, h in _hom_partition(src, tgts, pres, max_steps).items()}

    report: dict = {"mode": p.mode, "pairs": [], "notes": [], "verdict": "equal"}
    if p.mode == "path":
        quot = con.quotient_presentation(p)
        loc = con.localization_presentation(p, set(p.equational_names))
        rep_of = con.quotient_class_map(p)
        normals = set(normal_words(p, max_word))
        objs = tuple((v,) for v in p.objects)
        reps = tuple((rep_of[v],) for v in p.objects)
        quot_counts: dict[Word, dict[Word, int]] = {}  # by representative
        for u in p.objects:  # walks: quotient, localization, nf; fixes the first error
            ru = (rep_of[u],)
            if ru not in quot_counts:
                quot_counts[ru] = counts(ru, reps, quot)
            loc_counts = counts((u,), objs, loc)
            if (u,) in normals:
                nf_counts = counts((u,), tuple(v for v in objs if v in normals), p)
            for v in p.objects:
                q = quot_counts[ru][(rep_of[v],)]
                l = loc_counts[(v,)]
                entry = {"src": u, "tgt": v, "quotient_classes": q, "localization_classes": l}
                if (u,) in normals and (v,) in normals:
                    entry["nf_classes"] = nf_counts[(v,)]
                if q != l:
                    entry["mismatch"] = "quotient != localization"
                    report["verdict"] = "unequal"
                report["pairs"].append(entry)
        return report

    table = derive_residual_table(p)
    normals = normal_words(p, max_word)
    for u in normals:
        nf_counts = counts(u, tuple(normals), p)
        for v in normals:
            nf = nf_counts[v]
            entry = {"src": p.fmt_word(u), "tgt": p.fmt_word(v), "nf_classes": nf}
            if oracle_family == "ds2":
                pq, rs = (u.count("a"), u.count("b")), (v.count("a"), v.count("b"))
                expected = surjection_count(pq, rs)
                entry["surjection_count"] = expected
                if expected != nf:
                    entry["mismatch"] = "nf != surjection oracle"
                    report["verdict"] = "unequal"
            report["pairs"].append(entry)
    agreement = con.sample_fraction_agreement(p, table, normals, max_steps, FRACTION_SAMPLES)
    report["fractions"] = agreement
    if agreement["checked"] and agreement["agreed"] != agreement["checked"]:
        report["verdict"] = "unequal"
        report["notes"].append("fraction equality disagrees with normal-form images")
    return report
