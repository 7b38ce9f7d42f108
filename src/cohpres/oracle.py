"""Brute-force ground truth at desk scale.

Everything here is budgeted and independent of the residuation fast paths:
exchange canonical forms decide commutation equivalence, a bidirectional
search decides 2-cell equality within a budget, hom-sets are enumerated in
one walk per source and partitioned by congruence closure, and a tile-search
oracle recomputes residuals straight from the declared relations.  Rewrites
find relation sides as windows of generators.  The step and exchange
geometry is this module's own, not borrowed from ``residuation``; the walks
``Presentation.path_words`` and ``objects.paths_from`` are plumbing.
Searches record their rewrites as moves and build an answer's trace once.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    tensor_ctx,
    trace_from_moves,
)
from .objects import paths_from, steps_on, words_upto


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


def _consecutive_independent(p: Presentation, s: RewriteStep, t: RewriteStep) -> bool:
    """Whether the later step t commutes with s (disjoint active areas)."""
    a_s, _ = _interval(p, s)
    img_end = a_s + len(p.gen(s.gen).target)
    at, bt = _interval(p, t)
    return _intervals_independent(at, bt, a_s, img_end)


def _rest(path: Path, p: Presentation) -> Path:
    """``path`` without its first step."""
    return Path(p.step_target(path.steps[0]), path.steps[1:])


def _back_offset(p: Presentation, s: RewriteStep, t: RewriteStep) -> int:
    """Where the later step t of s;t starts on the source word of s."""
    a_s = len(s.left)
    at, kt = len(t.left), len(p.gen(t.gen).source)
    if at + kt <= a_s or (at <= a_s and kt == 0):
        return at
    return at + len(p.gen(s.gen).source) - len(p.gen(s.gen).target)


def _swap_consecutive(
    p: Presentation, s: RewriteStep, t: RewriteStep
) -> tuple[RewriteStep, RewriteStep, RelationInstance]:
    """Swap independent consecutive steps s;t into t';s' plus the exchange
    cell from s;t to t';s'."""
    w = p.step_source(s)
    a_s, b_s = _interval(p, s)
    at = _back_offset(p, s, t)
    bt = at + len(p.gen(t.gen).source)
    t_back = RewriteStep(w[:at], t.gen, w[bt:])
    w2 = p.step_target(t_back)
    if bt <= a_s:  # t' left of s: the exchange of (t', s), backwards
        shift = len(w2) - len(w)
        inst = RelationInstance(w[:at], w[b_s:], False, exch=(t.gen, w[bt:a_s], s.gen))
    else:
        shift = 0
        inst = RelationInstance(w[:a_s], w[bt:], True, exch=(s.gen, w[b_s:at], t.gen))
    s_after = RewriteStep(w2[: a_s + shift], s.gen, w2[b_s + shift :])
    return t_back, s_after, inst


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
    steps = list(path.steps)
    moves: list[Move] = []
    changed = True
    while changed:
        changed = False
        for i in range(len(steps) - 1):
            s, t = steps[i], steps[i + 1]
            if not _consecutive_independent(p, s, t) or _back_offset(p, s, t) >= len(s.left):
                continue
            t_back, s_after, inst = _swap_consecutive(p, s, t)
            moves.append(Move(i, inst))
            steps[i], steps[i + 1] = t_back, s_after
            changed = True
    return Path(path.source, tuple(steps)), tuple(moves)


# ---------------------------------------------------------------------------
# single-cell rewriting moves


def _windows(p: Presentation, path: Path, words: list[Word], bound: int | None = None):
    """Every relation rewrite of ``path`` as ``(i, k, x, y, fwd, name, rhs)``:
    the window ``steps[i : i + k]`` is ``x·lhs·y`` and becomes ``x·rhs·y``;
    by relation, direction, then position, leaving out results of more than
    ``bound`` steps.  A window is found from its first step by generator;
    as ``path`` composes (``words`` is its ``path_words``), each later step
    is checked only by generator and offset."""
    steps, n = path.steps, len(path.steps)
    at: dict[str, list[int]] = {}
    for i, s in enumerate(steps):
        at.setdefault(s.gen, []).append(i)
    for rel in p.relations:
        for fwd, lhs, rhs in ((True, rel.lhs, rel.rhs), (False, rel.rhs, rel.lhs)):
            side, k = lhs.steps, len(lhs.steps)
            if bound is not None and n - k + len(rhs.steps) > bound:
                continue
            if k == 0:
                w0, m = lhs.source, len(lhs.source)
                for i, w in enumerate(words):
                    for cut in range(len(w) - m + 1):
                        if w[cut : cut + m] == w0:
                            yield i, 0, w[:cut], w[cut + m :], fwd, rel.name, rhs
                continue
            l0 = side[0]
            for i in at.get(l0.gen, ()):
                if i > n - k:
                    break
                s0 = steps[i]
                dl = len(s0.left) - len(l0.left)  # dl < 0 fails the comparison below
                if s0.left[dl:] != l0.left or s0.right[: len(l0.right)] != l0.right:
                    continue
                for s, l in zip(steps[i + 1 : i + k], side[1:]):
                    if s.gen != l.gen or len(s.left) - len(l.left) != dl:
                        break
                else:
                    yield i, k, s0.left[:dl], s0.right[len(l0.right) :], fwd, rel.name, rhs


def _exchanges(p: Presentation, steps: tuple[RewriteStep, ...]):
    """Every exchange rewrite ``(i, t', s', inst)`` of a path, by position."""
    if p.mode == "monoidal":
        for i in range(len(steps) - 1):
            if _consecutive_independent(p, steps[i], steps[i + 1]):
                yield i, *_swap_consecutive(p, steps[i], steps[i + 1])


def rewrite_moves(p: Presentation, path: Path) -> list[tuple[Path, Move]]:
    """All single named-relation or exchange rewrites applicable to a path,
    each as the rewritten path and its move: relations in ``_windows``
    order, then exchanges by position."""
    out: list[tuple[Path, Move]] = []
    steps = path.steps
    for i, k, x, y, fwd, name, rhs in _windows(p, path, p.path_words(path)):
        new = tensor_ctx(p, x, rhs, y).steps
        inst = RelationInstance(x, y, fwd, name=name)
        out.append((Path(path.source, steps[:i] + new + steps[i + k :]), Move(i, inst)))
    for i, t2, s2, inst in _exchanges(p, steps):
        out.append((Path(path.source, steps[:i] + (t2, s2) + steps[i + 2 :]), Move(i, inst)))
    return out


# ---------------------------------------------------------------------------
# bounded 2-cell search


def _raw_key(path: Path):
    return (path.source, path.steps)


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
    Exchange-equal paths meet before any search (``exchange_trace``).
    """
    if start.source != goal.source or p.path_target(start) != p.path_target(goal):
        raise CohpresError("search_trace requires parallel paths")
    met = exchange_trace(p, start, goal)
    if met is not None:
        return met

    # per side: the moves from its origin to each visited path, and for each
    # canonical form the first path reaching it with the moves from there
    sides: list[dict] = []
    for origin in (start, goal):
        canon, cmoves = canonical_with_trace(origin, p)
        sides.append(
            {
                "moves": {_raw_key(origin): ()},
                "canon": {_raw_key(canon): (_raw_key(origin), cmoves)},
                "frontier": [origin],
                "depth": 0,
            }
        )

    def stitch(akey, ca, bkey, cb) -> CellTrace:
        return _splice(p, start, sides[0]["moves"][akey] + ca, sides[1]["moves"][bkey] + cb)

    visited = 2
    while sides[0]["frontier"] or sides[1]["frontier"]:
        if not sides[0]["frontier"]:
            si = 1
        elif not sides[1]["frontier"]:
            si = 0
        else:
            k0 = (sides[0]["depth"], len(sides[0]["frontier"]))
            k1 = (sides[1]["depth"], len(sides[1]["frontier"]))
            si = 0 if k0 <= k1 else 1
        side, other = sides[si], sides[1 - si]
        if side["depth"] + other["depth"] >= max_cells:
            return None
        side["depth"] += 1
        new_frontier: list[Path] = []
        for node in side["frontier"]:
            base = side["moves"][_raw_key(node)]
            for new_path, move in rewrite_moves(p, node):
                key = _raw_key(new_path)
                if key in side["moves"]:
                    continue
                visited += 1
                if visited > budget:
                    return None
                side["moves"][key] = base + (move,)
                canon, cmoves = canonical_with_trace(new_path, p)
                ckey = _raw_key(canon)
                if ckey not in side["canon"]:
                    side["canon"][ckey] = (key, cmoves)
                if ckey in other["canon"]:
                    okey, omoves = other["canon"][ckey]
                    if si == 0:
                        return stitch(key, cmoves, okey, omoves)
                    return stitch(okey, omoves, key, cmoves)
                new_frontier.append(new_path)
        side["frontier"] = new_frontier
    return None


# ---------------------------------------------------------------------------
# hom-set enumeration


@dataclass(frozen=True)
class HomClasses:
    source: Word
    target: Word
    bound: int
    classes: tuple[tuple[Path, ...], ...]

    @property
    def count(self) -> int:
        return len(self.classes)


class _UnionFind:
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


def _classes(p: Presentation, paths: list[Path], bound: int) -> tuple[tuple[Path, ...], ...]:
    """Parallel ``paths`` partitioned by rewrites, keyed by flat (offset, gen) tuples
    built from lists, which size them exactly (``tuple(generator)`` over-allocates)."""
    keys = [tuple([v for s in q.steps for v in (len(s.left), s.gen)]) for q in paths]
    index = {key: i for i, key in enumerate(keys)}
    uf = _UnionFind(len(paths))
    for i, (q, key) in enumerate(zip(paths, keys)):
        new_keys = [
            key[: 2 * j]
            + tuple([v for s in rhs.steps for v in (len(x) + len(s.left), s.gen)])
            + key[2 * (j + k) :]
            for j, k, x, _y, _fwd, _name, rhs in _windows(p, q, p.path_words(q), bound)
        ]
        new_keys += [
            key[: 2 * j] + (len(t.left), t.gen, len(s.left), s.gen) + key[2 * j + 4 :]
            for j, t, s, _inst in _exchanges(p, q.steps)
        ]
        for new in new_keys:
            j = index.get(new)
            if j is not None:
                uf.union(i, j)
    groups: dict[int, list[Path]] = {}
    for i, q in enumerate(paths):
        groups.setdefault(uf.find(i), []).append(q)
    return tuple(
        tuple(sorted(g, key=lambda q: (len(q.steps), p.fmt_path(q))))
        for g in sorted(groups.values(), key=lambda g: (len(g[0].steps), p.fmt_path(g[0])))
    )


def _hom_partition(
    src: Word, tgts: tuple[Word, ...], p: Presentation, bound: int, guard: int = 200_000
) -> dict[Word, HomClasses]:
    """The hom classes to each of ``tgts`` from one walk; errors name ``tgts[0]``."""
    by_tgt: dict[Word, list[Path]] = {t: [] for t in tgts}
    limit = max(guard, 1)  # the empty path is never refused
    for generated, (q, w) in enumerate(paths_from(p, src, bound), start=1):
        if generated > limit:
            raise ExplosionError(
                f"hom enumeration exceeded {guard} paths for "
                f"{p.fmt_word(src)} -> {p.fmt_word(tgts[0])}"
            )
        if w in by_tgt:
            by_tgt[w].append(q)
    return {t: HomClasses(src, t, bound, _classes(p, qs, bound)) for t, qs in by_tgt.items()}


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
    if k == 0:
        return 1 if n == 0 else 0
    if n < k:
        return 0
    count = 0
    for values in combinations_with_replacement(range(k), n):
        if len(set(values)) == k:
            count += 1
    return count


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
    af, bf = _interval(p, f0)
    ag, bg = _interval(p, g0)
    if _intervals_independent(af, bf, ag, bg):
        # recompute the exchange square from scratch on the word
        tgt_f = p.gen(f0.gen).target
        tgt_g = p.gen(g0.gen).target
        if bf <= ag or (af == bf and af <= ag):
            w_f = word[:af] + tgt_f + word[bf:]
            g_new = RewriteStep(w_f[: ag + len(tgt_f) - (bf - af)], g0.gen, word[bg:])
            w_g = word[:ag] + tgt_g + word[bg:]
            f_new = RewriteStep(word[:af], f0.gen, w_g[bf:])
        else:
            w_f = word[:af] + tgt_f + word[bf:]
            g_new = RewriteStep(word[:ag], g0.gen, w_f[bg:])
            w_g = word[:ag] + tgt_g + word[bg:]
            f_new = RewriteStep(w_g[: af + len(tgt_g) - (bg - ag)], f0.gen, word[bf:])
        return Path(p.step_target(f0), (g_new,)), Path(p.step_target(g0), (f_new,))
    f_eq = p.is_equational_step(f0)
    g_eq = p.is_equational_step(g0)
    for rel in p.relations:
        for side_a, side_b in ((rel.lhs, rel.rhs), (rel.rhs, rel.lhs)):
            if side_a.source and len(side_a.source) > len(word):
                continue
            for cut in range(len(word) - len(side_a.source) + 1):
                if word[cut : cut + len(side_a.source)] != side_a.source:
                    continue
                x, y = word[:cut], word[cut + len(side_a.source) :]
                wa = tensor_ctx(p, x, side_a, y)
                wb = tensor_ctx(p, x, side_b, y)
                if not wa.steps or not wb.steps:
                    continue
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
    gf, fg = _oracle_tile(p, f.steps[0], g.steps[0], f.source)
    return gf, fg


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
                pq = (sum(1 for c in u if c == "a"), sum(1 for c in u if c == "b"))
                rs = (sum(1 for c in v if c == "a"), sum(1 for c in v if c == "b"))
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
