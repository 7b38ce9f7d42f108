from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohpres import constructions as con
from cohpres.coherence import CheckContext
from cohpres.core import (
    Move,
    Path,
    RelationInstance,
    RewriteStep,
    check_trace,
    parse_path,
    parse_presentation,
    position,
    tensor_ctx,
    trace_from_moves,
)
from cohpres.objects import steps_on
from cohpres.oracle import (
    ExplosionError,
    _classes,
    _compile_sides,
    _hom_partition,
    canonical_with_trace,
    compare_constructions,
    enumerate_hom_classes,
    exchange_canonical,
    normal_words,
    oracle_residual_pair,
    rewrite_moves,
    search_trace,
    surjection_count,
)
from cohpres.residuation import Residuator

from conftest import all_words, load, paths_from, random_presentation


def test_exchange_canonical_example(ds2):
    f = parse_path("[n]aa ; b[m]", ds2)
    fp = parse_path("bb[m] ; [n]a", ds2)
    assert exchange_canonical(f, ds2) == exchange_canonical(fp, ds2)


def test_exchange_canonical_single_step(ds2):
    s = parse_path("b[g]a", ds2)
    assert exchange_canonical(s, ds2) == s


def test_canonical_trace_valid(ds2):
    fp = parse_path("bb[m] ; [n]a", ds2)
    canon, moves = canonical_with_trace(fp, ds2)
    trace = trace_from_moves(ds2, fp, moves)
    assert trace.source == fp
    assert check_trace(ds2, trace) == canon
    assert all(c.inst.exch is not None for c in trace.cells)


def test_mon_res_residuals_not_exchange_equal_but_star_equal(ds2, ds2_table):
    res = Residuator(ds2, ds2_table)
    bga = parse_path("b[g]a", ds2)
    r1 = res.pair(parse_path("[n]aa ; b[m]", ds2), bga)[0]
    r2 = res.pair(parse_path("bb[m] ; [n]a", ds2), bga)[0]
    assert exchange_canonical(r1, ds2) != exchange_canonical(r2, ds2)
    trace = search_trace(ds2, r1, r2, budget=50_000, max_cells=10)
    assert trace is not None
    assert trace.source == r1 and check_trace(ds2, trace) == r2


def test_search_trace_splices_both_canonical_traces(ds2, ds2_table):
    # r1 takes delta and its canonical exchange; the goal side r2 took gamma
    # and one canonical exchange, which come back inverted and reversed
    res = Residuator(ds2, ds2_table)
    bga = parse_path("b[g]a", ds2)
    r1 = res.pair(parse_path("[n]aa ; b[m]", ds2), bga)[0]
    r2 = res.pair(parse_path("bb[m] ; [n]a", ds2), bga)[0]
    trace = search_trace(ds2, r1, r2, budget=50_000, max_cells=10)
    assert [(ds2.fmt_instance(c.inst), len(c.prefix)) for c in trace.cells] == [
        ("a(delta)", 1),
        ("(~exch(m,0,n))", 3),
        ("(exch(g,0,g))", 0),
        ("(~gamma)b", 1),
    ]
    assert [ds2.fmt_path(c.suffix) for c in trace.cells] == [
        "[m]b",
        "id ab",
        "a[g]b ; [m]bb ; a[n]",
        "a[n]",
    ]


def test_exchange_canonical_idempotent_and_fibers(ds2):
    # fibers of the canonical form = closure classes under single exchanges,
    # on all paths of length <= 4 from words of length <= 4
    for w in all_words(ds2, 4):
        paths = paths_from(ds2, w, 4)
        canon = {}
        for q in paths:
            c = exchange_canonical(q, ds2)
            assert exchange_canonical(c, ds2) == c
            canon[q.steps] = c
        index = {q.steps: i for i, q in enumerate(paths)}
        parent = list(range(len(paths)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, q in enumerate(paths):
            for new_path, cell in rewrite_moves(ds2, q):
                if cell.inst.exch is None:
                    continue
                j = index.get(new_path.steps)
                if j is not None:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[max(ri, rj)] = min(ri, rj)
        groups = {}
        for i, q in enumerate(paths):
            groups.setdefault(find(i), set()).add(q.steps)
        fibers = {}
        for q in paths:
            fibers.setdefault(canon[q.steps].steps, set()).add(q.steps)
        assert {frozenset(g) for g in groups.values()} == {
            frozenset(f) for f in fibers.values()
        }


def test_cells_equal_alpha(ds2):
    p1 = parse_path("[m]a ; [m]", ds2)
    p2 = parse_path("a[m] ; [m]", ds2)
    trace = search_trace(ds2, p1, p2)
    assert trace is not None
    assert len(trace.cells) == 1 and trace.cells[0].inst.name == "alpha"


def test_cells_equal_self(ds2):
    p1 = parse_path("[m]a ; [m]", ds2)
    trace = search_trace(ds2, p1, p1)
    assert trace is not None and trace.cells == ()


def test_cells_equal_insensitive_to_exchange_variants(ds2):
    p1 = parse_path("[m]a ; [m]", ds2)
    p2 = parse_path("a[m] ; [m]", ds2)
    # exchange variants do not exist for these, but wrapping in context does
    from cohpres.core import tensor_ctx

    q1 = tensor_ctx(ds2, ("b",), p1, ("b",))
    q2 = tensor_ctx(ds2, ("b",), p2, ("b",))
    assert search_trace(ds2, q1, q2) is not None


def test_cells_equal_budget_negative(huet):
    loc_gg = parse_path("[g] ; [g']", huet)
    idx = huet.identity(("x",))
    assert search_trace(huet, loc_gg, idx, budget=5_000, max_cells=8) is None


def test_hom_classes_counts(ds2):
    assert enumerate_hom_classes(tuple("aaa"), tuple("aa"), ds2, 3).count == 2
    assert enumerate_hom_classes(tuple("aaa"), tuple("a"), ds2, 3).count == 1
    h = enumerate_hom_classes(tuple("ab"), tuple("ab"), ds2, 3)
    assert h.count == 1 and h.classes[0][0].steps == ()


def test_hom_count_builds_no_path(ds2):
    # compare reads only counts; the classes' paths are built when read
    h = enumerate_hom_classes(tuple("aaaaabbbb"), tuple("aaabb"), ds2, 5)
    assert h.count == 18 and "classes" not in vars(h)
    assert [len(c) for c in h.classes] == [24] * 18 and "classes" in vars(h)


def test_hom_classes_monotone_in_bound(ds2):
    prev = 0
    for bound in (1, 2, 3, 4, 5):
        count = enumerate_hom_classes(tuple("aaab"), tuple("aab"), ds2, bound).count
        assert count >= prev
        prev = count
    assert prev == 2  # stabilizes at the surjection count


def test_hom_explosion_guard(ds2):
    with pytest.raises(ExplosionError):
        enumerate_hom_classes(tuple("aaaaaa"), tuple("a"), ds2, 6, guard=10)


def test_hom_guard_counts_every_generated_path(ds2):
    # 86 paths of at most 3 steps leave aaaaaa, the empty one included
    with pytest.raises(ExplosionError, match="exceeded 85 paths"):
        enumerate_hom_classes(tuple("aaaaaa"), ("a",), ds2, 3, guard=85)
    assert enumerate_hom_classes(tuple("aaaaaa"), ("a",), ds2, 3, guard=86).count == 0


def test_surjection_counts():
    assert surjection_count((3, 0), (1, 0)) == 1
    assert surjection_count((3, 0), (2, 0)) == 2
    assert surjection_count((2, 2), (1, 1)) == 1
    for pq in [(0, 0), (1, 0), (2, 1), (3, 2)]:
        assert surjection_count(pq, pq) == 1
    assert surjection_count((1, 0), (2, 0)) == 0


def test_search_trace_requires_parallel(ds2):
    p1 = parse_path("[m]a", ds2)
    p2 = parse_path("a[m]", ds2)
    with pytest.raises(Exception):
        search_trace(ds2, p1, parse_path("[m]a ; [m]", ds2))
    # the parallel single steps realize different surjections: no relation
    # merges them (this is why hom(aaa, aa) has two classes)
    assert search_trace(ds2, p1, p2) is None


def test_oracle_residual_unit_cases(ds2, ds2_table):
    g = parse_path("[n]aa ; b[m]", ds2)
    ident = ds2.identity(g.source)
    assert oracle_residual_pair(g, ident, ds2) == (g, ds2.identity(ds2.path_target(g)))


def test_compare_ds2(ds2):
    rep = compare_constructions(ds2, max_word=4, max_steps=5, oracle_family="ds2")
    assert rep["verdict"] == "equal"
    table = {(e["src"], e["tgt"]): e for e in rep["pairs"]}
    assert table[("aaa", "aa")]["nf_classes"] == 2
    assert table[("aabb", "ab")]["nf_classes"] == 1
    assert rep["fractions"]["checked"] >= 20
    assert rep["fractions"]["agreed"] == rep["fractions"]["checked"]


def test_compare_huet(huet):
    rep = compare_constructions(huet, max_word=1, max_steps=8)
    assert rep["verdict"] == "unequal"
    xx = [e for e in rep["pairs"] if e["src"] == "x" and e["tgt"] == "x"][0]
    assert xx["quotient_classes"] == 1
    assert xx["localization_classes"] >= 2
    assert xx["mismatch"] == "quotient != localization"


def test_compare_no_equational(deltas):
    rep = compare_constructions(deltas, max_word=3, max_steps=4)
    assert rep["verdict"] == "equal"


def test_cells_equal_stable_under_exchange_variants(ds2):
    # if p1 <=>* p2 then any single-exchange variant of p1 is still <=>* p2
    p1 = parse_path("[m]bb ; a[n]", ds2)
    variants = [
        q for q, cell in rewrite_moves(ds2, p1) if cell.inst.exch is not None
    ]
    assert variants
    for q in variants:
        assert search_trace(ds2, p1, q, budget=20_000) is not None


def test_identity_on_empty_word(ds2):
    from cohpres.core import parse_path

    ident = parse_path("id 0", ds2)
    assert ident.source == () and ident.steps == ()
    h = enumerate_hom_classes((), (), ds2, 3)
    assert h.count == 1


# ---------------------------------------------------------------------------
# window matching against the slice-and-whisker matcher
#
# The reference slices each candidate sub-path out of the path and compares
# it with the relation side whiskered by the candidate's contexts; exchanges
# are read off the words around the two steps (``whisker_exchange``).


def slice_rewrite_moves(p, path):
    out = []
    words = p.path_words(path)
    n = len(path.steps)
    for rel in p.relations:
        for fwd, lhs, rhs in ((True, rel.lhs, rel.rhs), (False, rel.rhs, rel.lhs)):
            k = len(lhs.steps)
            if k == 0:
                w0 = lhs.source
                for i in range(n + 1):
                    w = words[i]
                    for cut in range(len(w) - len(w0) + 1):
                        if w[cut : cut + len(w0)] != w0:
                            continue
                        x, y = w[:cut], w[cut + len(w0) :]
                        inst = RelationInstance(x, y, fwd, name=rel.name)
                        new_steps = (
                            path.steps[:i]
                            + tensor_ctx(p, x, rhs, y).steps
                            + path.steps[i:]
                        )
                        out.append((Path(path.source, new_steps), Move(i, inst)))
                continue
            l0 = lhs.steps[0]
            for i in range(n - k + 1):
                s0 = path.steps[i]
                if s0.gen != l0.gen:
                    continue
                dl = len(s0.left) - len(l0.left)
                dr = len(s0.right) - len(l0.right)
                if dl < 0 or dr < 0:
                    continue
                if s0.left[dl:] != l0.left or s0.right[: len(l0.right)] != l0.right:
                    continue
                x = s0.left[:dl]
                y = s0.right[len(l0.right) :]
                seg = tensor_ctx(p, x, lhs, y)
                if path.steps[i : i + k] != seg.steps:
                    continue
                inst = RelationInstance(x, y, fwd, name=rel.name)
                new_steps = (
                    path.steps[:i] + tensor_ctx(p, x, rhs, y).steps + path.steps[i + k :]
                )
                out.append((Path(path.source, new_steps), Move(i, inst)))
    if p.mode == "monoidal":
        for i in range(n - 1):
            swap = whisker_exchange(p, path.steps[i], path.steps[i + 1])
            if swap is not None:
                t_back, s_after, inst = swap
                new_steps = path.steps[:i] + (t_back, s_after) + path.steps[i + 2 :]
                out.append((Path(path.source, new_steps), Move(i, inst)))
    return out


def whisker_exchange(p, s, t):
    """The swap of consecutive steps s;t as ``(t', s', cell)``, from words:
    t acts inside the context left of what s wrote, or inside the context
    right of it; None when it touches it.  Where both act on no letters at
    the same gap they do not commute."""
    (src_s, tgt_s), (src_t, tgt_t) = ((p.gen(g).source, p.gen(g).target) for g in (s.gen, t.gen))
    a_s, at = len(s.left), len(t.left)
    if not src_t and not tgt_s and at == a_s:
        return None
    if at + len(src_t) <= a_s:  # s.left = t.left + src_t + mid
        mid = s.left[at + len(src_t) :]
        t_back = RewriteStep(t.left, t.gen, mid + src_s + s.right)
        s_after = RewriteStep(t.left + tgt_t + mid, s.gen, s.right)
        return t_back, s_after, RelationInstance(t.left, s.right, False, exch=(t.gen, mid, s.gen))
    if at >= a_s + len(tgt_s):  # t.left = s.left + tgt_s + mid
        mid = t.left[a_s + len(tgt_s) :]
        t_back = RewriteStep(s.left + src_s + mid, t.gen, t.right)
        s_after = RewriteStep(s.left, s.gen, mid + tgt_t + t.right)
        return t_back, s_after, RelationInstance(s.left, t.right, True, exch=(s.gen, mid, t.gen))
    return None


def _presentation(name):
    """A corpus file, or huet's quotient or localization presentation."""
    if name in ("huet-quotient", "huet-localization"):
        huet = load("huet")
        if name == "huet-quotient":
            return con.quotient_presentation(huet)
        return con.localization_presentation(huet, set(huet.equational_names))
    return load(name)


def _sources(p, max_word):
    return all_words(p, max_word) if p.mode == "monoidal" else [(o,) for o in p.objects]


PRESENTATIONS = ("ds2", "ds2op", "deltas", "huet", "huet-quotient", "huet-localization")


@pytest.mark.parametrize("name", PRESENTATIONS)
def test_window_matching_equals_slicing_on_short_paths(name):
    # every path of at most 3 steps from every word of at most 4 letters;
    # huet and its localization are the presentations with relation sides
    # of no steps
    p = _presentation(name)
    compared = moves = 0
    for w in _sources(p, 4):
        for q in paths_from(p, w, 3):
            got = rewrite_moves(p, q)
            assert got == slice_rewrite_moves(p, q), p.fmt_path(q)
            compared += 1
            moves += len(got)
    floor = {"ds2": 128, "ds2op": 7224, "deltas": 20, "huet": 8}
    assert moves >= floor.get(name, 200)


@settings(max_examples=300)
@given(
    name=st.sampled_from(PRESENTATIONS),
    word=st.lists(st.integers(0, 3), max_size=7),
    choices=st.lists(st.integers(0, 50), max_size=6),
)
def test_window_matching_equals_slicing_on_random_paths(name, word, choices):
    p = _presentation(name)
    objs = p.objects
    w = tuple(objs[i % len(objs)] for i in word)
    if p.mode == "path":
        w = w[:1] or objs[:1]
    src, steps = w, []
    for c in choices:
        here = steps_on(w, p)
        if not here:
            break
        s = here[c % len(here)]
        steps.append(s)
        w = p.step_target(s)
    q = Path(src, tuple(steps))
    assert rewrite_moves(p, q) == slice_rewrite_moves(p, q)


# ---------------------------------------------------------------------------
# one walk per source


def slice_hom_partition(p, paths, moves):
    """The hom classes of ``paths``, all from one source in walk order, by
    target: merged along ``moves`` (``slice_rewrite_moves`` of each path, by
    steps) by a union-find of its own.  Each class keeps walk order, and the
    classes come in order of their first member."""
    index = {q.steps: i for i, q in enumerate(paths)}
    parent = list(range(len(paths)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, q in enumerate(paths):
        for new_path, _move in moves[q.steps]:
            j = index.get(new_path.steps)
            if j is not None:
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    by_tgt = {}
    for i, q in enumerate(paths):
        by_tgt.setdefault(p.path_target(q), {}).setdefault(find(i), []).append(q)
    return {t: list(groups.values()) for t, groups in by_tgt.items()}


def _compare_walks(p, max_word):
    """The (presentation, source, targets) walks of ``compare_constructions``."""
    if p.mode == "monoidal":
        normals = tuple(normal_words(p, max_word))
        return [(p, u, normals) for u in normals]
    quot = con.quotient_presentation(p)
    loc = con.localization_presentation(p, set(p.equational_names))
    rep_of = con.quotient_class_map(p)
    objs = tuple((v,) for v in p.objects)
    normals = tuple(v for v in objs if v in set(normal_words(p, max_word)))
    walks = []
    for u in objs:
        walks.append((quot, (rep_of[u[0]],), tuple((rep_of[v],) for v in p.objects)))
        walks.append((loc, u, objs))
        if u in normals:
            walks.append((p, u, normals))
    return walks


@pytest.mark.parametrize(
    "name, max_word, bound", [("ds2", 3, 4), ("ds2op", 2, 3), ("deltas", 3, 3), ("huet", 1, 6)]
)
def test_partition_equals_per_target_enumeration(name, max_word, bound):
    p = load(name)
    pairs = 0
    for pres, u, tgts in _compare_walks(p, max_word):
        homs = _hom_partition(u, tgts, pres, bound)
        assert list(homs) == list(dict.fromkeys(tgts))
        paths = paths_from(pres, u, bound)
        moves = {q.steps: slice_rewrite_moves(pres, q) for q in paths}
        want = slice_hom_partition(pres, paths, moves)
        for v in tgts:
            h = enumerate_hom_classes(u, v, pres, bound)
            assert homs[v] == h
            assert {frozenset(q.steps for q in c) for c in h.classes} == {
                frozenset(q.steps for q in g) for g in want.get(v, ())
            }
            pairs += 1
    assert pairs >= 16


def test_partition_guard_counts_every_generated_path(ds2):
    # 86 paths of at most 3 steps leave aaaaaa, whatever the targets
    tgts = (("a", "a"), ("a",), tuple("aaa"))
    with pytest.raises(ExplosionError, match="exceeded 85 paths for aaaaaa -> aa$"):
        _hom_partition(tuple("aaaaaa"), tgts, ds2, 3, guard=85)
    homs = _hom_partition(tuple("aaaaaa"), tgts, ds2, 3, guard=86)
    assert list(homs.values()) == [
        enumerate_hom_classes(tuple("aaaaaa"), v, ds2, 3, guard=86) for v in tgts
    ]
    assert homs[tuple("aaa")].count == 10


# ---------------------------------------------------------------------------
# the positional partition against the slicing partition, on more inputs


def _differential_cases():
    for name in PRESENTATIONS:
        p = _presentation(name)
        yield name, p, _sources(p, 3), 4
    rng = random.Random(11)
    for i in range(150):
        p = random_presentation(rng, "path" if i % 3 == 0 else "monoidal")
        yield f"random {i}", p, _sources(p, 2), 2


def test_partition_equals_slice_partition():
    # every target of every source: the classes as keys in walk order, and
    # as the sorted paths that ``classes`` builds; the partition matches each
    # relation forward only, so a side that the matcher misses backward
    # shows only in ``rewrite_moves``
    calls = classes = 0
    for name, p, sources, bound in _differential_cases():

        def order(q):
            return len(q.steps), p.fmt_path(q)

        for u in sources:
            paths = paths_from(p, u, bound)
            moves = {q.steps: slice_rewrite_moves(p, q) for q in paths}
            for q in paths:
                assert rewrite_moves(p, q) == moves[q.steps], (name, p.fmt_path(q))
            want = slice_hom_partition(p, paths, moves)
            homs = _hom_partition(u, tuple(want), p, bound)
            assert list(homs) == list(want)
            for v, groups in want.items():
                h, where = homs[v], (name, p.fmt_word(u), p.fmt_word(v))
                flat = [[tuple(x for s in q.steps for x in position(s)) for q in g] for g in groups]
                assert h.keys == tuple(map(tuple, flat)), where
                assert h.classes == tuple(
                    tuple(sorted(g, key=order)) for g in sorted(groups, key=lambda g: order(g[0]))
                ), where
                classes += h.count
            calls += 1
    assert (calls, classes) == (895, 15202)


def test_forward_sides_partition_as_both_directions():
    # the walk matches each relation forward only: the window that a backward
    # match finds on a path B is found forward on the path A it gives, and
    # both are members when both fit the bound
    calls = 0
    for name, p, sources, bound in _differential_cases():
        both = _compile_sides(p)
        for u in sources:
            members: dict = {}
            for q in paths_from(p, u, bound):
                key = tuple(x for s in q.steps for x in position(s))
                members.setdefault(p.path_target(q), []).append((key, tuple(p.path_words(q))))
            homs = _hom_partition(u, tuple(members), p, bound)
            for v, ms in members.items():
                assert homs[v].keys == _classes(p, both, ms, bound), (name, u, v)
            calls += 1
    assert calls == 895


# ---------------------------------------------------------------------------
# exchanges at a gap


def test_exchange_side_at_a_gap():
    # t' and s start at the same gap when s has an empty source and t is
    # zero-width, so only t's interval before the swap says which is left
    p = parse_presentation("mode monoidal\nobjects a b\neqgen f : 0 -> 0\neqgen k : 0 -> b b\n")
    cells = {}
    for text in ("[k]a ; bb[f]a", "[k]a ; [f]bba", "a[k] ; abb[f]", "a[k] ; a[f]bb"):
        path = parse_path(text, p)
        for new, move in rewrite_moves(p, path):
            assert check_trace(p, trace_from_moves(p, path, (move,))) == new
            cells[text] = p.fmt_instance(move.inst)
    assert cells == {
        "[k]a ; bb[f]a": "(exch(k,0,f))a",
        "[k]a ; [f]bba": "(~exch(f,0,k))a",
        "a[k] ; abb[f]": "a(exch(k,0,f))",
        "a[k] ; a[f]bb": "a(~exch(f,0,k))",
    }
    # the 5th seeded random presentation has both generators; its base
    # records used to raise from the top search's exchange moves
    rng = random.Random(11)
    fifth = [random_presentation(rng, "path" if i % 3 == 0 else "monoidal") for i in range(5)][4]
    assert [g.name for g in fifth.generators if g.equational] == ["f", "k"]
    assert len(CheckContext(fifth).base_records) == 22050
