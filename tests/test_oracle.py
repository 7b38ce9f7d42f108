from __future__ import annotations

import pytest

from cohpres.core import check_trace, parse_path, trace_from_moves
from cohpres.oracle import (
    ExplosionError,
    canonical_with_trace,
    compare_constructions,
    enumerate_hom_classes,
    exchange_canonical,
    oracle_residual_pair,
    rewrite_moves,
    search_trace,
    surjection_count,
)
from cohpres.residuation import Residuator

from conftest import all_words, paths_from


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
