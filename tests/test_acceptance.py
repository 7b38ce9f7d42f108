"""Acceptance criteria, one test per criterion.

Each test prints a single pass line (visible with ``pytest -s`` or in the
captured output summary); failures surface as ordinary assertion errors.
"""

from __future__ import annotations

import time

from cohpres.coherence import CheckContext, check_all, eval_weight, weight_less, weight_of_path
from cohpres.constructions import (
    localization_presentation,
    nf_functor_apply,
    quotient_presentation,
)
from cohpres.core import compose, parse_path, position
from cohpres.critical import enumerate_critical_cylinders, enumerate_critical_pairs
from cohpres.objects import normalize, steps_on, transposition_number
from cohpres.oracle import (
    enumerate_hom_classes,
    exchange_canonical,
    oracle_residual_pair,
    rewrite_moves,
    search_trace,
    surjection_count,
)
from cohpres.residuation import Residuator, tile_key

from conftest import all_words, paths_from, tile_paths


def _ok(criterion: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: PASS" + (f"  [{detail}]" if detail else ""))


def test_criterion_1_residual_table_ds2(ds2, ds2_table):
    """The four equalities of the ds2 residual table, byte-exact."""
    ga = parse_path("[g]a", ds2).steps[0]
    bm = parse_path("b[m]", ds2).steps[0]
    bg = parse_path("b[g]", ds2).steps[0]
    na = parse_path("[n]a", ds2).steps[0]
    e1 = ds2_table.entries[tile_key(position(ga), position(bm))]
    e2 = ds2_table.entries[tile_key(position(bg), position(na))]
    (bm_ga, ga_bm), (na_bg, bg_na) = tile_paths(ds2, e1), tile_paths(ds2, e2)
    assert ds2.fmt_path(bm_ga) == "a[g] ; [m]b"
    assert ds2.fmt_path(ga_bm) == "[g]"
    assert ds2.fmt_path(na_bg) == "[g]b ; a[n]"
    assert ds2.fmt_path(bg_na) == "[g]"
    assert len(ds2_table.entries) == 2
    _ok("1 residual-table-ds2")


def test_criterion_2_path_residuation_ds2(ds2, ds2_table):
    """Known residual values reproduced; the exchange-variant residual is
    computed by the independent tile-search oracle first and the main
    implementation must match it."""
    res = Residuator(ds2, ds2_table)
    bga = parse_path("b[g]a", ds2)
    f = parse_path("[n]aa ; b[m]", ds2)
    gf, fg = res.pair(f, bga)
    assert ds2.fmt_path(gf) == "[g]ba ; a[n]a ; a[g] ; [m]b"
    assert ds2.fmt_path(fg) == "[g]"
    fp = parse_path("bb[m] ; [n]a", ds2)
    oracle_gf, oracle_fg = oracle_residual_pair(fp, bga, ds2, depth=64)
    assert ds2.fmt_path(oracle_gf) == "ba[g] ; b[m]b ; [g]b ; a[n]"
    assert res.pair(fp, bga) == (oracle_gf, oracle_fg)
    _ok("2 path-residuation-ds2")


def test_criterion_3_critical_enumeration(ds2, ds2_table, ds2op, ds2op_table):
    t0 = time.perf_counter()
    pairs = enumerate_critical_pairs(ds2, ds2_table)
    cyls = enumerate_critical_cylinders(ds2, ds2_table)
    dt1 = time.perf_counter() - t0
    assert len(pairs) == 2 and len(cyls) == 3
    t0 = time.perf_counter()
    cyls_op = enumerate_critical_cylinders(ds2op, ds2op_table)
    dt2 = time.perf_counter() - t0
    assert len(cyls_op) == 1
    assert dt1 < 10 and dt2 < 10
    _ok("3 critical-enumeration", f"ds2 {dt1:.2f}s, ds2op {dt2:.2f}s")


def test_criterion_4_coherence_verdicts(ds2, ds2op, huet, deltas):
    rep = check_all(CheckContext(ds2), run_opposite=False)
    assert rep.coherent == "pass"
    assert all(v.status == "pass" for v in rep.assumptions.values())

    strict = check_all(CheckContext(ds2op), run_opposite=False)
    assert strict.assumptions["a3"].status == "fail"
    assert any("exch(m,0,n)" in w for w in strict.assumptions["a3"].witnesses)

    strong = check_all(
        CheckContext(ds2op), a3_mode="up_to_exchange", strong=True, run_opposite=False
    )
    assert strong.coherent == "pass"

    weak = check_all(
        CheckContext(ds2op), a3_mode="up_to_exchange", strong=False, run_opposite=False
    )
    assert weak.assumptions["a4"].status == "fail"
    assert any(
        "omega2(ab(exch(g,0,g))) = (0, 1) !> (0, 2) = omega2(aab(exch(g,0,g)))" in w
        for w in weak.assumptions["a4"].witnesses
    )

    hrep = check_all(CheckContext(huet), run_opposite=False)
    assert hrep.assumptions["a1"].status == "fail"
    assert any("x -> y -> x" in w for w in hrep.assumptions["a1"].witnesses)

    drep = check_all(CheckContext(deltas), run_opposite=False)
    assert drep.coherent == "pass"
    assert "vacuous" in drep.assumptions["a2"].note
    _ok("4 coherence-verdicts")


def test_criterion_5_transposition_and_weights(ds2):
    assert transposition_number(tuple("babbaa"), "b", "a") == 7
    w1 = ds2.weights["omega1"]
    bm = parse_path("b[m]", ds2).steps[0]
    heavy = eval_weight(w1, bm, ds2)
    light = weight_of_path(w1, parse_path("a[g] ; [m]b", ds2), ds2)
    assert heavy == (1, 0) and light == (0, 0)
    assert weight_less(w1, light, heavy)
    _ok("5 transposition-and-weights")


def test_criterion_6_three_way_comparison(ds2, ds2_table, huet):
    # NF hom-class counts = monotone-surjection products on all normal pairs
    words = {}
    for pq in [(p, q) for p in range(5) for q in range(5) if p + q <= 4]:
        words[pq] = ("a",) * pq[0] + ("b",) * pq[1]
    for pq, u in sorted(words.items()):
        for rs, v in sorted(words.items()):
            got = enumerate_hom_classes(u, v, ds2, 5).count
            assert got == surjection_count(pq, rs), (pq, rs)
    assert enumerate_hom_classes(("a",) * 3, ("a",) * 2, ds2, 5).count == 2
    assert enumerate_hom_classes(tuple("aabb"), tuple("ab"), ds2, 5).count == 1

    # fraction equality agrees with normal-form image equality on >= 20 pairs
    from cohpres.constructions import sample_fraction_agreement
    from cohpres.oracle import normal_words

    agreement = sample_fraction_agreement(ds2, ds2_table, normal_words(ds2, 4), 5, 20)
    assert agreement["checked"] >= 20
    assert agreement["agreed"] == agreement["checked"]

    # huet at budget 8: quotient hom(x,x) is trivial, localization is not
    quot = quotient_presentation(huet)
    loc = localization_presentation(huet, {"g", "g'"})
    assert enumerate_hom_classes(("x",), ("x",), quot, 8).count == 1
    assert enumerate_hom_classes(("x",), ("x",), loc, 8).count >= 2
    _ok("6 three-way-comparison")


def test_criterion_7_property_suites(ds2, ds2_table):
    # 7a: residual unit and pasting laws on ds2 path pairs of length <= 3
    t0 = time.perf_counter()
    res = Residuator(ds2, ds2_table)
    for w in [x for x in all_words(ds2, 4) if len(x) >= 2]:
        eq_paths = [q for q in paths_from(ds2, w, 3) if ds2.is_equational_path(q)]
        any_paths = paths_from(ds2, w, 3)
        ident = ds2.identity(w)
        for g in any_paths:
            assert res.pair(g, ident)[0] == g
        for f in eq_paths:
            assert res.pair(f, f) == (
                ds2.identity(ds2.path_target(f)),
                ds2.identity(ds2.path_target(f)),
            )
            for g in any_paths:
                gf, fg = res.pair(g, f)
                for cut in (1, len(g.steps) - 1):
                    if not 0 < cut < len(g.steps):
                        continue
                    g1 = type(g)(g.source, g.steps[:cut])
                    g2 = type(g)(ds2.path_target(g1), g.steps[cut:])
                    g1f, fg1 = res.pair(g1, f)
                    assert compose(ds2, g1f, res.pair(g2, fg1)[0]) == gf
                for cut in (1, len(f.steps) - 1):
                    if not 0 < cut < len(f.steps):
                        continue
                    f1 = type(f)(f.source, f.steps[:cut])
                    f2 = type(f)(ds2.path_target(f1), f.steps[cut:])
                    assert res.pair(res.pair(g, f1)[0], f2)[0] == gf
    dt_a = time.perf_counter() - t0
    assert dt_a < 60

    # 7b: N functoriality on the same fragment
    t0 = time.perf_counter()
    for src in (tuple("baa"), tuple("bba"), tuple("bbaa")):
        for f in paths_from(ds2, src, 2):
            mid = ds2.path_target(f)
            for g in paths_from(ds2, mid, 1):
                left = nf_functor_apply(compose(ds2, f, g), ds2, ds2_table)
                right = compose(
                    ds2,
                    nf_functor_apply(f, ds2, ds2_table),
                    nf_functor_apply(g, ds2, ds2_table),
                )
                assert search_trace(ds2, left, right, budget=30_000) is not None
    dt_b = time.perf_counter() - t0
    assert dt_b < 60

    # 7c: exchange canonical idempotence and fiber correctness at length <= 4
    t0 = time.perf_counter()
    for w in all_words(ds2, 4):
        paths = paths_from(ds2, w, 4)
        canonical = {}
        for q in paths:
            c = exchange_canonical(q, ds2)
            assert exchange_canonical(c, ds2) == c
            canonical[q.steps] = c.steps
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
                if j is not None and find(i) != find(j):
                    parent[max(find(i), find(j))] = min(find(i), find(j))
        closure = {}
        for i, q in enumerate(paths):
            closure.setdefault(find(i), set()).add(q.steps)
        fibers = {}
        for q in paths:
            fibers.setdefault(canonical[q.steps], set()).add(q.steps)
        assert {frozenset(x) for x in closure.values()} == {
            frozenset(x) for x in fibers.values()
        }
    dt_c = time.perf_counter() - t0
    assert dt_c < 60

    # 7d: normalize idempotence and strategy independence at word length <= 6
    t0 = time.perf_counter()
    memo: dict = {}

    def endpoints(w):
        if w in memo:
            return memo[w]
        succ = steps_on(w, ds2, equational=True)
        if not succ:
            memo[w] = {w}
            return memo[w]
        acc = set()
        for s in succ:
            acc |= endpoints(ds2.step_target(s))
        memo[w] = acc
        return acc

    for w in all_words(ds2, 6):
        nf = normalize(w, ds2).normal
        assert normalize(nf, ds2).path.steps == ()
        assert endpoints(w) == {nf}
    dt_d = time.perf_counter() - t0
    assert dt_d < 60

    # 7e: report determinism across two runs
    t0 = time.perf_counter()
    from cohpres.coherence import report_to_dict

    r1 = report_to_dict(check_all(CheckContext(ds2), run_opposite=False), ds2)
    r2 = report_to_dict(check_all(CheckContext(ds2), run_opposite=False), ds2)
    assert r1 == r2
    dt_e = time.perf_counter() - t0
    assert dt_e < 60
    _ok(
        "7 property-suites",
        f"laws {dt_a:.1f}s, functor {dt_b:.1f}s, exchange {dt_c:.1f}s, "
        f"normalize {dt_d:.1f}s, determinism {dt_e:.1f}s",
    )
