"""Cross-cutting properties beyond the per-module tests."""

from __future__ import annotations

import pytest

from cohpres.core import ParseError, TypeCheckError, parse_path, parse_presentation
from cohpres.oracle import (
    enumerate_hom_classes,
    exchange_canonical,
    rewrite_moves,
    search_trace,
)
from cohpres.residuation import Residuator

from conftest import all_words, paths_from, random_presentation


def test_residuation_compatible_with_exchange_on_ds2op(ds2op, ds2op_table):
    # with the up-to-exchange cylinder property verified, residuals of
    # exchange-equivalent inputs are exchange-equivalent
    res = Residuator(ds2op, ds2op_table)
    words = [w for w in all_words(ds2op, 3) if len(w) >= 2]
    checked = 0
    for w in words:
        eqs = [
            q
            for q in paths_from(ds2op, w, 2)
            if q.steps and ds2op.is_equational_path(q)
        ]
        anys = paths_from(ds2op, w, 3)[:60]
        for f in eqs:
            for g in anys:
                base = exchange_canonical(res.pair(g, f)[0], ds2op)
                for g2, cell in rewrite_moves(ds2op, g):
                    if cell.inst.exch is None:
                        continue
                    assert exchange_canonical(res.pair(g2, f)[0], ds2op) == base
                    checked += 1
                for f2, cell in rewrite_moves(ds2op, f):
                    if cell.inst.exch is None:
                        continue
                    assert exchange_canonical(res.pair(g, f2)[0], ds2op) == base
                    checked += 1
    assert checked > 50


UNIT_PRESENTATION = """
mode monoidal
objects a
gen e : 0 -> a
gen m : a a -> a
rel assoc : [m]a ; [m] => a[m] ; [m]
rel unitl : [e]a ; [m] => id a
rel unitr : a[e] ; [m] => id a
"""


def test_unit_generators_parse_and_rewrite():
    p = parse_presentation(UNIT_PRESENTATION)
    e_left = parse_path("[e]a", p)
    assert e_left.source == ("a",) and p.path_target(e_left) == ("a", "a")
    # hom(a, a) collapses to the identity once units cancel
    h = enumerate_hom_classes(("a",), ("a",), p, 2, guard=50_000)
    assert h.count == 1


def test_unit_generator_exchange_canonical():
    p = parse_presentation(UNIT_PRESENTATION)
    # two unit insertions at independent positions commute
    left_first = parse_path("[e]a ; aa[e]", p)
    right_first = parse_path("a[e] ; [e]aa", p)
    assert p.path_target(left_first) == ("a", "a", "a")
    assert exchange_canonical(left_first, p) == exchange_canonical(right_first, p)
    assert search_trace(p, left_first, right_first, budget=5_000) is not None


def test_unit_insertion_inside_core_not_independent():
    p = parse_presentation(UNIT_PRESENTATION)
    # inserting strictly inside m's active factor does not commute with it
    inside = parse_path("a[e]a ; [m]a", p)
    assert p.path_target(inside) == ("a", "a")
    moves = [c for _, c in rewrite_moves(p, inside) if c.inst.exch is not None]
    assert moves == []
    # at the factor boundary the insertion does commute
    boundary = parse_path("aa[e] ; [m]a", p)
    moves = [c for _, c in rewrite_moves(p, boundary) if c.inst.exch is not None]
    assert len(moves) == 1


def test_parse_error_carries_line_number():
    bad = "mode monoidal\nobjects a\ngen m : a a ->\n"
    with pytest.raises(ParseError) as exc:
        parse_presentation(bad)
    assert exc.value.line == 3
    bad2 = "mode monoidal\nobjects a\ngen m : a a -> a\nrel r : [m] => [q]\n"
    with pytest.raises((ParseError, TypeCheckError)) as exc2:
        parse_presentation(bad2)
    assert "q" in str(exc2.value)


def test_weight_block_multiline_and_roundtrip(ds2):
    from cohpres.core import print_presentation

    text = print_presentation(ds2)
    assert parse_presentation(text).weights == ds2.weights


def test_hom_counts_plateau(ds2):
    # class counts stabilize once the bound covers the fragment
    c5 = enumerate_hom_classes(tuple("aabb"), tuple("ab"), ds2, 5).count
    c6 = enumerate_hom_classes(tuple("aabb"), tuple("ab"), ds2, 6).count
    assert c5 == c6 == 1


COLLAPSE = """
# a coherent path-mode presentation: u collapses x onto y
mode path
objects x y z
eqgen u  : x -> y
gen   f  : x -> z
gen   f' : y -> z
rel t1 : [u] ; [f'] => [f]
weight omega1 on steps order lex dim 1 { f -> (1)  f' -> (0)  u -> (0) }
weight omega2 on rels order lex dim 1 { t1 -> (1) }
"""


def test_coherent_path_mode_presentation():
    from cohpres.coherence import CheckContext, check_all
    from cohpres.oracle import compare_constructions
    from cohpres.residuation import Residuator, derive_residual_table

    p = parse_presentation(COLLAPSE)
    rep = check_all(CheckContext(p))
    assert rep.coherent == "pass"
    assert rep.faithful_embedding == "pass"
    cmp_rep = compare_constructions(p, max_word=1, max_steps=6)
    assert cmp_rep["verdict"] == "equal"
    # residual of f after u is f', witnessed by t1
    table = derive_residual_table(p)
    res = Residuator(p, table)
    f = parse_path("[f]", p)
    u = parse_path("[u]", p)
    gf, fg, trace = res.pair_with_witness(f, u)
    assert p.fmt_path(gf) == "[f']" and fg.steps == ()
    assert len(trace.cells) == 1 and trace.cells[0].inst.name == "t1"


def test_ds2op_faithful_probe_inconclusive(ds2op):
    from cohpres.coherence import CheckContext, check_all

    rep = check_all(CheckContext(ds2op), a3_mode="up_to_exchange", strong=True)
    assert rep.coherent == "pass"
    # the carried-over weights do not dualize, so the probe stays inconclusive
    assert rep.faithful_embedding == "inconclusive"


def test_report_timings_opt_in(ds2):
    from cohpres.coherence import CheckContext, check_all, report_to_dict

    rep = check_all(CheckContext(ds2), run_opposite=False)
    with_t = report_to_dict(rep, ds2, include_timings=True)
    assert "timings" in with_t and with_t["timings"]


CYLINDER_PATH_MODE = """
# path-mode presentation with one genuine critical cylinder
mode path
objects x y z
eqgen u  : x -> y
gen   a1 : x -> z
gen   a2 : x -> z
gen   b1 : y -> z
gen   b2 : y -> z
rel t1  : [u] ; [b1] => [a1]
rel t2  : [u] ; [b2] => [a2]
rel e12 : [a1] => [a2]
rel eb  : [b1] => [b2]
weight omega1 on steps order lex dim 1 { u -> (0)  a1 -> (1)  a2 -> (1)  b1 -> (0)  b2 -> (0) }
weight omega2 on rels order lex dim 1 { t1 -> (0)  t2 -> (0)  e12 -> (1)  eb -> (0) }
"""


def test_path_mode_critical_cylinder_end_to_end():
    from cohpres.coherence import CheckContext, check_all
    from cohpres.critical import check_cylinder, enumerate_critical_cylinders
    from cohpres.residuation import Residuator, derive_residual_table

    p = parse_presentation(CYLINDER_PATH_MODE)
    table = derive_residual_table(p)
    cyls = enumerate_critical_cylinders(p, table)
    assert [(p.fmt_step(c.f), p.fmt_instance(c.base)) for c in cyls] == [("[u]", "(e12)")]
    v = check_cylinder(cyls[0].f, cyls[0].base, Residuator(p, table), 12, 50_000)
    assert v.residual_targets_equal == "equal"
    assert v.top is not None and len(v.top.cells) == 1
    assert v.top.cells[0].inst.name == "eb"
    rep = check_all(CheckContext(p))
    assert rep.coherent == "pass" and rep.faithful_embedding == "pass"


def test_fuzz_random_presentations_never_crash():
    # seeded sweep: parse/print round-trips, all checks complete with budgets,
    # reports are json-serializable and deterministic
    import json
    import random

    from cohpres.coherence import CheckContext, check_all, report_to_dict
    from cohpres.core import print_presentation, validate

    rng = random.Random(7)
    for i in range(20):
        mode = "path" if i % 3 == 0 else "monoidal"
        p = random_presentation(rng, mode)
        assert validate(p) == []
        assert parse_presentation(print_presentation(p)) == p
        rep = check_all(CheckContext(p, 300, 3, 6, 2000), run_opposite=False)
        d = report_to_dict(rep, p)
        json.dumps(d)
        rep2 = check_all(CheckContext(p, 300, 3, 6, 2000), run_opposite=False)
        assert report_to_dict(rep2, p) == d
