from __future__ import annotations

import random
from dataclasses import replace
from itertools import product
from operator import add
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohpres import coherence, oracle
from cohpres.cli import main
from cohpres.coherence import (
    CheckContext,
    WeightSpec,
    check_a1,
    check_a2,
    check_a3,
    check_a4,
    check_all,
    check_assumption,
    eval_weight,
    report_to_dict,
    weight_less,
    weight_of_path,
)
from cohpres.constructions import opposite
from cohpres.core import (
    Move,
    Path,
    RelationInstance,
    RewriteStep,
    WeightTerm,
    parse_path,
    parse_presentation,
    trace_from_moves,
)
from cohpres.critical import _proper_overlap
from cohpres.objects import steps_on, words_upto
from cohpres.oracle import search_trace
from cohpres.residuation import ResiduationError, Residuator

from conftest import ds_presentation, side_paths
from test_cli import NONCOFINAL

CORPUS = FsPath(__file__).resolve().parent.parent / "corpus"
DATA = FsPath(__file__).resolve().parent / "data"


def test_eval_weight_examples(ds2):
    w1 = ds2.weights["omega1"]
    bm = parse_path("b[m]", ds2).steps[0]
    assert eval_weight(w1, bm, ds2) == (1, 0)
    path = parse_path("a[g] ; [m]b", ds2)
    assert weight_of_path(w1, path, ds2) == (0, 0)
    assert weight_of_path(w1, ds2.identity(("a",)), ds2) == (0, 0)
    assert weight_less(w1, (0, 0), (1, 0))


def test_weight_additive(ds2):
    w1 = ds2.weights["omega1"]
    p1 = parse_path("[n]aa", ds2)
    p2 = parse_path("b[m]", ds2)
    from cohpres.core import compose

    total = weight_of_path(w1, compose(ds2, p1, p2), ds2)
    assert total == tuple(
        a + b for a, b in zip(weight_of_path(w1, p1, ds2), weight_of_path(w1, p2, ds2))
    )


def test_lex_order_compatible_with_addition():
    spec = WeightSpec("w", "steps", "lex", 3, {})
    rng = random.Random(1)
    for _ in range(200):
        x = tuple(rng.randrange(5) for _ in range(3))
        y = tuple(rng.randrange(5) for _ in range(3))
        a = tuple(rng.randrange(5) for _ in range(3))
        b = tuple(rng.randrange(5) for _ in range(3))
        if weight_less(spec, x, y):
            lhs = tuple(p + q + r for p, q, r in zip(a, x, b))
            rhs = tuple(p + q + r for p, q, r in zip(a, y, b))
            assert weight_less(spec, lhs, rhs)


def test_a1_verdicts(ds2, huet, deltas):
    assert check_a1(CheckContext(ds2)).status == "pass"
    v = check_a1(CheckContext(huet))
    assert v.status == "fail"
    assert any("x -> y -> x" in w for w in v.witnesses)
    assert check_a1(CheckContext(deltas)).status == "pass"


def test_a2_verdicts(ds2):
    assert check_a2(CheckContext(ds2)).status == "pass"
    zero = WeightSpec(
        "omega1",
        "steps",
        "lex",
        1,
        {g.name: (parse_zero(),) for g in ds2.generators},
    )
    zeroed = type(ds2)(
        ds2.mode, ds2.objects, ds2.generators, ds2.relations, {**ds2.weights, "omega1": zero}
    )
    v = check_a2(CheckContext(zeroed))
    assert v.status == "fail"
    # the tiles come first, in their fixed order, then the exchange residuals
    tiles = [
        "omega1 not decreasing on tile residual a[g] ; [m]b of b[m]: (0,) !< (0,)",
        "omega1 strictness lost under whiskering (0)...(a) of tile for b[m]: (0,) !< (0,)",
        "omega1 not decreasing on tile residual [g]b ; a[n] of [n]a: (0,) !< (0,)",
        "omega1 strictness lost under whiskering (0)...(a) of tile for [n]a: (0,) !< (0,)",
    ]
    exchanges = """
        ab[m] ba[m] [g]aa  [m]ab [m]ba aa[g]  aba[m] baa[m] [g]aaa  [m]aab [m]aba aaa[g]
        abb[m] bab[m] [g]baa  [m]bab [m]bba aab[g]  abaa[m] baaa[m] [g]aaaa
        [m]aaab [m]aaba aaaa[g]  abab[m] baab[m] [g]abaa  [m]abab [m]abba aaab[g]
        abba[m] baba[m] [g]baaa  [m]baab [m]baba aaba[g]  abbb[m] babb[m] [g]bbaa
        [m]bbab [m]bbba aabb[g]  ab[n] ba[n] [g]bb  [n]ab [n]ba bb[g]
        aba[n] baa[n] [g]abb  [n]aab [n]aba bba[g]  abb[n] bab[n] [g]bbb
        [n]bab [n]bba bbb[g]  abaa[n] baaa[n] [g]aabb  [n]aaab [n]aaba bbaa[g]
        abab[n] baab[n] [g]abbb  [n]abab [n]abba bbab[g]  abba[n] baba[n] [g]babb
        [n]baab [n]baba bbba[g]  abbb[n] babb[n] [g]bbbb  [n]bbab [n]bbba bbbb[g]
        ab[g] ba[g] [g]ba  [g]ab [g]ba ba[g]  aba[g] baa[g] [g]aba  [g]aab [g]aba baa[g]
        abb[g] bab[g] [g]bba  [g]bab [g]bba bab[g]  abaa[g] baaa[g] [g]aaba
        [g]aaab [g]aaba baaa[g]  abab[g] baab[g] [g]abba  [g]abab [g]abba baab[g]
        abba[g] baba[g] [g]baba  [g]baab [g]baba baba[g]  abbb[g] babb[g] [g]bbba
        [g]bbab [g]bbba babb[g]
    """.split()
    assert v.witnesses == tiles + [
        f"omega1 not decreasing on exchange residual {r} of {g} after {f}: (0,) !< (0,)"
        for r, g, f in zip(exchanges[::3], exchanges[1::3], exchanges[2::3])
    ]


def test_a2_exchange_residuals_move_past_a_shrinking_step():
    # [e] shortens the word, so a step right of it moves one letter left
    p = parse_presentation("mode monoidal\nobjects a b\neqgen e : a a -> a\ngen h : b -> b b\n")
    zero = WeightSpec("omega1", "steps", "lex", 1, {g.name: (parse_zero(),) for g in p.generators})
    v = check_a2(CheckContext(type(p)(p.mode, p.objects, p.generators, p.relations, {"omega1": zero})))
    lines = [w.split(" residual ")[1].split(":")[0] for w in v.witnesses]
    assert (v.status, len(lines)) == ("fail", 28)
    assert lines[:2] == ["a[e] of aa[e] after [e]aa", "[e]a of [e]aa after aa[e]"]
    assert lines[14:16] == ["a[h] of aa[h] after [e]b", "[h]a of [h]aa after b[e]"]


def parse_zero():
    from cohpres.core import WeightTerm

    return WeightTerm("const", (), 0)


def test_a2_vacuous_and_missing(deltas, ds2):
    assert check_a2(CheckContext(deltas)).status == "pass"
    stripped = type(ds2)(ds2.mode, ds2.objects, ds2.generators, ds2.relations, {})
    assert check_a2(CheckContext(stripped)).status == "inconclusive"


def test_a3_strict_pass_ds2(ds2):
    ctx = CheckContext(ds2)
    v = check_a3(ctx, "strict")
    assert v.status == "pass"
    assert len(ctx.cylinder_verdicts) == 3


def test_a3_strict_fail_ds2op(ds2op):
    v = check_a3(CheckContext(ds2op), "strict")
    assert v.status == "fail"
    assert any("exch(m,0,n)" in w for w in v.witnesses)


def test_a3_exchange_pass_ds2op(ds2op):
    v = check_a3(CheckContext(ds2op), "up_to_exchange")
    assert v.status == "pass"


def test_a3_exchange_fails_condition2_on_ds2(ds2):
    # the third cylinder's top contains named cells, so residuation is not
    # compatible with exchange here
    v = check_a3(CheckContext(ds2), "up_to_exchange")
    assert v.status == "fail"
    assert any("non-exchange" in w for w in v.witnesses)


def test_a4_pass_ds2(ds2):
    v = check_a4(CheckContext(ds2), strong=False)
    assert v.status == "pass"


def test_a4_ds2op_strong_vs_nonstrong(ds2op):
    ctx = CheckContext(ds2op)
    weak = check_a4(ctx, strong=False)
    assert weak.status == "fail"
    assert any(
        "(0, 1)" in w and "(0, 2)" in w and "ab(exch(g,0,g))" in w for w in weak.witnesses
    )
    strong = check_a4(ctx, strong=True)
    assert strong.status == "pass"


def test_check_all_verdicts(ds2, ds2op, huet, deltas):
    rep = check_all(CheckContext(ds2), run_opposite=False)
    assert rep.coherent == "pass"
    assert all(v.status == "pass" for v in rep.assumptions.values())

    rep = check_all(CheckContext(ds2op), run_opposite=False)
    assert rep.assumptions["a3"].status == "fail"
    assert rep.coherent == "fail"

    rep = check_all(CheckContext(ds2op), a3_mode="up_to_exchange", strong=True, run_opposite=False)
    assert rep.coherent == "pass"

    rep = check_all(CheckContext(huet), run_opposite=False)
    assert rep.assumptions["a1"].status == "fail"
    assert rep.coherent == "fail"
    for key in ("a2", "a3", "a4"):
        assert rep.assumptions[key].status == "inconclusive"

    rep = check_all(CheckContext(deltas), run_opposite=False)
    assert rep.coherent == "pass"


def test_faithful_embedding_flags(deltas, huet, ds2):
    assert check_all(CheckContext(deltas)).faithful_embedding == "pass"
    assert check_all(CheckContext(huet)).faithful_embedding == "fail"
    # ds2's opposite needs dual weights which are not carried over
    assert check_all(CheckContext(ds2)).faithful_embedding == "inconclusive"


def test_report_determinism(ds2, ds2op):
    for p, kwargs in ((ds2, {}), (ds2op, dict(a3_mode="up_to_exchange", strong=True))):
        r1 = report_to_dict(check_all(CheckContext(p), run_opposite=False, **kwargs), p)
        r2 = report_to_dict(check_all(CheckContext(p), run_opposite=False, **kwargs), p)
        assert r1 == r2


def test_report_schema(ds2):
    rep = check_all(CheckContext(ds2), run_opposite=False)
    d = report_to_dict(rep, ds2)
    assert set(d["assumptions"]) == {"a1", "a2", "a3", "a4"}
    for v in d["assumptions"].values():
        assert set(v) == {"verdict", "witnesses", "note"}
    assert d["coherent"] == "pass"
    assert len(d["criticalPairs"]) == 2
    assert len(d["cylinders"]) == 3
    assert "timings" not in d


def test_a1_inconclusive_on_budget_exhaustion():
    from cohpres.core import parse_presentation

    p = parse_presentation("mode monoidal\nobjects a\neqgen d : a -> a a\n")
    v = check_a1(CheckContext(p, term_budget=200))
    assert v.status == "inconclusive"


def test_pointwise_order():
    spec = WeightSpec("w", "steps", "pointwise", 2, {})
    assert weight_less(spec, (0, 1), (1, 1))
    assert not weight_less(spec, (0, 2), (1, 1))
    assert not weight_less(spec, (1, 1), (1, 1))


def _whiskered_samples(p, exch_pairs=None):
    """The sampled (step, base) coincidences, each built whiskered, in the
    sample order of ``trivial_equational_base_samples``: an independent
    reference for its shape-first enumeration.  ``exch_pairs``, when given,
    keeps only the exchange bases of those (e1, e2) names."""
    out = []
    if p.mode != "monoidal":
        return out
    words = words_upto(p, 2)
    eq_gens = [g for g in p.generators if g.equational]
    for e1 in eq_gens:
        for e2 in eq_gens:
            if exch_pairs is not None and (e1.name, e2.name) not in exch_pairs:
                continue
            for mid in words:
                span = e1.source + mid + e2.source
                i1 = (0, len(e1.source))
                i2 = (len(e1.source) + len(mid), len(span))
                for x in words:
                    for y in words:
                        word = x + span + y
                        inst = RelationInstance(x, y, True, exch=(e1.name, mid, e2.name))
                        lhs, rhs = side_paths(p, inst)
                        for f in steps_on(word, p):
                            a, b = len(f.left), len(f.left) + len(p.gen(f.gen).source)
                            c1 = (len(x) + i1[0], len(x) + i1[1])
                            c2 = (len(x) + i2[0], len(x) + i2[1])
                            hits1 = min(b, c1[1]) > max(a, c1[0])
                            hits2 = min(b, c2[1]) > max(a, c2[0])
                            if hits1 and hits2:
                                continue
                            if f in (lhs.steps[0], rhs.steps[0]):
                                continue
                            out.append((f, inst))
    eq_named = [
        r for r in p.relations if p.is_equational_path(r.lhs) and p.is_equational_path(r.rhs)
    ]
    for rel in eq_named:
        window = rel.lhs.source
        for x in words:
            for y in words:
                word = x + window + y
                inst = RelationInstance(x, y, True, name=rel.name)
                heads = tuple(s.steps[0] for s in side_paths(p, inst) if s.steps)
                for f in steps_on(word, p):
                    a, b = len(f.left), len(f.left) + len(p.gen(f.gen).source)
                    if _proper_overlap(a, b, len(x), len(x) + len(window)):
                        continue
                    if f in heads:
                        continue
                    out.append((f, inst))
    return out


def _per_sample_base_records(p, table, exch_pairs=None):
    """The sampled base records computed directly on every whiskered sample."""
    res = Residuator(p, table)
    records = []
    for f, inst in _whiskered_samples(p, exch_pairs):
        lhs, rhs = side_paths(p, inst)
        fpath = Path(lhs.source, (f,))
        try:
            _, l_res = res.pair(fpath, lhs)
            fg, r_res = res.pair(fpath, rhs)
        except ResiduationError:
            records.append((f, inst, None, None))
            continue
        if l_res == r_res:
            top = trace_from_moves(p, l_res, ())
        elif p.path_target(l_res) != p.path_target(r_res):
            top = None  # not cofinal
        else:
            top = search_trace(p, l_res, r_res, max_cells=8, budget=20_000)
        records.append((f, inst, top, fg))
    return records


def _whiskered_records(ctx, records=None):
    """The context's base records (or ``records``), each whiskered back into
    the record of its sample."""
    p = ctx.p

    def whisker(x, item, y):
        return replace(item, left=x + item.left, right=item.right + y)

    def path(x, q, y):
        return Path(x + q.source + y, tuple(whisker(x, s, y) for s in q.steps))

    out = []
    for f, inst, x, y, top, fg in ctx.base_records if records is None else records:
        if top is not None:
            moves = [Move(m.at, whisker(x, m.inst, y)) for m in top.moves]
            top = trace_from_moves(p, path(x, top.source, y), moves)
        if fg is not None:
            fg = path(x, fg, y)
        out.append((whisker(x, f, y), whisker(x, inst, y), top, fg))
    return out


@pytest.mark.parametrize("dual", [False, True], ids=["plain", "opposite"])
@pytest.mark.parametrize("name", ["ds2", "ds2op", "huet", "deltas"])
def test_context_base_records_match_per_sample(request, name, dual):
    p = request.getfixturevalue(name)
    if dual:
        p = opposite(p)
    ctx = CheckContext(p)
    expected = _per_sample_base_records(p, ctx.table)
    got = _whiskered_records(ctx)
    assert len(got) == len(expected)
    for i, (g, e) in enumerate(zip(got, expected)):
        assert g == e, f"record {i} of {name}{' (opposite)' if dual else ''}"
    # equal cores are one object
    cores = {(r[0], r[1]) for r in ctx.base_records}
    assert len({(id(r[0]), id(r[1])) for r in ctx.base_records}) == len(cores)


# Every side leaves its leading c's untouched, so a search on a sample
# whiskered by c can apply Q where the search on its stripped core can only
# apply P: stripping the shared context would change the top.
PADDED = """
mode monoidal
objects a c
eqgen u : a a -> a
rel Q : cc[u]a ; cc[u] => cca[u] ; cc[u]
rel P : c[u]a ; c[u] => ca[u] ; c[u]
"""


def test_context_base_records_keep_padded_contexts():
    p = parse_presentation(PADDED)
    ctx = CheckContext(p)
    assert _whiskered_records(ctx) == _per_sample_base_records(p, ctx.table)
    assert all(not x and not y for _, _, x, y, _, _ in ctx.base_records)


# An equational relation whose sides meet the strip condition, so named
# bases are sampled as stripped cores, next to the exchange bases.
ASSOC = """
mode monoidal
objects a b
eqgen u : a a -> a
gen m : b a -> a
rel P : [u]a ; [u] => a[u] ; [u]
"""


def test_context_base_records_strip_named_bases():
    p = parse_presentation(ASSOC)
    ctx = CheckContext(p)
    assert _whiskered_records(ctx) == _per_sample_base_records(p, ctx.table)
    assert any(inst.name and (x or y) for _, inst, x, y, _, _ in ctx.base_records)
    assert any(top is None for *_, top, _ in ctx.base_records)


def test_context_base_records_keep_noncofinal_cores():
    # named-base cores with no top, next to exchange shapes
    p = parse_presentation(NONCOFINAL)
    ctx = CheckContext(p)
    assert _whiskered_records(ctx) == _per_sample_base_records(p, ctx.table)
    assert len(ctx.base_records) == 1148


def test_context_base_records_expand_shapes_on_ds3():
    # ds3's exchange bases of g12 then g01, and its named base yb012 (whose
    # two sides are equational): the records expanded from the shapes'
    # closings are the samples' own, in sample order
    p = parse_presentation((DATA / "ds3.cp").read_text(encoding="utf-8"))
    ctx = CheckContext(p)
    pairs = {("g12", "g01")}
    shapes = [s for s in ctx.base_samples.shapes.values() if s.base.name or s.base.exch[::2] in pairs]
    assert _whiskered_records(ctx, ctx.records(shapes)) == _per_sample_base_records(p, ctx.table, pairs)
    assert {s.marked for s in shapes} == {True, False}


@pytest.mark.parametrize(
    "n, samples, shapes, closed",
    [(2, 1029, 13, 13), (3, 59982, 222, 210), (4, 1007160, 1400, 1320)],
)
def test_ds_shapes_close_once(monkeypatch, tmp_path, n, samples, shapes, closed):
    # A3' closes each exchange shape of ds_n once, on its word of slot
    # letters, and expands no core: every top is exchange cells (ds_n fails
    # A3' on its critical cylinders, so the check exits 1)
    contexts, closings, expanded = [], [], []
    real_context, real_close = coherence.CheckContext, coherence.close_coincidence
    real_records = real_context.records

    def context(*args, **kwargs):
        contexts.append(real_context(*args, **kwargs))
        return contexts[-1]

    def close(*args):
        closings.append(args[:2])
        return real_close(*args)

    def records(ctx, chosen):
        out = real_records(ctx, chosen)
        expanded.extend(out)
        return out

    monkeypatch.setattr(coherence, "close_coincidence", close)
    monkeypatch.setattr(coherence, "CheckContext", context)
    monkeypatch.setattr(real_context, "records", records)
    path = tmp_path / f"ds{n}.cp"
    path.write_text(ds_presentation(n), encoding="utf-8")
    assert main(["check", str(path), "--assumption", "a3x", "--no-opposite"]) == 1
    (ctx,) = contexts
    assert (len(ctx.base_samples), len(ctx.base_samples.shapes)) == (samples, shapes)
    marked = {(s.f, s.base) for s in ctx.base_samples.shapes.values() if s.marked}
    assert len(closings) == len(set(closings)) == len(marked) == closed
    assert set(closings) == marked
    assert expanded == []


def test_a3x_names_each_sampled_exchange_residual_without_top():
    # ASSOC's exchange cores of [m] whose overlap has no tile have no top
    # (its A1 fails, so A3' is called directly): A3' names every sample of
    # them in sample order, as a loop over all records does
    p = parse_presentation(ASSOC)
    ctx = CheckContext(p)
    lines = [
        f"sampled exchange residual after {p.fmt_step(replace(f, left=x + f.left, right=f.right + y))} "
        "not reconstructed"
        for f, inst, x, y, top, _ in ctx.base_records
        if inst.exch is not None and top is None
    ]
    v = check_a3(ctx, "up_to_exchange")
    assert v.status == "fail" and len(lines) == 294
    assert v.witnesses[-len(lines) :] == lines


def test_context_base_records_of_an_empty_vertical_beside_a_factor():
    # [h] has no letters: past [f], the vertical [h]ba lands on the spot of
    # the base's second factor [h], so although it misses both factors no
    # interchange closes it; the engine finds side residuals that are not
    # cofinal, as the per-sample loop does
    p = parse_presentation("mode monoidal\nobjects a b\neqgen f : ba -> 0\neqgen h : 0 -> ba\n")
    ctx = CheckContext(p)
    assert _whiskered_records(ctx) == _per_sample_base_records(p, ctx.table)
    core = (RewriteStep((), "h", ("b", "a")), RelationInstance((), (), True, exch=("f", (), "h")))
    assert {r[4] for r in ctx.base_records if r[:2] == core} == {None}
    assert len(ctx.base_records) == 9522


def test_check_all_samples_each_presentation_once(monkeypatch, ds2op):
    sampled = []
    real = coherence.trivial_equational_base_samples

    def counting(p, *args, **kwargs):
        sampled.append(p)
        return real(p, *args, **kwargs)

    monkeypatch.setattr(coherence, "trivial_equational_base_samples", counting)
    rep = check_all(CheckContext(ds2op), "up_to_exchange", strong=True)
    assert rep.coherent == "pass"
    op = opposite(ds2op)
    assert sampled.count(ds2op) == 1
    assert sampled.count(op) <= 1
    assert len(sampled) == sampled.count(ds2op) + sampled.count(op)


def test_check_all_derives_each_table_once_in_its_run(monkeypatch, ds2):
    derived = []
    real = coherence.derive_residual_table

    def counting(p):
        derived.append(p)
        return real(p)

    monkeypatch.setattr(coherence, "derive_residual_table", counting)
    ctx = CheckContext(ds2)
    assert derived == []  # building a context does no work
    check_all(ctx)
    assert derived == [ds2, opposite(ds2)]


def test_check_assumption_gates(ds2op, huet):
    ctx = CheckContext(ds2op)
    # A4 waits for A3 in the asked mode, and each verdict is computed once
    skipped = check_assumption(ctx, "a4")
    assert (skipped.status, skipped.note) == ("inconclusive", "skipped: A3 did not pass")
    assert check_assumption(ctx, "a4", "up_to_exchange", True).status == "pass"
    assert check_assumption(ctx, "a4") is skipped
    assert set(ctx.verdicts) == {
        ("a1", "", False),
        ("a3", "strict", False),
        ("a4", "strict", False),
        ("a3", "up_to_exchange", False),
        ("a4", "up_to_exchange", True),
    }
    ctx = CheckContext(huet)
    for name in ("a2", "a3", "a4"):
        v = check_assumption(ctx, name)
        assert (v.status, v.note) == ("inconclusive", "skipped: A1 did not pass")


def _checked_cores(monkeypatch, p):
    """A context whose critical cylinders and base records were computed,
    its distinct base cores, and those whose closing searches (expands a
    path) or fails to residuate, in sample order.  ``check_cylinder`` runs
    for the critical cylinders only, each once."""
    checked, closing, left = [], [], []
    real_check, real_close = coherence.check_cylinder, coherence.close_coincidence
    real_moves = oracle.rewrite_moves

    def check(f, base, *args):
        checked.append((f, base))
        return real_check(f, base, *args)

    def close(f, inst, *args):
        closing.append((f, inst))
        try:
            out = real_close(f, inst, *args)
        finally:
            closing.pop()
        if out[1] is None:  # residuation failed
            left.append((f, inst))
        return out

    def moves(*args):
        left.extend(closing[-1:])
        return real_moves(*args)

    monkeypatch.setattr(coherence, "check_cylinder", check)
    monkeypatch.setattr(coherence, "close_coincidence", close)
    monkeypatch.setattr(oracle, "rewrite_moves", moves)
    ctx = CheckContext(p)
    ctx.cylinder_verdicts
    ctx.base_records
    assert checked == [(c.f, c.base) for c in ctx.cylinders]
    cores = list(dict.fromkeys((f, inst) for f, inst, *_ in ctx.base_records))
    left = [c for c in dict.fromkeys(left) if c in cores]
    assert left == [c for c in cores if c in left]
    return ctx, cores, left


def test_context_checks_each_cylinder_once(monkeypatch, ds2op):
    # one check per critical cylinder; every sampled base core closes by
    # interchange or by the exchange trace of its residuals, so none of the
    # 137 searches
    ctx, cores, left = _checked_cores(monkeypatch, ds2op)
    assert (len(cores), left) == (137, [])
    assert check_a3(ctx, "strict").status == "fail"
    assert check_a3(ctx, "up_to_exchange").status == "pass"
    assert check_a4(ctx, True).status == "pass"


def test_context_checks_named_and_untiled_base_cores(monkeypatch):
    # named bases search, and exchange cores of [m] whose overlap has no
    # tile fail to residuate; no other core does either
    _, cores, left = _checked_cores(monkeypatch, parse_presentation(ASSOC))
    named = [c for c in cores if c[1].name]
    assert set(named) < set(left) < set(cores)


@pytest.mark.parametrize(
    "argv", [["ds2"], ["ds2op", "--assumption", "a3x", "--strong"]], ids=["ds2", "ds2op-a3x"]
)
def test_check_searches_only_critical_cylinders(monkeypatch, argv):
    # a full check lets the top search go past the exchange trace for
    # critical cylinders only: every sampled base shape of the corpus is
    # marked, and a marked shape's closing stops there (no cells)
    searched, inside = [], []
    real_search, real_check = oracle.search_trace, coherence.check_cylinder

    def search(p, start, goal, max_cells=12, budget=20_000):
        if max_cells:
            searched.append(inside[-1] if inside else None)
        return real_search(p, start, goal, max_cells, budget)

    def check(f, base, *args):
        inside.append((f, base))
        try:
            return real_check(f, base, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(oracle, "search_trace", search)
    monkeypatch.setattr(coherence, "check_cylinder", check)
    path = CORPUS / f"{argv[0]}.cp"
    main(["check", str(path), *argv[1:]])
    p = parse_presentation(path.read_text(encoding="utf-8"))
    critical = {(c.f, c.base) for q in (p, opposite(p)) for c in CheckContext(q).cylinders}
    assert searched and set(searched) <= critical


def _whiskered_items(spec, f, inst, top):
    """The items of a base record that ``spec`` weighs, as the base and the top."""
    if spec.on == "steps":
        return [f], []
    return [inst], [c.inst for c in top.cells]


@pytest.mark.parametrize("dual", [False, True], ids=["plain", "opposite"])
@pytest.mark.parametrize("name", ["ds2", "ds2op"])
def test_whiskered_weights_match_eval_weight_on_every_sample(request, name, dual):
    p = request.getfixturevalue(name)
    if dual:
        p = opposite(p)
    ctx = CheckContext(p)
    for spec in p.weights.values():
        weights = coherence._Whiskered(spec, p)
        for f, inst, x, y, top, _ in ctx.base_records:
            sides = []
            for items in _whiskered_items(spec, f, inst, top):
                expected = (0,) * spec.dim
                for item in items:
                    expected = tuple(map(add, expected, eval_weight(spec, item, p, x, y)))
                assert weights.at(weights.part(items), x, y) == expected
                sides.append((weights.part(items), expected))
            (base, base_w), (over, top_w) = sides
            settled = weights.settled(over, base)
            assert settled in (None, weight_less(spec, top_w, base_w))


TERM_KINDS = ("const", "countL", "countR", "ctx_transp", "word_transp")


@given(st.data())
@settings(max_examples=100)
def test_whiskered_weight_is_core_weight_plus_context(ds2, data):
    # random weight terms, items and contexts of up to 4 letters: the
    # decomposed weight equals eval_weight of the whiskered items, and a
    # comparison settled for every context holds in each of up to 2 letters
    p = ds2
    word = st.lists(st.sampled_from(p.objects), max_size=4).map(tuple)
    letter = st.sampled_from(p.objects)

    def term():
        kind = data.draw(st.sampled_from(TERM_KINDS))
        if kind == "const":
            return WeightTerm(kind, (), data.draw(st.integers(0, 3)))
        arity = 1 if kind.startswith("count") else 2
        return WeightTerm(kind, tuple(data.draw(letter) for _ in range(arity)))

    dim = data.draw(st.integers(1, 3))
    keys = [g.name for g in p.generators] + [r.name for r in p.relations] + ["exch"]
    order = data.draw(st.sampled_from(["lex", "pointwise"]))
    spec = WeightSpec("w", "rels", order, dim, {k: tuple(term() for _ in range(dim)) for k in keys})

    def items():
        out = []
        for _ in range(data.draw(st.integers(1, 3))):
            left, right = data.draw(word), data.draw(word)
            kind = data.draw(st.sampled_from(["step", "rel", "exch"]))
            if kind == "step":
                gen = data.draw(st.sampled_from([g.name for g in p.generators]))
                out.append(RewriteStep(left, gen, right))
            elif kind == "rel":
                rel = data.draw(st.sampled_from([r.name for r in p.relations]))
                out.append(RelationInstance(left, right, True, name=rel))
            else:
                gens = st.sampled_from([g.name for g in p.generators])
                exch = (data.draw(gens), data.draw(word), data.draw(gens))
                out.append(RelationInstance(left, right, True, exch=exch))
        return out

    def whiskered(side, x, y):
        total = (0,) * dim
        for item in side:
            total = tuple(map(add, total, eval_weight(spec, item, p, x, y)))
        return total

    # b shares a prefix with a, so that the two often differ a little
    a = items()
    b = a[: data.draw(st.integers(0, len(a)))] + items()
    x, y = data.draw(word), data.draw(word)
    weights = coherence._Whiskered(spec, p)
    for side in (a, b):
        assert weights.at(weights.part(side), x, y) == whiskered(side, x, y)
    settled = weights.settled(weights.part(a), weights.part(b))
    if settled is not None:
        for x, y in product(words_upto(p, 2), repeat=2):
            assert settled == weight_less(spec, whiskered(a, x, y), whiskered(b, x, y))
