from __future__ import annotations

import functools
import random
import re
import sys
from contextlib import contextmanager
from dataclasses import replace
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohpres.core import (
    CellStep,
    CohpresError,
    Move,
    Path,
    RelationInstance,
    RewriteStep,
    TypeCheckError,
    check_trace,
    compose,
    parse_path,
    parse_presentation,
    position,
    tensor_ctx,
    trace_from_moves,
)
from cohpres.critical import enumerate_critical_pairs
from cohpres.objects import normalize, steps_on
from cohpres.oracle import oracle_residual_pair
from cohpres.residuation import (
    ResiduationError,
    Residuator,
    derive_residual_table,
    tile_key,
)

from conftest import (
    all_words,
    ds_presentation,
    load,
    paths_from,
    random_presentation,
    side_paths,
    tile_paths,
)


def entry_for(table, p, f_text, g_text):
    f = parse_path(f_text, p).steps[0]
    g = parse_path(g_text, p).steps[0]
    return table.entries[tile_key(position(f), position(g))]


def test_ds2_table_entries_byte_exact(ds2, ds2_table):
    assert len(ds2_table.entries) == 2
    gamma = entry_for(ds2_table, ds2, "[g]a", "b[m]")
    assert (gamma.first, gamma.second) == ((0, "g"), (1, "m"))
    bm_ga, ga_bm = tile_paths(ds2, gamma)
    assert ds2.fmt_path(bm_ga) == "a[g] ; [m]b"
    assert ds2.fmt_path(ga_bm) == "[g]"
    assert gamma.relation == "gamma"
    delta = entry_for(ds2_table, ds2, "b[g]", "[n]a")
    assert (delta.first, delta.second) == ((1, "g"), (0, "n"))
    na_bg, bg_na = tile_paths(ds2, delta)
    assert ds2.fmt_path(na_bg) == "[g]b ; a[n]"
    assert ds2.fmt_path(bg_na) == "[g]"
    assert delta.relation == "delta"


def test_alpha_not_a_tile_no_diagnostic(ds2, ds2_table):
    assert not any("alpha" in d for d in ds2_table.diagnostics)
    assert ds2_table.conflicts == []


def test_huet_table(huet, huet_table):
    assert len(huet_table.entries) == 2


def test_tile_with_two_equational_heads_agrees_with_itself():
    # yb012's two heads are both equational, so it registers its tile in
    # both roles; the second registration holds the first's tails swapped
    p = parse_presentation(ds_presentation(3))
    table = derive_residual_table(p)
    assert (table.conflicts, table.diagnostics) == ([], [])
    (entry,) = [e for e in table.entries.values() if e.relation == "yb012"]
    assert all(p.gen_map[gen].equational for _, gen in (entry.first, entry.second))


def test_no_relation_conflicts_with_itself():
    # over the seeded random presentations no conflict names one relation
    # twice; the 97th and the 162nd used to report 'r1' vs 'r1' and 'r0'
    # vs 'r0', and now derive their tiles without a conflict
    rng = random.Random(11)
    for i in range(600):
        p = random_presentation(rng, "path" if i % 3 == 0 else "monoidal")
        table = derive_residual_table(p)
        for msg in table.conflicts:
            first, second = re.search(r"'(\w+)' vs '(\w+)'", msg).groups()
            assert first != second, (i, msg)
        if i in (96, 161):
            assert table.conflicts == [] and table.entries, i


@pytest.mark.parametrize("n", [3, 4])
def test_ds_critical_pairs_match_oracle(n):
    # engine against oracle residuals, both ways, on every critical pair of ds_n
    p = parse_presentation(ds_presentation(n))
    table = derive_residual_table(p)
    res = Residuator(p, table)
    pairs = enumerate_critical_pairs(p, table)
    assert len(pairs) == {3: 7, 4: 16}[n]
    for cp in pairs:
        f, g = Path(cp.word, (cp.f,)), Path(cp.word, (cp.g,))
        assert res.pair(g, f) == oracle_residual_pair(g, f, p)
        assert res.pair(f, g) == oracle_residual_pair(f, g, p)


def test_step_residual_cases(ds2, ds2_table):
    f = parse_path("[g]a", ds2).steps[0]
    g = parse_path("b[m]", ds2).steps[0]
    src = ds2.step_source(f)
    gf, fg = Residuator(ds2, ds2_table).pair(Path(src, (g,)), Path(src, (f,)))
    assert ds2.fmt_path(gf) == "a[g] ; [m]b"
    assert ds2.fmt_path(fg) == "[g]"
    # equal steps
    s = parse_path("b[g]a", ds2).steps[0]
    src = ds2.step_source(s)
    gf, fg = Residuator(ds2, ds2_table).pair(Path(src, (s,)), Path(src, (s,)))
    assert gf.steps == () and fg.steps == ()
    # disjoint steps commute by exchange
    f2 = parse_path("[g]ba", ds2).steps[0]
    g2 = parse_path("ba[g]", ds2).steps[0]
    src = ds2.step_source(f2)
    gf, fg = Residuator(ds2, ds2_table).pair(Path(src, (g2,)), Path(src, (f2,)))
    assert ds2.fmt_path(gf) == "ab[g]"
    assert ds2.fmt_path(fg) == "[g]ab"


def test_step_residual_context_peeling(ds2, ds2_table):
    # delta entry wrapped in right context a, on bbaa
    f = parse_path("b[g]a", ds2).steps[0]
    g = parse_path("[n]aa", ds2).steps[0]
    src = ds2.step_source(f)
    gf, fg = Residuator(ds2, ds2_table).pair(Path(src, (g,)), Path(src, (f,)))
    assert ds2.fmt_path(gf) == "[g]ba ; a[n]a"
    assert ds2.fmt_path(fg) == "[g]a"


def test_missing_tile_is_reported():
    from cohpres.core import parse_presentation

    text = """
mode monoidal
objects a b
gen m : a a -> a
eqgen g : b a -> a b
"""
    p = parse_presentation(text)
    table = derive_residual_table(p)
    f = parse_path("[g]a", p).steps[0]
    g = parse_path("b[m]", p).steps[0]
    with pytest.raises(ResiduationError):
        src = p.step_source(f)
        Residuator(p, table).pair(Path(src, (g,)), Path(src, (f,)))


def test_path_residual_mon_res(ds2, ds2_table):
    res = Residuator(ds2, ds2_table)
    f = parse_path("[n]aa ; b[m]", ds2)
    bga = parse_path("b[g]a", ds2)
    gf, fg = res.pair(f, bga)
    assert ds2.fmt_path(gf) == "[g]ba ; a[n]a ; a[g] ; [m]b"
    assert ds2.fmt_path(fg) == "[g]"


def test_path_residual_exchange_variant(ds2, ds2_table):
    res = Residuator(ds2, ds2_table)
    fp = parse_path("bb[m] ; [n]a", ds2)
    bga = parse_path("b[g]a", ds2)
    gf, fg = res.pair(fp, bga)
    # cross-checked against the independent tile-search oracle below
    assert ds2.fmt_path(gf) == "ba[g] ; b[m]b ; [g]b ; a[n]"
    assert ds2.fmt_path(fg) == "[g]"
    og, of = oracle_residual_pair(fp, bga, ds2)
    assert (og, of) == (gf, fg)


def test_unit_laws(ds2, ds2_table):
    res = Residuator(ds2, ds2_table)
    g = parse_path("[n]aa ; b[m]", ds2)
    ident = ds2.identity(g.source)
    assert res.pair(g, ident) == (g, ds2.identity(ds2.path_target(g)))
    gf, fg = res.pair(ident, g)
    assert gf.steps == () and fg == g
    f = parse_path("b[g]a", ds2)
    gf, fg = res.pair(f, f)
    assert gf.steps == () and fg.steps == ()


def _coinitial_pairs(p, word, max_len):
    eq_paths = [q for q in paths_from(p, word, max_len) if p.is_equational_path(q)]
    any_paths = paths_from(p, word, max_len)
    return eq_paths, any_paths


def test_pasting_laws_and_cofinality_ds2(ds2, ds2_table):
    res = Residuator(ds2, ds2_table)
    words = [w for w in all_words(ds2, 4) if len(w) >= 2]
    checked = 0
    for w in words:
        eq_paths, any_paths = _coinitial_pairs(ds2, w, 3)
        for f in eq_paths:
            for g in any_paths:
                gf, fg = res.pair(g, f)
                # cofinality
                assert ds2.path_target(compose(ds2, f, gf)) == ds2.path_target(
                    compose(ds2, g, fg)
                )
                # g/(f2 . f1) = (g/f1)/f2 on a splitting of f
                for cut in range(len(f.steps) + 1):
                    f1 = type(f)(f.source, f.steps[:cut])
                    f2 = type(f)(ds2.path_target(f1), f.steps[cut:])
                    left = res.pair(g, f1)[0]
                    assert res.pair(left, f2)[0] == gf
                # (g2 . g1)/f = (g2/(f/g1)) . (g1/f) on a splitting of g
                for cut in range(len(g.steps) + 1):
                    g1 = type(g)(g.source, g.steps[:cut])
                    g2 = type(g)(ds2.path_target(g1), g.steps[cut:])
                    g1f, fg1 = res.pair(g1, f)
                    g2f = res.pair(g2, fg1)[0]
                    assert compose(ds2, g1f, g2f) == gf
                checked += 1
    assert checked > 300


def test_order_independence_random_instances(ds2, ds2_table):
    rng = random.Random(0)
    res = Residuator(ds2, ds2_table)
    words = [w for w in all_words(ds2, 5) if len(w) >= 2]
    done = 0
    while done < 100:
        w = rng.choice(words)
        eq_paths, any_paths = _coinitial_pairs(ds2, w, 3)
        eq_candidates = [q for q in eq_paths if q.steps]
        if not eq_candidates:
            continue
        f = rng.choice(eq_candidates)
        g = rng.choice(any_paths)
        assert res.pair(g, f) == oracle_residual_pair(g, f, ds2)
        done += 1


def test_residual_witness_single_tile(ds2, ds2_table):
    f = parse_path("[g]a", ds2)
    g = parse_path("b[m]", ds2)
    gf, fg, trace = Residuator(ds2, ds2_table).pair_with_witness(g, f)
    assert len(trace.cells) == 1
    assert trace.cells[0].inst.name == "gamma"
    assert trace.source == compose(ds2, f, gf)
    assert check_trace(ds2, trace) == compose(ds2, g, fg)


def test_residual_witness_identity(ds2, ds2_table):
    g = parse_path("[n]aa ; b[m]", ds2)
    f = ds2.identity(g.source)
    gf, fg, trace = Residuator(ds2, ds2_table).pair_with_witness(g, f)
    assert trace.cells == () and compose(ds2, f, gf) == g and compose(ds2, g, fg) == g


def test_residual_witness_multicell(ds2, ds2_table):
    f = parse_path("b[g]a", ds2)
    g = parse_path("[n]aa ; b[m]", ds2)
    gf, fg, trace = Residuator(ds2, ds2_table).pair_with_witness(g, f)
    assert len(trace.cells) >= 2
    assert trace.source == compose(ds2, f, gf)
    assert check_trace(ds2, trace) == compose(ds2, g, fg)


def test_witness_endpoints_on_sampled_pairs(ds2, ds2_table):
    res = Residuator(ds2, ds2_table)
    for w in [tuple("baa"), tuple("bba"), tuple("bbaa")]:
        eq_paths, any_paths = _coinitial_pairs(ds2, w, 2)
        for f in eq_paths:
            for g in any_paths[:20]:
                gf, fg, trace = res.pair_with_witness(g, f)
                assert trace.source == compose(ds2, f, gf)
                assert check_trace(ds2, trace) == compose(ds2, g, fg)


def test_cell_residual_degenerate(ds2, ds2_table):
    res = Residuator(ds2, ds2_table)
    inst = RelationInstance((), (), True, name="gamma")
    src = parse_path("b[m] ; [g]", ds2)
    trace = trace_from_moves(ds2, src, [Move(0, inst)])
    fstep = parse_path("[g]a", ds2)  # the equational step of gamma's own tile
    out = res.cell_residual(trace, fstep)
    assert out.cells == ()
    assert ds2.fmt_path(out.source) == "a[g] ; [m]b"


def test_cell_residual_b_alpha_after_gaa(ds2, ds2_table):
    res = Residuator(ds2, ds2_table)
    inst = RelationInstance(("b",), (), True, name="alpha")
    src = parse_path("b[m]a ; b[m]", ds2)
    trace = trace_from_moves(ds2, src, [Move(0, inst)])
    fstep = parse_path("[g]aa", ds2)
    out = res.cell_residual(trace, fstep)
    assert len(out.cells) >= 1
    # endpoints are the residuals of the base's sides
    assert out.source == res.pair(src, fstep)[0]
    assert check_trace(ds2, out) == res.pair(parse_path("ba[m] ; b[m]", ds2), fstep)[0]


def test_residual_undefined_for_two_inert_paths(ds2, ds2_table):
    res = Residuator(ds2, ds2_table)
    p1 = parse_path("[m]a", ds2)
    p2 = parse_path("a[m]", ds2)
    with pytest.raises(ResiduationError):
        res.pair(p1, p2)


def test_cell_residual_exchange_base_after_bga(ds2, ds2_table):
    # the third critical cylinder: residual of the n/m exchange after b[g]a
    res = Residuator(ds2, ds2_table)
    inst = RelationInstance((), (), True, exch=("n", (), "m"))
    lhs, rhs = side_paths(ds2, inst)
    trace = trace_from_moves(ds2, lhs, [Move(0, inst)])
    fstep = parse_path("b[g]a", ds2)
    out = res.cell_residual(trace, fstep)
    assert out.source == res.pair(lhs, fstep)[0]
    assert check_trace(ds2, out) == res.pair(rhs, fstep)[0]
    assert len(out.cells) >= 3


EQ_EQ_TILE = """
# two equational rules sharing a source, resolved by an equational tile
mode path
objects x y z w
eqgen u : x -> y
eqgen v : x -> z
eqgen p : y -> w
eqgen q : z -> w
rel t : [u] ; [p] => [v] ; [q]
"""


def test_equational_equational_tile():
    from cohpres.core import parse_presentation

    pres = parse_presentation(EQ_EQ_TILE)
    table = derive_residual_table(pres)
    u = parse_path("[u]", pres).steps[0]
    v = parse_path("[v]", pres).steps[0]
    src = pres.step_source(u)
    vu, uv = Residuator(pres, table).pair(Path(src, (v,)), Path(src, (u,)))
    assert pres.fmt_path(vu) == "[p]" and pres.fmt_path(uv) == "[q]"
    # querying with the roles swapped flips the answer
    uv2, vu2 = Residuator(pres, table).pair(Path(src, (u,)), Path(src, (v,)))
    assert (uv2, vu2) == (uv, vu)


# ---------------------------------------------------------------------------
# the iterative engine against the recursive definition
#
# The reference builds its witnesses by whiskering and concatenating whole
# traces of cells, with its own copy of that trace algebra; an engine trace
# is compared with one through its cells.


class RefTrace(NamedTuple):
    source: Path
    cells: tuple[CellStep, ...]


def by_cells(out):
    """An engine result with its witness, if any, as a ``RefTrace``."""
    if len(out) == 3:
        gf, fg, trace = out
        return gf, fg, RefTrace(trace.source, trace.cells)
    return out


def ref_apply_cell(p, path: Path, cell: CellStep) -> Path:
    lhs, rhs = side_paths(p, cell.inst)
    expect = cell.prefix.steps + lhs.steps + cell.suffix.steps
    if path.steps != expect or path.source != cell.prefix.source:
        raise TypeCheckError("cell does not apply at the indicated position")
    return Path(path.source, cell.prefix.steps + rhs.steps + cell.suffix.steps)


def trace_target(p, trace: RefTrace) -> Path:
    cur = trace.source
    for cell in trace.cells:
        cur = ref_apply_cell(p, cur, cell)
    return cur


def trace_concat(p, *traces: RefTrace) -> RefTrace:
    traces = tuple(t for t in traces if t is not None)
    if not traces:
        raise ValueError("empty concatenation")
    cells: list[CellStep] = []
    cur = traces[0].source
    for t in traces:
        if t.source.steps != cur.steps or t.source.source != cur.source:
            raise TypeCheckError("traces do not chain")
        cells.extend(t.cells)
        cur = trace_target(p, t)
    return RefTrace(traces[0].source, tuple(cells))


def trace_whisker(p, pre: Path, trace: RefTrace, post: Path) -> RefTrace:
    """Extend every cell of a trace by a fixed prefix and suffix path."""
    src = compose(p, compose(p, pre, trace.source), post)
    cells = []
    for c in trace.cells:
        cells.append(
            CellStep(compose(p, pre, c.prefix), c.inst, compose(p, c.suffix, post))
        )
    return RefTrace(src, tuple(cells))


def single_cell_trace(p, source: Path, inst: RelationInstance) -> RefTrace:
    """A one-cell trace rewriting the whole of ``source``."""
    lhs, _ = side_paths(p, inst)
    if lhs.steps != source.steps or lhs.source != source.source:
        raise TypeCheckError("instance does not match the whole path")
    end = p.path_target(source)
    return RefTrace(source, (CellStep(Path(source.source, ()), inst, Path(end, ())),))


# The step geometry the engine had before it ran on positions, frozen here
# so that the reference shares none with the engine.


def ref_interval(p, s):
    start = len(s.left)
    return start, start + len(p.gen(s.gen).source)


def ref_disjoint(p, f, g):
    af, bf = ref_interval(p, f)
    ag, bg = ref_interval(p, g)
    if af == bf and ag == bg:
        return af != ag
    if af == bf:
        return af <= ag or af >= bg
    if ag == bg:
        return ag <= af or ag >= bf
    return bf <= ag or bg <= af


def ref_retype(p, s, done):
    ad, bd = ref_interval(p, done)
    a_s, b_s = ref_interval(p, s)
    tgt = p.gen(done.gen).target
    if bd <= a_s:
        return RewriteStep(s.left[:ad] + tgt + s.left[bd:], s.gen, s.right)
    rel = ad - b_s
    return RewriteStep(s.left, s.gen, s.right[:rel] + tgt + s.right[rel + (bd - ad) :])


def ref_exchange_instance(p, first_applied, second):
    a1, b1 = ref_interval(p, first_applied)
    a2, b2 = ref_interval(p, second)
    word = p.step_source(first_applied)
    if (a1, b1) <= (a2, b2):
        left_step, right_step, fwd, la, lb, ra, rb = first_applied, second, True, a1, b1, a2, b2
    else:
        left_step, right_step, fwd, la, lb, ra, rb = second, first_applied, False, a2, b2, a1, b1
    return RelationInstance(
        left=word[:la], right=word[rb:], forward=fwd, exch=(left_step.gen, word[lb:ra], right_step.gen)
    )


def ref_step_pair(p, table, f, g):
    """(g/f, f/g, tile) for coinitial steps, at least one equational; tile
    is ("exchange",) or ("table", entry, zl, zr, f_is_first)."""
    if p.step_source(f) != p.step_source(g):
        raise ResiduationError(f"steps {p.fmt_step(f)} and {p.fmt_step(g)} are not coinitial")
    if not (p.is_equational_step(f) or p.is_equational_step(g)):
        raise ResiduationError(
            f"residual of ({p.fmt_step(g)}, {p.fmt_step(f)}) undefined: neither is equational"
        )
    if f == g:
        t = p.step_target(f)
        return Path(t, ()), Path(t, ()), ("equal",)
    if ref_disjoint(p, f, g):
        g_after = Path(p.step_target(f), (ref_retype(p, g, f),))
        f_after = Path(p.step_target(g), (ref_retype(p, f, g),))
        return g_after, f_after, ("exchange",)
    nl = min(len(f.left), len(g.left))
    nr = min(len(f.right), len(g.right))
    zl, zr = f.left[:nl], f.right[len(f.right) - nr :]
    fm = RewriteStep(f.left[nl:], f.gen, f.right[: len(f.right) - nr])
    gm = RewriteStep(g.left[nl:], g.gen, g.right[: len(g.right) - nr])
    entry = table.entries.get(tile_key(position(fm), position(gm)))
    if entry is None:
        raise ResiduationError(
            f"no residuation tile for the overlapping pair "
            f"({p.fmt_step(f)}, {p.fmt_step(g)}) on {p.fmt_word(p.step_source(f))}"
        )
    # the entry's tails, as paths from the words after fm and gm
    tails = (entry.second_after_first, entry.first_after_second)
    if (position(fm), position(gm)) == (entry.first, entry.second):
        (g_res, f_res), f_is_first = tails, True
    elif (position(gm), position(fm)) == (entry.first, entry.second):
        (f_res, g_res), f_is_first = tails, False
    else:
        raise ResiduationError(f"tile mismatch for pair ({p.fmt_step(f)}, {p.fmt_step(g)})")
    g_res, f_res = at_word(p, p.step_target(fm), g_res), at_word(p, p.step_target(gm), f_res)
    return (
        tensor_ctx(p, zl, g_res, zr),
        tensor_ctx(p, zl, f_res, zr),
        ("table", entry, zl, zr, f_is_first),
    )


def positions(path):
    return tuple((len(s.left), s.gen) for s in path.steps)


def at_word(p, w, steps):
    """The positional ``steps`` as a Path from ``w``."""
    out, src = [], w
    for off, name in steps:
        g = p.gen(name)
        out.append(RewriteStep(w[:off], name, w[off + len(g.source) :]))
        w = w[:off] + g.target + w[off + len(g.source) :]
    return Path(src, tuple(out))


class RecursiveResiduator(Residuator):
    """The zig-zag strategy as a plain recursion over sliced sub-paths: the
    reference for the engine.  One memo serves both modes: it is keyed on
    the positions of ``(g, f)`` and holds positions, rebuilt at the words of
    each hit.  A witness-mode hit rebuilds its sub-trace at the current word
    by the same recursion with counting and the memo off, so a witness costs
    the work of its pair."""

    def pair(self, g, f):
        self._check(g, f)
        return self._rec(g, f, False)[:2]

    def pair_with_witness(self, g, f):
        self._check(g, f)
        return self._rec(g, f, True)

    def _ref_tile_instance(self, f1, g1, tile):
        if tile[0] == "exchange":
            return ref_exchange_instance(self.p, f1, g1)
        _, entry, zl, zr, f_is_first = tile
        forward = entry.lhs_is_first if f_is_first else not entry.lhs_is_first
        return RelationInstance(zl, zr, forward, name=entry.relation)

    def _tile_trace(self, f1, g1, a, tile):
        src = Path(self.p.step_source(f1), (f1,) + a.steps)
        return single_cell_trace(self.p, src, self._ref_tile_instance(f1, g1, tile))

    def _rec(self, g, f, witness, counted=True):
        p = self.p
        key = (positions(g), positions(f))
        if counted:
            if key in self._memo:
                if witness:
                    return self._rec(g, f, True, counted=False)
                gf, fg = self._memo[key]
                return at_word(p, p.path_target(f), gf), at_word(p, p.path_target(g), fg), None
            self._work += 1
            if self._work > self.budget:
                raise ResiduationError("residuation budget exhausted (nontermination suspected)")

        def rest(q):
            return Path(p.step_target(q.steps[0]), q.steps[1:])

        if not f.steps:
            res = (g, p.identity(p.path_target(g)), RefTrace(g, ()))
        elif not g.steps:
            res = (p.identity(p.path_target(f)), f, RefTrace(f, ()))
        elif f.steps[0] == g.steps[0]:
            res = gf, fg, inner = self._rec(rest(g), rest(f), witness, counted)
            if witness:
                pre = Path(f.source, f.steps[:1])
                end = p.path_target(compose(p, pre, inner.source))
                res = (gf, fg, trace_whisker(p, pre, inner, p.identity(end)))
        else:
            f1, g1 = f.steps[0], g.steps[0]
            a, b, tile = ref_step_pair(p, self.table, f1, g1)
            c, d, t2 = self._rec(rest(g), b, witness, counted)
            e, h, t3 = self._rec(compose(p, a, c), rest(f), witness, counted)
            trace = None
            if witness:
                pre_f1, pre_g1 = Path(f.source, (f1,)), Path(g.source, (g1,))
                end = p.path_target(compose(p, pre_f1, t3.source))
                trace = trace_concat(
                    p,
                    trace_whisker(p, pre_f1, t3, p.identity(end)),
                    trace_whisker(
                        p, p.identity(f.source), self._tile_trace(f1, g1, a, tile), compose(p, c, h)
                    ),
                    trace_whisker(p, pre_g1, t2, h),
                )
            res = (e, compose(p, d, h), trace)
        if counted:
            self._memo[key] = (positions(res[0]), positions(res[1]))
        return res


def _outcome(call):
    try:
        return call()
    except CohpresError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name, max_word", [("ds2", 4), ("ds2op", 2), ("deltas", 4)])
def test_engine_matches_recursion_on_all_short_pairs(name, max_word):
    # every coinitial pair of paths of at most 3 steps from every word up to
    # max_word letters, through one shared residuator per word on each side,
    # so memo hits across calls are compared too
    p = load(name)
    table = derive_residual_table(p)
    compared = 0
    for w in all_words(p, max_word):
        paths = paths_from(p, w, 3)
        new, ref = Residuator(p, table), RecursiveResiduator(p, table)
        for g in paths:
            for f in paths:
                for method in ("pair", "pair_with_witness"):
                    got = _outcome(lambda: by_cells(getattr(new, method)(g, f)))
                    want = _outcome(lambda: getattr(ref, method)(g, f))
                    assert got == want, (method, p.fmt_path(g), p.fmt_path(f))
                    assert new._work == ref._work
                compared += 1
    assert compared > {"ds2": 2000, "ds2op": 6000, "deltas": 250}[name]


def _bkak(p, k):
    return normalize(("b",) * k + ("a",) * k, p).path


@pytest.mark.parametrize("method, k", [("pair", 15), ("pair_with_witness", 8)])
def test_engine_matches_recursion_on_a_long_path(ds2, ds2_table, method, k):
    u = _bkak(ds2, k)
    g = parse_path("[n]" + "b" * (k - 2) + "a" * k, ds2)
    new, ref = Residuator(ds2, ds2_table), RecursiveResiduator(ds2, ds2_table)
    assert by_cells(getattr(new, method)(g, u)) == getattr(ref, method)(g, u)
    assert new._work == ref._work


def test_witness_shares_the_pair_memo(ds2, ds2_table):
    # one memo serves both methods: after the pair, its witness solves no
    # sub-problem, and on its own it solves as many as the pair
    u = _bkak(ds2, 15)
    g = parse_path("[n]" + "b" * 13 + "a" * 15, ds2)
    res = Residuator(ds2, ds2_table)
    gf, fg = res.pair(g, u)
    assert res._work == 254
    wgf, wfg, trace = res.pair_with_witness(g, u)
    assert (wgf, wfg, res._work) == (gf, fg, 254)
    assert check_trace(ds2, trace) == compose(ds2, g, fg)
    alone = Residuator(ds2, ds2_table)
    assert alone.pair_with_witness(g, u) == (gf, fg, trace)
    assert alone._work == 254


def test_budget_exhausts_at_the_same_sub_problem(ds2, ds2_table):
    u = _bkak(ds2, 6)
    g = parse_path("[n]" + "b" * 4 + "a" * 6, ds2)
    for budget in (1, 7, 40):
        for cls in (Residuator, RecursiveResiduator):
            res = cls(ds2, ds2_table, budget=budget)
            with pytest.raises(ResiduationError, match="budget exhausted"):
                res.pair(g, u)
            assert res._work == budget + 1


@contextmanager
def shallow_stack(headroom=60):
    """Allow only ``headroom`` Python frames beyond the caller's depth."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def test_pair_along_6400_steps(ds2, ds2_table):
    # one step residuated along the normalization path of b^80 a^80
    u = _bkak(ds2, 80)
    assert len(u.steps) == 6400
    g = parse_path("[n]" + "b" * 78 + "a" * 80, ds2)
    res = Residuator(ds2, ds2_table)
    with shallow_stack():
        gf, fg = res.pair(g, u)
    assert ds2.fmt_path(gf) == "a" * 80 + "[n]" + "b" * 78
    assert ds2.path_target(compose(ds2, u, gf)) == ds2.path_target(compose(ds2, g, fg))
    assert len(fg.steps) == 6320


def test_witness_does_not_recurse_along_the_path(ds2, ds2_table):
    u = _bkak(ds2, 10)
    g = parse_path("[n]" + "b" * 8 + "a" * 10, ds2)
    with shallow_stack():
        gf, fg, trace = Residuator(ds2, ds2_table).pair_with_witness(g, u)
    assert trace.source == compose(ds2, u, gf)
    assert check_trace(ds2, trace) == compose(ds2, g, fg)


def test_witness_along_400_steps(ds2, ds2_table):
    u = _bkak(ds2, 20)
    assert len(u.steps) == 400
    g = parse_path("[n]" + "b" * 18 + "a" * 20, ds2)
    gf, fg, trace = Residuator(ds2, ds2_table).pair_with_witness(g, u)
    assert len(trace.cells) == 380
    assert trace.source == compose(ds2, u, gf)
    assert check_trace(ds2, trace) == compose(ds2, g, fg)


@functools.cache
def _loaded(name):
    p = load(name)
    return p, derive_residual_table(p)


@st.composite
def coinitial_paths(draw, max_steps=5):
    """(name, g, f): a word, an equational path f and any path g from it, up
    to ``max_steps`` steps each, and sometimes with the roles swapped."""
    name = draw(st.sampled_from(["ds2", "ds2op"]))
    p, _ = _loaded(name)
    word = tuple(draw(st.lists(st.sampled_from(p.objects), min_size=1, max_size=6)))

    def walk(equational):
        steps, w = [], word
        for _ in range(draw(st.integers(0, max_steps))):
            options = steps_on(w, p, equational=equational)
            if not options:
                break
            steps.append(draw(st.sampled_from(options)))
            w = p.step_target(steps[-1])
        return Path(word, tuple(steps))

    f, g = walk(True), walk(False)
    if draw(st.booleans()):
        f, g = g, f
    return name, g, f


@settings(max_examples=300)
@given(coinitial_paths())
def test_pair_matches_oracle_and_witness_checks(case):
    name, g, f = case
    p, table = _loaded(name)
    res = Residuator(p, table)
    gf, fg = res.pair(g, f)
    assert (gf, fg) == oracle_residual_pair(g, f, p)
    wgf, wfg, trace = res.pair_with_witness(g, f)
    assert (wgf, wfg) == (gf, fg)
    assert trace.source == compose(p, f, gf)
    assert check_trace(p, trace) == compose(p, g, fg)


@settings(max_examples=200)
@given(coinitial_paths())
def test_witness_cells_chain_from_source_to_target(case):
    # the cells view against a replay of this test's own: each cell's prefix,
    # from-side and suffix spell the path before it, its to-side the path
    # after it, and the suffix starts on the word where the from-side ends
    name, g, f = case
    p, table = _loaded(name)
    gf, fg, trace = Residuator(p, table).pair_with_witness(g, f)
    cur = trace.source
    for c in trace.cells:
        lhs, rhs = side_paths(p, c.inst)
        assert c.prefix.source == cur.source
        assert c.prefix.steps + lhs.steps + c.suffix.steps == cur.steps
        assert c.suffix.source == p.path_words(cur)[len(c.prefix) + len(lhs)]
        cur = Path(cur.source, c.prefix.steps + rhs.steps + c.suffix.steps)
    assert cur == compose(p, g, fg)
    assert len(trace) == len(trace.cells)


@functools.cache
def _shared(name):
    return Residuator(*_loaded(name))


def whisker_trace(p, x, trace, y):
    cells = tuple(
        CellStep(
            tensor_ctx(p, x, c.prefix, y),
            replace(c.inst, left=x + c.inst.left, right=c.inst.right + y),
            tensor_ctx(p, x, c.suffix, y),
        )
        for c in trace.cells
    )
    return RefTrace(tensor_ctx(p, x, trace.source, y), cells)


@settings(max_examples=200)
@given(coinitial_paths(max_steps=3), st.data())
def test_residuals_commute_with_whiskering(case, data):
    # one residuator per presentation serves every example, so pair-mode
    # memo entries made on one word are hit on others
    name, g, f = case
    p, _ = _loaded(name)
    context = st.lists(st.sampled_from(p.objects), max_size=2).map(tuple)
    x, y = data.draw(context), data.draw(context)
    res = _shared(name)
    xgy, xfy = tensor_ctx(p, x, g, y), tensor_ctx(p, x, f, y)
    gf, fg = res.pair(g, f)
    assert res.pair(xgy, xfy) == (tensor_ctx(p, x, gf, y), tensor_ctx(p, x, fg, y))
    gf, fg, trace = res.pair_with_witness(g, f)
    wgf, wfg, wtrace = res.pair_with_witness(xgy, xfy)
    assert (wgf, wfg) == (tensor_ctx(p, x, gf, y), tensor_ctx(p, x, fg, y))
    assert RefTrace(wtrace.source, wtrace.cells) == whisker_trace(p, x, trace, y)
