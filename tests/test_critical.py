from __future__ import annotations

import random
from collections import Counter

from cohpres.constructions import opposite
from cohpres.coherence import CheckContext
from cohpres.core import Path, RelationInstance, RewriteStep, check_trace, instance_sides, position
from cohpres.critical import (
    CriticalCylinder,
    CriticalPair,
    _flavor,
    _named_cylinders,
    _proper_overlap,
    check_cylinder,
    close_coincidence,
    enumerate_critical_cylinders,
    enumerate_critical_pairs,
)
from cohpres.residuation import Residuator, derive_residual_table, steps_disjoint, tile_key

from conftest import all_words, load, random_presentation, side_paths


def test_ds2_exactly_two_pairs(ds2, ds2_table):
    pairs = enumerate_critical_pairs(ds2, ds2_table)
    assert len(pairs) == 2
    rendered = {(ds2.fmt_step(c.f), ds2.fmt_step(c.g), ds2.fmt_word(c.word)) for c in pairs}
    assert rendered == {("[g]a", "b[m]", "baa"), ("b[g]", "[n]a", "bba")}
    assert all(c.resolved for c in pairs)


def test_ds2op_exactly_two_pairs(ds2op, ds2op_table):
    pairs = enumerate_critical_pairs(ds2op, ds2op_table)
    assert len(pairs) == 2
    rendered = {(ds2op.fmt_step(c.f), ds2op.fmt_step(c.g)) for c in pairs}
    assert rendered == {("[g]", "[m]b"), ("[g]", "a[n]")}
    assert all(c.word == ("a", "b") for c in pairs)


def test_no_equational_no_pairs(deltas):
    from cohpres.residuation import derive_residual_table

    assert enumerate_critical_pairs(deltas, derive_residual_table(deltas)) == []


def test_pair_cores_genuinely_overlap(ds2, ds2_table):
    for c in enumerate_critical_pairs(ds2, ds2_table):
        assert not steps_disjoint(ds2, position(c.f), position(c.g))
        # minimal: no common outer context
        assert not (c.f.left and c.g.left and c.f.left[0] == c.g.left[0])
        assert not (c.f.right and c.g.right and c.f.right[-1] == c.g.right[-1])


def test_pair_enumeration_complete_on_small_words(ds2, ds2_table):
    # brute force: every genuine equational-involving overlap on words of
    # length <= 6 is a context instance of an enumerated pair
    enumerated = {tile_key(position(c.f), position(c.g)) for c in enumerate_critical_pairs(ds2, ds2_table)}
    for w in all_words(ds2, 6):
        steps = []
        for g in ds2.generators:
            k = len(g.source)
            for pos in range(len(w) - k + 1):
                if w[pos : pos + k] == g.source:
                    steps.append(RewriteStep(w[:pos], g.name, w[pos + k :]))
        for f in steps:
            if not ds2.is_equational_step(f):
                continue
            for g in steps:
                if f == g or steps_disjoint(ds2, position(f), position(g)):
                    continue
                nl = min(len(f.left), len(g.left))
                nr = min(len(f.right), len(g.right))
                fm = RewriteStep(f.left[nl:], f.gen, f.right[: len(f.right) - nr])
                gm = RewriteStep(g.left[nl:], g.gen, g.right[: len(g.right) - nr])
                assert tile_key(position(fm), position(gm)) in enumerated


def test_ds2_exactly_three_cylinders(ds2, ds2_table):
    cyls = enumerate_critical_cylinders(ds2, ds2_table)
    assert len(cyls) == 3
    bases = {ds2.fmt_instance(c.base) for c in cyls}
    assert bases == {"b(alpha)", "(beta)a", "(exch(n,0,m))"}
    verts = {ds2.fmt_step(c.f) for c in cyls}
    assert verts == {"[g]aa", "bb[g]", "b[g]a"}
    assert all(c.flavor == "equational_vertical" for c in cyls)


def test_ds2op_exactly_one_cylinder(ds2op, ds2op_table):
    cyls = enumerate_critical_cylinders(ds2op, ds2op_table)
    assert len(cyls) == 1
    c = cyls[0]
    assert ds2op.fmt_instance(c.base) == "(exch(m,0,n))"
    assert ds2op.fmt_step(c.f) == "[g]"


def test_ds2_no_equational_base_cylinders(ds2, ds2_table):
    cyls = enumerate_critical_cylinders(ds2, ds2_table)
    assert [c for c in cyls if c.flavor == "equational_base"] == []


def test_huet_no_cylinders(huet, huet_table):
    assert enumerate_critical_cylinders(huet, huet_table) == []


def test_ds2_cylinder_verdicts(ds2, ds2_table):
    for cyl in enumerate_critical_cylinders(ds2, ds2_table):
        v = check_cylinder(cyl.f, cyl.base, Residuator(ds2, ds2_table), 12, 50_000)
        assert v.residual_targets_equal == "equal"
        assert v.top is not None
        # the top connects the two side residuals exactly
        from cohpres.core import check_trace

        assert v.top.source == v.side_residuals[0]
        assert check_trace(ds2, v.top) == v.side_residuals[1]


def test_ds2_cylinder_top_cells(ds2, ds2_table):
    # the displayed composites close each cylinder
    expected = {
        "b(alpha)": ["alpha", "exch(m,g)", "gamma"],
        "(beta)a": ["beta", "delta", "exch(g,n)"],
        "(exch(n,0,m))": ["delta", "exch(g,g)", "exch(m,n)", "gamma"],
    }
    for cyl in enumerate_critical_cylinders(ds2, ds2_table):
        v = check_cylinder(cyl.f, cyl.base, Residuator(ds2, ds2_table), 12, 50_000)
        kinds = sorted(
            c.inst.name if c.inst.name else f"exch({c.inst.exch[0]},{c.inst.exch[2]})"
            for c in v.top.cells
        )
        assert kinds == expected[ds2.fmt_instance(cyl.base)]
        assert v.vertical_residual is not None and len(v.vertical_residual.steps) == 1


def test_ds2op_cylinder_exchange_equal(ds2op, ds2op_table):
    cyl = enumerate_critical_cylinders(ds2op, ds2op_table)[0]
    v = check_cylinder(cyl.f, cyl.base, Residuator(ds2op, ds2op_table), 12, 50_000)
    assert v.residual_targets_equal == "exchange_equal"
    r1, r2 = v.vertical_residuals
    assert ds2op.fmt_path(r1) == "a[g]b ; ab[g] ; [g]ba ; b[g]a"
    assert ds2op.fmt_path(r2) == "a[g]b ; [g]ab ; ba[g] ; b[g]a"
    assert v.top is not None and len(v.top.cells) == 1
    assert v.top.cells[0].inst.exch is not None


def test_check_cylinder_reports_residuals_of_interchanged_cores(ds2op):
    # where the interchange builds the top, check_cylinder still reports the
    # residuals that residuation gives, and the top joins the side residuals
    ctx = CheckContext(ds2op)
    interchanged = 0
    for f, inst in dict.fromkeys(r[:2] for r in ctx.base_records):
        v = check_cylinder(f, inst, ctx.residuator, 8, 20_000)
        w, *sides = instance_sides(ds2op, inst)
        pairs = [ctx.residuator.pair(Path(w, (f,)), ds2op.path_at(w, s)) for s in sides]
        assert v.vertical_residuals == tuple(q[0] for q in pairs)
        assert v.side_residuals == tuple(q[1] for q in pairs)
        assert (v.top.source, check_trace(ds2op, v.top)) == v.side_residuals
        closed = close_coincidence(f, inst, ctx.residuator, 0, 0)
        interchanged += closed[1] is not None and closed[3] is None
    assert interchanged > 0


def test_cylinder_enumeration_complete_on_small_words(ds2, ds2_table):
    # brute force over (equational step, named relation instance) coincidences
    # on words of length <= 6: everything critical is a context instance of a
    # reported cylinder
    from cohpres.critical import _proper_overlap

    reported = set()
    for c in enumerate_critical_cylinders(ds2, ds2_table):
        reported.add((c.f, c.base.left, c.base.right, c.base.name, c.base.exch))
    for w in all_words(ds2, 6):
        eq_steps = []
        for g in ds2.generators:
            if not g.equational:
                continue
            k = len(g.source)
            for pos in range(len(w) - k + 1):
                if w[pos : pos + k] == g.source:
                    eq_steps.append(RewriteStep(w[:pos], g.name, w[pos + k :]))
        for rel in ds2.relations:
            win = rel.lhs.source
            for pos in range(len(w) - len(win) + 1):
                if w[pos : pos + len(win)] != win:
                    continue
                for f in eq_steps:
                    a, b = len(f.left), len(f.left) + len(ds2.gen(f.gen).source)
                    if not _proper_overlap(a, b, pos, pos + len(win)):
                        continue
                    # strip common outer contexts
                    nl = min(len(f.left), pos)
                    nr = min(len(f.right), len(w) - pos - len(win))
                    fm = RewriteStep(f.left[nl:], f.gen, f.right[: len(f.right) - nr])
                    key = (
                        fm,
                        w[nl:pos],
                        w[pos + len(win) : len(w) - nr],
                        rel.name,
                        None,
                    )
                    assert key in reported, (ds2.fmt_step(f), rel.name, w)


def test_exchange_cylinder_completeness_on_small_words(ds2, ds2_table):
    # brute force over (equational step, exchange instance) coincidences on
    # words of length <= 6: verticals touching both exchanged cores must be
    # context instances of reported cylinders
    reported = set()
    for c in enumerate_critical_cylinders(ds2, ds2_table):
        if c.base.exch is not None:
            reported.add((c.f, c.base.left, c.base.right, c.base.exch))
    for w in all_words(ds2, 6):
        for g1 in ds2.generators:
            for g2 in ds2.generators:
                s1, s2 = g1.source, g2.source
                for i in range(len(w) - len(s1) + 1):
                    if w[i : i + len(s1)] != s1:
                        continue
                    for j in range(i + len(s1), len(w) - len(s2) + 1):
                        if w[j : j + len(s2)] != s2:
                            continue
                        core1 = (i, i + len(s1))
                        core2 = (j, j + len(s2))
                        for e in ds2.generators:
                            if not e.equational:
                                continue
                            k = len(e.source)
                            for pos in range(len(w) - k + 1):
                                if w[pos : pos + k] != e.source:
                                    continue
                                a, b = pos, pos + k
                                hits1 = min(b, core1[1]) > max(a, core1[0])
                                hits2 = min(b, core2[1]) > max(a, core2[0])
                                if not (hits1 and hits2):
                                    continue
                                f = RewriteStep(w[:pos], e.name, w[pos + k :])
                                nl = min(pos, i)
                                nr = min(len(w) - b, len(w) - core2[1])
                                fm = RewriteStep(
                                    f.left[nl:], f.gen, f.right[: len(f.right) - nr]
                                )
                                key = (
                                    fm,
                                    w[nl:i],
                                    w[core2[1] : len(w) - nr],
                                    (g1.name, w[core1[1] : j], g2.name),
                                )
                                assert key in reported, (ds2.fmt_step(f), key, w)


# ---------------------------------------------------------------------------
# reference enumeration: each empty-source case and each side head spelt out


def ref_placements(u, v):
    """Offsets d of factor v against factor u (u at 0) at which the two
    genuinely interfere, with the merged word they live on."""
    lu, lv = len(u), len(v)
    out = []
    if lu == 0 and lv == 0:
        return [(0, ())]
    if lv == 0:
        return [(d, u) for d in range(1, lu)]
    if lu == 0:
        return [(-d, v) for d in range(1, lv)]
    for d in range(-(lv - 1), lu):
        lo, hi = max(0, d), min(lu, d + lv)
        if lo >= hi or any(u[i] != v[i - d] for i in range(lo, hi)):
            continue
        left = v[:-d] if d < 0 else ()
        right = v[lu - d :] if d + lv > lu else ()
        out.append((d, left + u + right))
    return out


def ref_enumerate_critical_pairs(p, table):
    out, seen = [], set()
    gen_index = {g.name: i for i, g in enumerate(p.generators)}
    for e in p.generators:
        if not e.equational:
            continue
        for h in p.generators:
            for d, word in ref_placements(e.source, h.source):
                e_left, h_left = max(0, -d), max(0, d)
                f = RewriteStep(word[:e_left], e.name, word[e_left + len(e.source) :])
                g = RewriteStep(word[:h_left], h.name, word[h_left + len(h.source) :])
                key = tile_key((e_left, e.name), (h_left, h.name))
                if f == g or key in seen:
                    continue
                seen.add(key)
                out.append(CriticalPair(word, f, g, key in table.entries))
    out.sort(
        key=lambda c: (gen_index[c.f.gen], gen_index[c.g.gen], len(c.f.left), len(c.g.left), c.word)
    )
    return out


def ref_named_cylinders(p):
    out = []
    for rel in p.relations:
        window = rel.lhs.source
        base_eq = p.is_equational_path(rel.lhs) and p.is_equational_path(rel.rhs)
        for e in p.generators:
            if not (e.equational or base_eq):
                continue
            for d, word in ref_placements(window, e.source):
                w_start = max(0, -d)
                c_start = w_start + d
                if p.mode == "monoidal" and not _proper_overlap(
                    w_start, w_start + len(window), c_start, c_start + len(e.source)
                ):
                    continue
                f = RewriteStep(word[:c_start], e.name, word[c_start + len(e.source) :])
                inst = RelationInstance(word[:w_start], word[w_start + len(window) :], True, name=rel.name)
                if any(side.steps and f == side.steps[0] for side in side_paths(p, inst)):
                    continue
                out.append(CriticalCylinder(f, inst, _flavor(base_eq)))
    return out


def test_critical_enumeration_matches_reference():
    # the corpus and 600 seeded random presentations, each with its opposite;
    # 140 of them have two or more empty-source generators, at least one of
    # them equational, whose placements all sit at gaps
    rng = random.Random(11)
    base = [load(n) for n in ("ds2", "ds2op", "huet", "deltas")]
    base += [random_presentation(rng, "path" if i % 3 == 0 else "monoidal") for i in range(600)]
    two_empty = pairs = cylinders = 0
    for p in (q for b in base for q in (b, opposite(b))):
        table = derive_residual_table(p)
        want = ref_enumerate_critical_pairs(p, table)
        assert enumerate_critical_pairs(p, table) == want, p
        assert Counter(_named_cylinders(p)) == Counter(ref_named_cylinders(p)), p
        empty = [g for g in p.generators if not g.source]
        two_empty += len(empty) >= 2 and any(g.equational for g in empty)
        pairs += len(want)
        cylinders += len(enumerate_critical_cylinders(p, table))
    assert two_empty == 140
    assert (pairs, cylinders) == (1731, 1240)
