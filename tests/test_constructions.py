from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cohpres import constructions
from cohpres.core import (
    Path,
    RewriteStep,
    TypeCheckError,
    compose,
    parse_path,
    parse_presentation,
    print_presentation,
)
from cohpres.constructions import (
    Fraction,
    TietzeRefusal,
    check_left_fractions,
    fraction_compose,
    fraction_equal,
    localization_presentation,
    nf_functor_apply,
    nf_object,
    nf_tensor,
    opposite,
    quotient_presentation,
    sample_fraction_agreement,
    tietze_apply,
)
from cohpres.objects import BudgetExhausted, normalize, steps_on
from cohpres.oracle import normal_words, search_trace
from cohpres.residuation import ResiduationError, Residuator, derive_residual_table

from conftest import CONTEXT_BOUND, load, paths_from


def test_opposite_is_involution(ds2, huet, deltas):
    for p in (ds2, huet, deltas):
        assert opposite(opposite(p)) == p


def test_opposite_of_ds2_matches_ds2op_structure(ds2, ds2op):
    op = opposite(ds2)
    assert {(g.name, g.source, g.target) for g in op.generators} == {
        (g.name, g.source, g.target) for g in ds2op.generators
    }
    assert op.equational_names == ds2op.equational_names
    # relations agree up to the declared orientation of each side pair
    mine = {r.name: {op.fmt_path(r.lhs), op.fmt_path(r.rhs)} for r in op.relations}
    theirs = {r.name: {ds2op.fmt_path(r.lhs), ds2op.fmt_path(r.rhs)} for r in ds2op.relations}
    assert mine == theirs


def test_opposite_huet_roundtrip(huet):
    op = opposite(huet)
    assert parse_presentation(print_presentation(op)) == op
    g = op.gen("g")
    assert g.source == ("y",) and g.target == ("x",)


def test_quotient_presentation_huet(huet):
    q = quotient_presentation(huet)
    # x and y collapse; x' and y' stay
    assert set(q.objects) == {"x", "x'", "y'"}
    assert q.gen("g").source == ("x",) and q.gen("g").target == ("x",)
    names = {r.name for r in q.relations}
    assert "g_id" in names and "g'_id" in names
    assert len(q.relations) == 4


def test_quotient_requires_path_mode(ds2):
    with pytest.raises(Exception):
        quotient_presentation(ds2)


def test_quotient_no_equational_identity(deltas):
    # path-mode presentation with no equational generators: classes are singletons
    p = parse_presentation("mode path\nobjects u v\ngen f : u -> v\n")
    q = quotient_presentation(p)
    assert q.objects == ("u", "v") and len(q.relations) == 0


def test_quotient_single_eqgen():
    p = parse_presentation("mode path\nobjects x y\neqgen f : x -> y\n")
    q = quotient_presentation(p)
    assert q.objects == ("x",)
    assert len(q.relations) == 1 and q.relations[0].rhs.steps == ()


def test_localization_huet(huet):
    loc = localization_presentation(huet, {"g", "g'"})
    assert len(loc.generators) == 6
    assert len(loc.relations) == 2 + 4
    assert loc.gen("g_inv").source == ("y",)


def test_localization_empty_sigma(ds2):
    assert localization_presentation(ds2, set()) == ds2


def test_localization_ds2_g(ds2):
    loc = localization_presentation(ds2, {"g"})
    assert len(loc.generators) == 4
    assert loc.gen("g_inv").source == ("a", "b") and loc.gen("g_inv").target == ("b", "a")
    assert len(loc.relations) == 6


def test_tietze_addgen(deltas):
    out = tietze_apply(deltas, "addgen h : aaa -> a := [m]a ; [m]")
    assert len(out.generators) == 2
    assert len(out.relations) == 2
    # and remove it again
    back = tietze_apply(out, "rmgen h")
    assert back == deltas


def test_tietze_duplicate_relation_removable(deltas):
    dup = tietze_apply(deltas, "addrel alpha2 : [m]a ; [m] => a[m] ; [m]")
    assert len(dup.relations) == 2
    out = tietze_apply(dup, "rmrel alpha2")
    assert out == deltas


def test_tietze_refuses_underivable_removal(deltas):
    with pytest.raises(TietzeRefusal):
        tietze_apply(deltas, "rmrel alpha")


def test_tietze_refuses_underivable_addition(deltas):
    # two parallel composites realizing different surjections [4] -> [2]
    with pytest.raises(TietzeRefusal):
        tietze_apply(deltas, "addrel bogus : [m]aa ; [m]a => [m]aa ; a[m]")


def test_nf_object(ds2):
    assert nf_object(("b",), ("a",), ds2) == ("a", "b")


def test_nf_tensor_examples(ds2, ds2_table):
    n = parse_path("[n]", ds2)
    t = nf_tensor(("a",), n, (), ds2, ds2_table)
    assert ds2.fmt_path(t) == "a[n]"
    ident = ds2.identity(("a",))
    t2 = nf_tensor(("a",), ident, ("b",), ds2, ds2_table)
    assert t2.steps == () and t2.source == ("a", "a", "b")


def test_nf_functor_values(ds2, ds2_table):
    g = parse_path("[g]", ds2)
    assert nf_functor_apply(g, ds2, ds2_table) == ds2.identity(("a", "b"))
    bm = parse_path("b[m]", ds2)
    assert ds2.fmt_path(nf_functor_apply(bm, ds2, ds2_table)) == "[m]b"
    # normal source and target: unchanged
    m = parse_path("[m]b", ds2)
    assert nf_functor_apply(m, ds2, ds2_table) == m


def test_nf_functor_functoriality(ds2, ds2_table):
    # N(g . f) <=>* N(g) . N(f) on composable ds2 pairs of length <= 3
    sources = [tuple("baa"), tuple("bba"), tuple("bbaa")]
    checked = 0
    for src in sources:
        for f in paths_from(ds2, src, 3):
            mid = ds2.path_target(f)
            for g in paths_from(ds2, mid, 3 - len(f.steps)):
                left = nf_functor_apply(compose(ds2, f, g), ds2, ds2_table)
                right = compose(
                    ds2,
                    nf_functor_apply(f, ds2, ds2_table),
                    nf_functor_apply(g, ds2, ds2_table),
                )
                assert search_trace(ds2, left, right, budget=30_000) is not None
                checked += 1
    assert checked >= 50


def reference_nf_functor_apply(f, p, table):
    """The normal-form functor by its definition: the residual of f after
    the normalization path u of its source, taken from both residuals of f
    and u, then the normalization path of its target."""
    r = Residuator(p, table).pair(f, normalize(f.source, p).path)[0]
    return compose(p, r, normalize(p.path_target(r), p).path)


# Non-equational steps keep a ds2 or ds2op word sorted, so there the target
# of f/u is always normal; here s can unsort it, and the target's
# normalization path is not empty.
UNSORT = "mode monoidal\nobjects a b\ngen s : a -> b\neqgen g : b a -> a b\nrel t : [g] ; [s]b => b[s]\n"
NF_PRES = {"ds2": load("ds2"), "ds2op": load("ds2op"), "unsort": parse_presentation(UNSORT)}
NF_TABLES = {name: derive_residual_table(p) for name, p in NF_PRES.items()}


@pytest.mark.parametrize("name", sorted(NF_PRES))
@settings(max_examples=150)
@given(word=st.lists(st.sampled_from("ab"), max_size=30), data=st.data())
def test_nf_functor_matches_its_definition(name, word, data):
    # long random words give normalization paths of up to about 225 steps
    p, table = NF_PRES[name], NF_TABLES[name]
    steps = [s for s in steps_on(tuple(word), p) if not p.gen(s.gen).equational]
    assume(steps)
    f = Path(tuple(word), (data.draw(st.sampled_from(steps)),))
    assert nf_functor_apply(f, p, table) == reference_nf_functor_apply(f, p, table)
    # the residual alone costs the sub-problems of the pair it comes from
    u = normalize(f.source, p)
    alone, paired = Residuator(p, table), Residuator(p, table)
    assert alone.nf_residual(f, u) == paired.pair(f, u.path)[0]
    assert alone._work == paired._work > 0


def test_nf_functor_rejects_paths_that_do_not_compose(ds2, ds2_table):
    bad_first = Path(tuple("bba"), (RewriteStep((), "m", ("a",)),))
    with pytest.raises(TypeCheckError, match=r"^step \[m\]a does not compose at bba$"):
        nf_functor_apply(bad_first, ds2, ds2_table)
    bbaa = tuple("bbaa")
    bad_second = Path(bbaa, (RewriteStep(("b", "b"), "m", ()), RewriteStep((), "n", ("a", "a"))))
    with pytest.raises(TypeCheckError, match=r"^step \[n\]aa does not compose at bba$"):
        nf_functor_apply(bad_second, ds2, ds2_table)
    # a normalization of another word is refused as pair refuses its path
    with pytest.raises(ResiduationError, match=r"^paths \[n\]a and \[g\] are not coinitial$"):
        Residuator(ds2, ds2_table).nf_residual(parse_path("[n]a", ds2), normalize(tuple("ba"), ds2))


def test_nf_functor_identity_on_reduced_paths(ds2, ds2_table):
    # N . I = identity on normal-form paths
    for src in (tuple("aabb"), tuple("aaab")):
        for f in paths_from(ds2, src, 3):
            assert nf_functor_apply(f, ds2, ds2_table) == f


def test_fraction_compose_identities(ds2, ds2_table):
    naa = parse_path("[n]aa", ds2)
    idba = ds2.identity(("b", "a"))
    bm = parse_path("b[m]", ds2)
    phi1 = Fraction(naa, ds2.identity(("b", "a", "a")))
    phi2 = Fraction(bm, ds2.identity(("b", "a")))
    out = fraction_compose(phi1, phi2, ds2, ds2_table)
    assert out.num == compose(ds2, naa, bm)
    assert out.den.steps == ()
    assert idba.source == ("b", "a")


def test_fraction_compose_mediating_square(ds2, ds2_table):
    g = parse_path("[g]", ds2)
    idab = ds2.identity(("a", "b"))
    phi1 = Fraction(g, idab)  # ba -> ab
    phi2 = Fraction(idab, g)  # ab -> ba
    out = fraction_compose(phi1, phi2, ds2, ds2_table)
    assert ds2.fmt_path(out.num) == "[g]" and ds2.fmt_path(out.den) == "[g]"
    idba = ds2.identity(("b", "a"))
    assert fraction_equal(out, Fraction(idba, idba), ds2, ds2_table) == "equal"


def test_fraction_equal_reflexive(ds2, ds2_table):
    naa = parse_path("[n]aa", ds2)
    phi = Fraction(naa, ds2.identity(("b", "a", "a")))
    assert fraction_equal(phi, phi, ds2, ds2_table, budget=2) == "equal"


def test_fraction_unequal_huet(huet, huet_table):
    gg = parse_path("[g] ; [g']", huet)
    idx = huet.identity(("x",))
    assert (
        fraction_equal(Fraction(gg, idx), Fraction(idx, idx), huet, huet_table, budget=8)
        == "unequal"
    )


def test_fraction_compose_associative_up_to_equality(ds2, ds2_table):
    g = parse_path("[g]", ds2)
    idab = ds2.identity(("a", "b"))
    idba = ds2.identity(("b", "a"))
    f1 = Fraction(g, idab)
    f2 = Fraction(idab, g)
    f3 = Fraction(g, idab)
    left = fraction_compose(fraction_compose(f1, f2, ds2, ds2_table), f3, ds2, ds2_table)
    right = fraction_compose(f1, fraction_compose(f2, f3, ds2, ds2_table), ds2, ds2_table)
    assert fraction_equal(left, right, ds2, ds2_table) == "equal"


def test_left_fractions_ds2(ds2, ds2_table):
    out = check_left_fractions(ds2, ds2_table, bound=2, coherent=True)
    assert out["overall"] == "pass"
    assert out["condition4"].startswith("pass (equational morphisms are epi")


def test_left_fractions_huet_condition3(huet, huet_table):
    out = check_left_fractions(huet, huet_table, bound=3, coherent=False)
    assert out["condition3"].startswith("pass")


def test_left_fractions_condition3_without_a_tile():
    # [h] after [e] has no residual (the relation is bound to its context),
    # and no completion within the bound either
    p = parse_presentation(CONTEXT_BOUND)
    out = check_left_fractions(p, derive_residual_table(p), bound=2)
    assert out["condition3"] == "fail: no completion found for ([e], [h])"
    assert out["overall"] == "fail"


def test_left_fractions_empty_sigma(deltas):
    from cohpres.residuation import derive_residual_table

    out = check_left_fractions(deltas, derive_residual_table(deltas), bound=2)
    assert out["overall"] == "pass"


def test_left_fractions_huet_condition4_sampled(huet, huet_table):
    # huet has no parallel pair under an equational path at this bound, and
    # the note says so rather than claiming co-equalizers were found
    out = check_left_fractions(huet, huet_table, bound=3, coherent=False)
    assert out["condition4"] == "pass (no parallel pair sampled)"
    assert out["overall"] == "pass"


def test_left_fractions_condition4_searches_for_coequalizers(monkeypatch, ds2op, ds2op_table):
    # ds2op, not known coherent, has parallel pairs under an equational path
    # within bound 2, so condition 4 searches for a co-equalizing morphism
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return search_trace(*args, **kwargs)

    monkeypatch.setattr(constructions, "search_trace", counting)
    out = check_left_fractions(ds2op, ds2op_table, bound=2)
    assert out == {
        "condition1": "pass (equational morphisms compose)",
        "condition2": "pass (identities are equational)",
        "condition3": "pass (residuation closes sampled squares)",
        "condition4": "pass (co-equalizing morphisms found for 3 sampled parallel pairs)",
        "overall": "pass",
    }
    # per pair, one search that u;f1 and u;f2 are equal and one for its v
    assert len(calls) == 6


def test_fraction_equal_is_equivalence_on_samples(ds2, ds2_table):
    from cohpres import objects

    # build a pool of parallel fractions from a non-normal source
    src = tuple("baa")
    dens_by_target = {}
    for y in [tuple("ba"), tuple("baa"), tuple("aab"), tuple("ab"), tuple("a")]:
        for u, _ in objects.paths_from(ds2, y, 2, equational=True):
            dens_by_target.setdefault(ds2.path_target(u), []).append(u)
    pool = []
    for num, _ in objects.paths_from(ds2, src, 2):
        for den in dens_by_target.get(ds2.path_target(num), []):
            pool.append(Fraction(num, den))
    by_sig = {}
    for phi in pool:
        by_sig.setdefault((phi.source(), phi.target()), []).append(phi)
    group = max(by_sig.values(), key=len)[:6]
    assert len(group) >= 3
    # symmetry and transitivity on the sampled group
    rel = {}
    for i, a in enumerate(group):
        for j, b in enumerate(group):
            rel[i, j] = fraction_equal(a, b, ds2, ds2_table) == "equal"
    for i in range(len(group)):
        assert rel[i, i]
        for j in range(len(group)):
            assert rel[i, j] == rel[j, i]
            for k in range(len(group)):
                if rel[i, j] and rel[j, k]:
                    assert rel[i, k]


def test_tietze_validates_result(huet):
    # a defining path with mismatched endpoints is rejected before any
    # invalid presentation can escape
    with pytest.raises(Exception):
        tietze_apply(huet, "addgen p : x -> y' := [f]")


PATH_MODE_COHERENT = """
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
"""


def test_sample_fraction_agreement_path_mode(huet):
    # path-mode fractions start at single objects: no whiskered step is built
    p = parse_presentation(PATH_MODE_COHERENT)
    got = sample_fraction_agreement(p, derive_residual_table(p), normal_words(p, 2), 3, 20)
    assert got == {"checked": 8, "agreed": 8}
    # huet's equational cycle leaves x without a normal form, so the
    # normal-form side of the comparison runs out of budget
    with pytest.raises(BudgetExhausted):
        sample_fraction_agreement(huet, derive_residual_table(huet), normal_words(huet, 2), 3, 20)


@pytest.mark.parametrize("name", ["ds2", "ds2op", "deltas"])
def test_sample_fraction_agreement_monoidal(request, name):
    p = request.getfixturevalue(name)
    got = sample_fraction_agreement(p, derive_residual_table(p), normal_words(p, 2), 3, 20)
    assert got == {"checked": 20, "agreed": 20}
