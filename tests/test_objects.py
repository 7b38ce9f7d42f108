from __future__ import annotations

from cohpres.core import parse_presentation
from cohpres.objects import (
    check_equational_termination,
    normalize,
    paths_from,
    steps_on,
    transposition_number,
    words_upto,
)

from conftest import all_words
from conftest import paths_from as reference_paths_from


def test_successors_bbaa(ds2):
    succ = steps_on(tuple("bbaa"), ds2, equational=True)
    assert [ds2.fmt_step(s) for s in succ] == ["b[g]a"]


def test_successors_normal_form_empty(ds2):
    assert steps_on(tuple("aabb"), ds2, equational=True) == []


def test_successors_baba_ordering(ds2):
    succ = steps_on(tuple("baba"), ds2, equational=True)
    assert [ds2.fmt_step(s) for s in succ] == ["[g]ba", "ba[g]"]


def test_steps_on_order(ds2):
    # all steps: generator declaration order, then left-context length
    baa = tuple("baa")
    assert [ds2.fmt_step(s) for s in steps_on(baa, ds2)] == ["b[m]", "[g]a"]
    assert [ds2.fmt_step(s) for s in steps_on(baa, ds2, equational=True)] == ["[g]a"]
    # equational steps: left-context length, then declaration order
    p = parse_presentation(
        "mode monoidal\nobjects a b c\neqgen e : b c -> c b\neqgen d : a b -> b a\n"
    )
    abc = tuple("abc")
    assert [p.fmt_step(s) for s in steps_on(abc, p)] == ["a[e]", "[d]c"]
    assert [p.fmt_step(s) for s in steps_on(abc, p, equational=True)] == ["[d]c", "a[e]"]


def test_words_and_paths_match_references(ds2):
    assert words_upto(ds2, 4) == all_words(ds2, 4)
    for w in all_words(ds2, 3):
        ref = reference_paths_from(ds2, w, 3)
        assert paths_from(ds2, w, 3) == ref
        # ds2 has one equational generator, so the equational order is the filtered one
        eq = [q for q in ref if ds2.is_equational_path(q)]
        assert paths_from(ds2, w, 3, equational=True) == eq


def test_termination_ds2(ds2):
    v = check_equational_termination(ds2, budget=10_000)
    assert v.status == "terminating"


def test_termination_huet_cycle(huet):
    v = check_equational_termination(huet, budget=10_000)
    assert v.status == "cycle"
    assert v.cycle == (("x",), ("y",), ("x",))


def test_termination_no_equational(deltas):
    v = check_equational_termination(deltas, budget=10_000)
    assert v.status == "terminating"


def test_termination_budget_inconclusive(huet):
    v = check_equational_termination(huet, budget=1)
    assert v.status in ("cycle", "budget_exhausted")  # tiny budget never passes


def test_normalize_examples(ds2):
    r = normalize(tuple("ba"), ds2)
    assert r.normal == tuple("ab")
    assert ds2.fmt_path(r.path) == "[g]"
    assert normalize(tuple("babbaa"), ds2).normal == tuple("aaabbb")
    r2 = normalize(tuple("aabb"), ds2)
    assert r2.normal == tuple("aabb") and r2.path.steps == ()


def test_normalize_idempotent_up_to_length_6(ds2):
    for w in all_words(ds2, 6):
        again = normalize(normalize(w, ds2).normal, ds2)
        assert again.path.steps == ()


def test_normal_forms_are_sorted_words(ds2):
    for w in all_words(ds2, 6):
        nf = normalize(w, ds2).normal
        assert nf == tuple(sorted(w))  # a's before b's
        assert sorted(nf) == sorted(w)


def test_transposition_strictly_decreases_along_steps(ds2):
    for w in all_words(ds2, 6):
        before = transposition_number(w, "b", "a")
        for s in steps_on(w, ds2, equational=True):
            after = transposition_number(ds2.step_target(s), "b", "a")
            assert after < before


def test_strategy_independence_of_normal_forms(ds2):
    # Newman at desk scale: every maximal reduction ends in the same word
    def endpoints(w, memo):
        if w in memo:
            return memo[w]
        succ = steps_on(w, ds2, equational=True)
        if not succ:
            memo[w] = {w}
            return memo[w]
        acc = set()
        for s in succ:
            acc |= endpoints(ds2.step_target(s), memo)
        memo[w] = acc
        return acc

    memo: dict = {}
    for w in all_words(ds2, 6):
        ends = endpoints(w, memo)
        assert ends == {normalize(w, ds2).normal}


def test_transposition_number_values():
    assert transposition_number(tuple("babbaa"), "b", "a") == 7
    assert transposition_number(tuple("aaabbb"), "b", "a") == 0
    assert transposition_number(tuple("ba"), "b", "a") == 1


def test_termination_budget_exhausted_on_growing_rule():
    p = parse_presentation("mode monoidal\nobjects a\neqgen d : a -> a a\n")
    v = check_equational_termination(p, budget=200)
    assert v.status == "budget_exhausted"
    assert v.budget == 200
