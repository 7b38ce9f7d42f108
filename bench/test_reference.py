"""Self-tests of the benchmark's expected answers: each checker accepts a
right answer and flags a deliberately wrong one.  The quantile estimator
that reports the latency percentiles is tested here too.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import random

import pytest

import reference
from reference import Mismatch
from run import quantile
from workloads import Op, _word_with_steps, compare_verify


def test_surj_edge_cases():
    assert reference.surj(0, 0) == 1
    assert reference.surj(3, 0) == 0
    assert reference.surj(2, 3) == 0
    assert reference.surj(1, 1) == 1
    assert reference.surj(5, 2) == 4


def test_hom_count_is_reversed_for_the_opposite():
    assert reference.hom_count("ds2", "aaab", "aab") == 2
    assert reference.hom_count("ds2", "aabb", "b") == 0
    assert reference.hom_count("ds2", "", "") == 1
    assert reference.hom_count("ds2op", "ba", "bbaa") == 1
    assert reference.hom_count("ds2op", "a", "aaa") == 1
    assert reference.hom_count("ds2op", "bba", "bbbaa") == 2


def test_wrong_hom_count_is_flagged():
    op = Op("hom", "ds2", ("aaab", "aab", 2))
    compare_verify(op, 2)
    with pytest.raises(Mismatch):
        compare_verify(op, 3)


@pytest.mark.parametrize(
    "pres, word, step, good, bad",
    [
        # merging the first two of three a's; merging the last two is a
        # different morphism aaa -> aa with the same endpoints
        ("ds2", "aaa", ("", "m", "a"), [("", "m", "a")], [("a", "m", "")]),
        # the merge happens behind a b, so the image sorts first
        ("ds2", "baa", ("b", "m", ""), [("", "m", "b")], [("", "m", "b"), ("", "m", "")]),
        ("ds2op", "aa", ("", "m", "a"), [("", "m", "a")], [("a", "m", "")]),
        ("ds2op", "ab", ("a", "n", ""), [("", "n", "a")], []),
    ],
)
def test_wrong_nf_image_is_flagged(pres, word, step, good, bad):
    image_word = reference.normal_form(pres, word)
    reference.check_nf_image(pres, word, step, image_word, good)
    with pytest.raises(Mismatch):
        reference.check_nf_image(pres, word, step, image_word, bad)


def test_witness_check():
    # f = b[m] after u = [g]a ; a[g] on baa: the gamma cell, run backwards
    u = reference.normalization_steps("ds2", "baa")
    assert u == [("", "g", "a"), ("a", "g", "")]
    step, gf, fg = ("b", "m", ""), [("", "m", "b")], [("", "g", "")]
    cells = [([], "gamma", None, "", "", False, [])]
    reference.check_witness("ds2", "baa", step, u, gf, fg, u + gf, cells)
    with pytest.raises(Mismatch):
        reference.check_witness("ds2", "baa", step, u, gf, [], u + gf, cells)
    with pytest.raises(Mismatch):
        wrong_cell = [([], "gamma", None, "", "", True, [])]
        reference.check_witness("ds2", "baa", step, u, gf, fg, u + gf, wrong_cell)


def test_exchange_cell_replay():
    # [m]bb ; a[n] => aa[n] ; [m]b, an exchange of two disjoint merges
    start = [("", "m", "bb"), ("a", "n", "")]
    cells = [([], None, ("m", "", "n"), "", "", True, [])]
    assert reference.replay_trace("ds2", "aabb", start, cells) == [
        ("aa", "n", ""), ("", "m", "b")
    ]


def test_check_table():
    out = (
        "a1: PASS  (2 critical pairs resolved; terminating)\n"
        "a2: PASS\n"
        "a3 (strict): PASS\n"
        "a4: PASS\n"
        "coherent: PASS\n"
        "faithful-embedding: INCONCLUSIVE  (opposite presentation not verified)\n"
    )
    reference.check_check_output("ds2", "all", False, True, 0, out)
    with pytest.raises(Mismatch):
        reference.check_check_output("ds2", "all", False, True, 1, out)
    with pytest.raises(Mismatch):
        reference.check_check_output("ds2", "all", False, True, 0, out.replace("a4: PASS", "a4: FAIL"))
    huet = "a1: FAIL\nWITNESS: equational cycle: x -> y -> x\n"
    reference.check_check_output("huet", "a1", False, True, 1, huet)
    with pytest.raises(Mismatch):
        reference.check_check_output("huet", "a1", False, True, 1, "a1: FAIL\nWITNESS: other\n")


def test_huet_compare_check():
    out = (
        "comparison (path mode): unequal\n"
        "  x -> x: quotient_classes=1 localization_classes=9 mismatch=quotient != localization\n"
    )
    reference.check_compare_output("huet", 1, 1, out)
    with pytest.raises(Mismatch):
        reference.check_compare_output("huet", 1, 1, out.replace("=9", "=1"))


def test_normal_words():
    assert len(reference.normal_words("ds2", 6)) == 28
    assert reference.normal_words("ds2op", 2) == ["", "a", "b", "aa", "ba", "bb"]


@pytest.mark.parametrize("pres", ["ds2", "ds2op"])
def test_generated_words_have_the_drawn_path_length(pres):
    rng = random.Random(7)
    for n in (0, 1, 5, 40, 300):
        word = _word_with_steps(rng, pres, n)
        steps = reference.normalization_steps(pres, word)
        assert len(steps) == n
        end, _ = reference.run_path(pres, word, steps)
        assert end == reference.normal_form(pres, word)


def test_quantile_estimates():
    assert quantile([0.25] * 7, 0.5) == pytest.approx(0.25)
    assert quantile([0.25] * 7, 0.96) == pytest.approx(0.25)
    # symmetric samples: the median estimate is the middle one
    assert quantile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 0.5) == pytest.approx(4.0)
    # n = 3, q = 1/2: Beta(2, 2) puts 1 - I_{2/3}(2, 2) = 7/27 on the top slot
    assert quantile([0.0, 0.0, 1.0], 0.5) == pytest.approx(7 / 27, rel=1e-3)
    rng = random.Random(3)
    samples = [rng.expovariate(1.0) for _ in range(200)]
    rising = [quantile(samples, q) for q in (0.1, 0.5, 0.82, 0.96)]
    assert all(lo < hi for lo, hi in zip(rising, rising[1:]))
    assert min(samples) < rising[0] and rising[-1] < max(samples)
