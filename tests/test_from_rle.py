"""Conversions that start from a run-length encoded string."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crx.from_rle
import crx.suffix
from crx import (
    InvalidInputError,
    Literal,
    Lz78Factorization,
    Reference,
    RleString,
    Text,
    expand_rle,
    expand_slp,
    naive_bisection,
    naive_lz77,
    naive_lz78,
    naive_repair,
    rank_runs,
    rle_as_slp,
    rle_encode,
    rle_to_bisection,
    rle_to_lz77,
    rle_to_lz78,
    rle_to_repair,
)
from helpers import long_run_lists, random_runs, record_calls

AB3 = RleString(((0, 3), (1, 2), (0, 3)))  # aaabbaaa


def test_span_content_key_equality_matches_string_equality():
    # equal end pieces around (1,2)(0,3)(1,2) and (1,2)(2,3)(1,2) inner runs
    runs = ((0, 3), (1, 2), (0, 3), (1, 2), (0, 3), (1, 2), (2, 3), (1, 2), (0, 3))
    m = rank_runs(RleString(runs))
    text = expand_rle(RleString(runs)).to_str()
    n = len(text)
    spans = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    keys = {sp: m.span_key(*sp) for sp in spans}
    for a in spans:
        for b in spans:
            same_str = text[a[0] - 1:a[1]] == text[b[0] - 1:b[1]]
            if keys[a] != keys[b]:
                assert not same_str, (a, b)
                continue
            assert (m.char_lce(a[0], b[0]) >= a[1] - a[0] + 1) == same_str, (a, b)
            assert m.span_equals(a[0], a[1], b[0]) == same_str, (a, b)


def test_lz77_three_run_example_both_variants():
    f = rle_to_lz77(AB3)
    assert f.factors == naive_lz77(Text.from_str("aaabbaaa")).factors
    g = rle_to_lz77(AB3, self_referential=True)
    assert g.factors == naive_lz77(Text.from_str("aaabbaaa"),
                                   self_referential=True).factors
    assert g.factors == (Literal(0), Reference(1, 2), Literal(1),
                         Reference(4, 1), Reference(1, 3))


def test_lz77_single_giant_run():
    p = 2**30
    f = rle_to_lz77(RleString(((0, p),)), self_referential=True)
    assert f.factors == (Literal(0), Reference(1, p - 1))
    g = rle_to_lz77(RleString(((0, p), (1, p))), self_referential=True)
    assert len(g.factors) == 4
    h = rle_to_lz77(RleString(((0, p), (1, p))))
    assert len(h.factors) == 62


def test_lz77_crossing_occurrence():
    # best factor for the tail crosses a run boundary
    r = rle_encode(Text.from_str("aabab"))
    f = rle_to_lz77(r)
    assert f.factors == naive_lz77(Text.from_str("aabab")).factors


def test_lz78_giant_run_is_polylog():
    p = 2**20
    f = rle_to_lz78(RleString(((0, p),)))
    assert isinstance(f, Lz78Factorization)
    assert len(f.factor_ids) == 1448
    assert f.alphabet_size == 1


def test_lz78_builds_no_run_index(monkeypatch):
    # the trie walk reads runs from the cursor's run; no suffix array or LCP
    rng = random.Random(127)
    inputs = [RleString(random_runs(rng, max_runs=12, max_exp=40)) for _ in range(60)]
    inputs.append(RleString(((0, 5000), (1, 1)) + ((0, 1), (1, 1)) * 30))
    calls = record_calls(monkeypatch, "rank_runs", crx.suffix, crx.from_rle)
    for r in inputs:
        assert rle_to_lz78(r) == naive_lz78(expand_rle(r))
    assert calls == []


@pytest.mark.parametrize("runs, code, location", [
    (((0, 2), (0, 3), (1, 1), (0, 2), (0, 2), (1, 4)), "adjacent-equal-runs", "run 2"),
    (((0, 2), (1, 1), (0, 2), (0, 2), (1, 4)), "adjacent-equal-runs", "run 4"),
    (((0, 2), (1, 0), (0, 3), (1, 2)), "zero-exponent", "run 2"),
])
def test_conversions_reject_runs_that_are_not_maximal(runs, code, location):
    # the run walks can give a wrong output for the decoded string on
    # these, so the type refuses to hold them and no conversion sees them
    with pytest.raises(InvalidInputError) as err:
        RleString(runs)
    assert (err.value.code, err.value.location) == (code, location)


def test_repair_matches_naive_rule_for_rule():
    for s in ("aabaab", "aaaa", "abababab", "aaabbbaaabbb", "aabbaabbaabb",
              "abcabcabcab"):
        t = Text.from_str(s)
        assert rle_to_repair(rle_encode(t)) == naive_repair(t)


@st.composite
def periodic_run_lists(draw):
    """The runs of a short block repeated, (ab)^k and its kin, with a
    ragged end: runs of a new variable meet and merge, and pairs tie on
    count."""
    block = draw(st.lists(st.integers(0, 3), min_size=2, max_size=6))
    tail = draw(st.lists(st.integers(0, 3), max_size=3))
    return rle_encode(Text(tuple(block * draw(st.integers(2, 12)) + tail)))


REPAIR_INPUTS = st.one_of(
    long_run_lists(sigma=1, max_exp=300),  # one symbol: a single long run
    long_run_lists(sigma=2, max_exp=40, max_runs=12),  # long runs: self pairs
    long_run_lists(sigma=4, max_exp=2, max_runs=30),  # short runs: many ties
    periodic_run_lists(),
)


@settings(max_examples=300, deadline=None)
@given(REPAIR_INPUTS)
def test_repair_matches_naive_on_run_lists(r):
    assert rle_to_repair(r) == naive_repair(expand_rle(r))


@st.composite
def nudged_block_run_lists(draw):
    """A block of runs repeated with one exponent nudged by one per copy:
    boundaries of one symbol pair that beat each other in only one of
    their two exponents, and copies of the cursor's next run, whose
    reach takes a meta LCE."""
    block = draw(long_run_lists(sigma=3, max_exp=4, min_runs=2, max_runs=5)).runs
    text: list[int] = []
    for _ in range(draw(st.integers(2, 8))):
        k = draw(st.integers(0, len(block) - 1))
        nudge = draw(st.sampled_from((-1, 1))) if block[k][1] > 1 else 1
        for i, (sym, exp) in enumerate(block):
            text += [sym] * (exp + nudge * (i == k))
    return rle_encode(Text(tuple(text)))


LZ77_INPUTS = st.one_of(
    long_run_lists(sigma=2, max_exp=40, max_runs=12),  # long runs
    long_run_lists(sigma=4, max_exp=2, max_runs=30),  # short runs: many equal runs
    periodic_run_lists(),
    nudged_block_run_lists(),
)


@settings(max_examples=300, deadline=None)
@given(LZ77_INPUTS)
def test_lz77_matches_naive_on_run_lists(r):
    t = expand_rle(r)
    for self_ref in (False, True):
        assert rle_to_lz77(r, self_ref) == naive_lz77(t, self_ref)


def test_lz77_scores_few_boundaries_per_factor(monkeypatch):
    # a window crossing the cursor's run is answered from the staircase
    # of its symbol pair and the boundaries whose run equals the next
    # run; only the latter take a meta LCE, where scoring every earlier
    # run boundary takes some 40 per factor on this input
    rng = random.Random(2011)
    runs, prev = [], -1
    for _ in range(2000):
        sym = rng.choice([c for c in range(4) if c != prev])
        runs.append((sym, rng.randint(1, 50)))
        prev = sym
    calls = []
    real = crx.suffix.MetaText.meta_lce
    monkeypatch.setattr(crx.suffix.MetaText, "meta_lce",
                        lambda self, i, j: calls.append(i) or real(self, i, j))
    f = rle_to_lz77(RleString(tuple(runs)))
    assert len(calls) <= 3 * len(f.factors)


def test_lz77_answers_each_source_once(monkeypatch):
    # a leftmost start comes with its whole common extension with the
    # cursor, so with self-references the driver grows a factor along it
    # in one step and never gets the same start twice at one cursor
    answers = []
    real = crx.from_rle.lz77_driver

    def driver(n, self_ref, char, lce, leftmost):
        def recorded(pos, length):
            answers.append((pos, leftmost(pos, length)))
            return answers[-1][1]
        return real(n, self_ref, char, lce, recorded)

    monkeypatch.setattr(crx.from_rle, "lz77_driver", driver)
    rng = random.Random(23)
    for _ in range(200):
        block = [rng.randrange(3) for _ in range(rng.randint(2, 8))]
        answers.clear()
        rle_to_lz77(rle_encode(Text(tuple(block * rng.randint(2, 6)))), True)
        assert len(answers) == len(set(answers))


def test_bisection_matches_naive_rule_for_rule():
    for s in ("aaaaaa", "abobab", "aababaababaab", "ab"):
        t = Text.from_str(s)
        assert rle_to_bisection(rle_encode(t)) == naive_bisection(t)


def test_all_conversions_random_vs_naive():
    rng = random.Random(59)
    for _ in range(120):
        runs = random_runs(rng, max_runs=9, sigma=3, max_exp=7)
        r = RleString(runs)
        t = expand_rle(r)
        assert rle_to_lz77(r).factors == naive_lz77(t).factors
        assert (rle_to_lz77(r, self_referential=True).factors
                == naive_lz77(t, self_referential=True).factors)
        lf = rle_to_lz78(r)
        nf = naive_lz78(t)
        assert lf.factor_ids == nf.factor_ids
        assert lf.alphabet_size == nf.alphabet_size
        assert rle_to_repair(r) == naive_repair(t)
        assert rle_to_bisection(r) == naive_bisection(t)


def test_rle_as_slp_round_trip():
    rng = random.Random(61)
    for _ in range(60):
        runs = random_runs(rng, max_runs=8, sigma=3, max_exp=50)
        r = RleString(runs)
        s = rle_as_slp(r)
        assert expand_slp(s) == expand_rle(r)


def test_rle_as_slp_giant_run_stays_small():
    s = rle_as_slp(RleString(((0, 2**30), (1, 5))))
    assert s.length == 2**30 + 5
    assert s.n < 80
