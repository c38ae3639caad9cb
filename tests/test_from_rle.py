"""Conversions that start from a run-length encoded string."""

import random
from functools import partial

import pytest

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
from helpers import random_runs, record_calls

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
    # the run walks can give a wrong output for the decoded string on these
    r = RleString(runs)
    for convert in (rle_to_lz77, partial(rle_to_lz77, self_referential=True),
                    rle_to_lz78, rle_to_repair, rle_to_bisection):
        with pytest.raises(InvalidInputError) as err:
            convert(r)
        assert (err.value.code, err.value.location) == (code, location)


def test_repair_matches_naive_rule_for_rule():
    for s in ("aabaab", "aaaa", "abababab", "aaabbbaaabbb"):
        t = Text.from_str(s)
        assert rle_to_repair(rle_encode(t)) == naive_repair(t)


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
