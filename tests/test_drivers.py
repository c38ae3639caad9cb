"""LZ78 and bisection give the same output from both lanes, and the
run lane's LZ77 gives the reference output on plain texts."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crx import (
    RleString,
    Text,
    expand_rle,
    naive_bisection,
    naive_lz77,
    naive_lz78,
    rle_as_slp,
    rle_encode,
    rle_to_bisection,
    rle_to_lz77,
    rle_to_lz78,
    slp_to_bisection,
    slp_to_lz78,
)
from crx.from_rle import _lz78_of_runs
from helpers import T, long_run_lists, slp_of


@settings(max_examples=150, deadline=None)
@given(st.one_of(long_run_lists(), long_run_lists(sigma=1, max_exp=200),
                 long_run_lists(sigma=2, max_exp=10**4), long_run_lists(max_exp=10**4)))
def test_lz78_agrees_across_lanes(r):
    # exponents up to 10**4 outgrow every chain of the trie
    want = naive_lz78(expand_rle(r))
    assert rle_to_lz78(r) == want
    assert slp_to_lz78(rle_as_slp(r)) == want


class CountingRuns:
    """A run list that counts how often it is iterated and how many runs
    are asked of it, and records an ask past its last run."""

    def __init__(self, runs):
        self.runs, self.iters, self.asked, self.past = runs, 0, 0, False

    def __iter__(self):
        self.iters += 1
        return self

    def __next__(self):
        if self.asked == len(self.runs):
            self.past = True
            raise StopIteration
        self.asked += 1
        return self.runs[self.asked - 1]


@settings(max_examples=150, deadline=None)
@given(st.one_of(long_run_lists(), long_run_lists(sigma=1, max_exp=200),
                 long_run_lists(sigma=2, max_exp=10**4)))
@example(RleString(()))
def test_lz78_driver_reads_each_run_once(r):
    # each factor starts on the run the previous one broke on: the runs
    # are read once, front to back, and the last one ends the walk
    runs = CountingRuns(r.runs)
    sigma = max((sym + 1 for sym, _ in r.runs), default=0)
    assert _lz78_of_runs(r.length, sigma, runs) == naive_lz78(expand_rle(r))
    assert runs.iters == 1
    assert runs.asked == len(r.runs)
    assert not runs.past


def single_run_factor_count(n: int) -> int:
    """Factors of LZ78 on one run of n symbols: they read 1, 2, 3, ...
    symbols, the last one possibly fewer, so the least k with
    k(k+1)/2 >= n."""
    k = (math.isqrt(8 * n + 1) - 1) // 2
    return k if k * (k + 1) // 2 >= n else k + 1


def test_lz78_of_giant_runs_agrees_across_lanes():
    # lengths no expansion reaches: the program lane is the reference,
    # and a single run has a closed form. A run of N symbols needs at
    # least sqrt(N) factors, since each new entry is one symbol longer
    # than an older one, so exponents past 2^40 are out of reach of any
    # LZ78 route
    assert single_run_factor_count(2**20) == 1448
    for n in (2**20, 2**40 + 3):
        r = RleString(((1, n),))
        f = rle_to_lz78(r)
        assert len(f.factor_ids) == single_run_factor_count(n)
        assert f.factor_ids[:4] == (2, 3, 4, 5)
        assert slp_to_lz78(rle_as_slp(r)) == f
    rng = random.Random(4078)
    for bits in (20, 24, 30):
        for _ in range(3):
            runs, prev = [], -1
            for _ in range(rng.randint(1, 4)):
                sym = rng.choice([c for c in range(3) if c != prev])
                runs.append((sym, 2**bits + rng.randint(-3, 3)))
                prev = sym
            r = RleString(tuple(runs))
            assert rle_to_lz78(r) == slp_to_lz78(rle_as_slp(r)), r.runs


@st.composite
def random_or_block_texts(draw):
    """Random texts over 1-3 symbols, or a random block repeated and cut."""
    sigma = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return Text(tuple(draw(st.lists(st.integers(0, sigma - 1), min_size=1, max_size=80))))
    block = draw(st.lists(st.integers(0, sigma - 1), min_size=1, max_size=9))
    reps = draw(st.integers(1, 40))
    cut = draw(st.integers(1, len(block) * reps))
    return Text(tuple((block * reps)[:cut]))


@settings(max_examples=150, deadline=None)
@given(random_or_block_texts(), st.booleans())
def test_rle_to_lz77_on_plain_text(t, self_ref):
    assert rle_to_lz77(rle_encode(t), self_ref) == naive_lz77(t, self_ref)


@settings(max_examples=150, deadline=None)
@given(random_or_block_texts())
def test_lz78_of_bisection_programs(t):
    want = naive_lz78(t)
    assert slp_to_lz78(slp_of(t)) == want
    assert rle_to_lz78(rle_encode(t)) == want


@pytest.mark.parametrize("text, ids", [
    ("aaaaaa", (1, 2, 3)),         # the last factor ends its chain at the text's end
    ("aaaaaaa", (1, 2, 3, 1)),     # ... or ends inside a longer chain
    ("abbbbb", (1, 2, 4, 4)),      # ... inside the run-chain of b
    ("abab", (1, 2, 3)),           # a whole run, then the text ends on the next
    ("a", (1,)),
])
def test_lz78_last_factor_adds_no_entry(text, ids):
    t = T(text)
    want = naive_lz78(t)
    assert want.factor_ids == ids
    assert rle_to_lz78(rle_encode(t)) == want
    assert slp_to_lz78(slp_of(t)) == want
    assert slp_to_lz78(rle_as_slp(rle_encode(t))) == want


@st.composite
def bisection_run_lists(draw):
    """Runs over 1-4 symbols with exponents up to 2 or 50, of any length
    or of 2^k - 1, 2^k or 2^k + 1 symbols, where the right spine has the
    most, one or two blocks; one symbol gives a single run."""
    sigma = draw(st.integers(1, 4))
    cap = draw(st.sampled_from((2, 50)))
    if draw(st.booleans()):
        return draw(long_run_lists(sigma=sigma, max_exp=cap, max_runs=30))
    n = (1 << draw(st.integers(1, 9))) + draw(st.sampled_from((-1, 0, 1)))
    if sigma == 1:
        return RleString(((0, n),))
    rng = draw(st.randoms(use_true_random=False))
    runs, prev = [], -1
    while n:
        sym = rng.choice([c for c in range(sigma) if c != prev])
        runs.append((sym, min(n, rng.randint(1, cap))))
        n -= runs[-1][1]
        prev = sym
    return RleString(tuple(runs))


@settings(max_examples=300, deadline=None)
@given(st.one_of(long_run_lists(), bisection_run_lists()))
@example(RleString(((0, 1),)))
@example(RleString(((2, 1), (0, 1))))
def test_bisection_agrees_across_lanes(r):
    want = naive_bisection(expand_rle(r))
    assert rle_to_bisection(r) == want
    assert slp_to_bisection(rle_as_slp(r)) == want


def test_bisection_of_giant_runs_agrees_across_lanes():
    # lengths no expansion reaches: the program lane is the reference
    rng = random.Random(4066)
    inputs = [RleString(((0, 2**60 + 1), (1, 2**59 + 3)))]
    for bits in (40, 66, 70):
        for _ in range(4):
            runs, prev = [], -1
            for _ in range(rng.randint(1, 6)):
                sym = rng.choice([c for c in range(3) if c != prev])
                runs.append((sym, 2**bits + rng.randint(-3, 3)))
                prev = sym
            inputs.append(RleString(tuple(runs)))
    for r in inputs:
        assert rle_to_bisection(r) == slp_to_bisection(rle_as_slp(r)), r.runs
