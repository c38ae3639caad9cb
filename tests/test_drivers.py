"""The shared drivers give the reference output from a plain-text lane and
the same output from both lanes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crx import (
    Text,
    expand_rle,
    naive_bisection,
    naive_lz77,
    naive_lz78,
    rle_as_slp,
    rle_encode,
    rle_to_bisection,
    rle_to_lz78,
    slp_to_bisection,
    slp_to_lz78,
)
from crx.drivers import lz77_driver
from helpers import T, long_run_lists, slp_of


@settings(max_examples=150, deadline=None)
@given(st.one_of(long_run_lists(), long_run_lists(sigma=1, max_exp=200),
                 long_run_lists(sigma=2, max_exp=10**4), long_run_lists(max_exp=10**4)))
def test_lz78_agrees_across_lanes(r):
    # exponents up to 10**4 outgrow every chain of the trie
    want = naive_lz78(expand_rle(r))
    assert rle_to_lz78(r) == want
    assert slp_to_lz78(rle_as_slp(r)) == want


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
def test_lz77_driver_on_plain_text(t, self_ref):
    # the driver's contract apart from either lane: primitives on the text
    syms = t.symbols

    def lce(i, j, limit):
        assert limit >= 0 and max(i, j) + limit - 1 <= len(syms)
        pairs = zip(syms[i - 1:i - 1 + limit], syms[j - 1:j - 1 + limit])
        return next((k for k, (x, y) in enumerate(pairs) if x != y), limit)

    def leftmost(pos, length):
        assert pos > 1 and pos + length - 1 <= len(syms)
        window = syms[pos - 1:pos - 1 + length]
        return next(k for k in range(1, pos + 1) if syms[k - 1:k - 1 + length] == window)

    assert lz77_driver(len(t), self_ref, t.char, lce, leftmost) == naive_lz77(t, self_ref)


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


@settings(max_examples=100, deadline=None)
@given(long_run_lists())
def test_bisection_agrees_across_lanes(r):
    want = naive_bisection(expand_rle(r))
    assert rle_to_bisection(r) == want
    assert slp_to_bisection(rle_as_slp(r)) == want
