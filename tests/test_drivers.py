"""The shared LZ78 and bisection drivers give the same output from both lanes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crx import (
    Text,
    expand_rle,
    naive_bisection,
    naive_lz78,
    rle_as_slp,
    rle_encode,
    rle_to_bisection,
    rle_to_lz78,
    slp_to_bisection,
    slp_to_lz78,
)
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
