"""The shared LZ78 and bisection drivers give the same output from both lanes."""

from hypothesis import given, settings

from crx import (
    expand_rle,
    naive_bisection,
    naive_lz78,
    rle_as_slp,
    rle_to_bisection,
    rle_to_lz78,
    slp_to_bisection,
    slp_to_lz78,
)
from helpers import long_run_lists


@settings(max_examples=100, deadline=None)
@given(long_run_lists())
def test_lz78_agrees_across_lanes(r):
    want = naive_lz78(expand_rle(r))
    assert rle_to_lz78(r) == want
    assert slp_to_lz78(rle_as_slp(r)) == want


@settings(max_examples=100, deadline=None)
@given(long_run_lists())
def test_bisection_agrees_across_lanes(r):
    want = naive_bisection(expand_rle(r))
    assert rle_to_bisection(r) == want
    assert slp_to_bisection(rle_as_slp(r)) == want
