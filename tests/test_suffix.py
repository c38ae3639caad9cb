"""Suffix arrays, LCP, LCE index and the run-rank layer on top."""

import gc
import random
import tracemalloc
from functools import cmp_to_key
from itertools import repeat
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crx.suffix
from crx import (
    InvalidInputError,
    LceIndex,
    RleString,
    Text,
    lcp_array,
    rank_runs,
    rle_as_slp,
    rle_encode,
    rle_to_bisection,
    rle_to_lz77,
    slp_to_bisection,
    suffix_array,
)
from crx.suffix import _BLOCK, _SCAN_RUNS, MetaText
from helpers import random_runs, short_runs


def brute_sa(seq):
    n = len(seq)
    return sorted(range(1, n + 1), key=lambda i: tuple(seq[i - 1:]))


def brute_lcp(seq, sa):
    out = [0]
    for a, b in zip(sa, sa[1:]):
        x, y = seq[a - 1:], seq[b - 1:]
        k = 0
        while k < min(len(x), len(y)) and x[k] == y[k]:
            k += 1
        out.append(k)
    return out


def brute_lce(seq, i, j):
    x, y = seq[i - 1:], seq[j - 1:]
    k = 0
    while k < min(len(x), len(y)) and x[k] == y[k]:
        k += 1
    return k


def test_banana_frozen():
    seq = [1, 0, 13, 0, 13, 0]
    sa = suffix_array(seq)
    assert sa == [6, 4, 2, 1, 5, 3]
    assert lcp_array(seq, sa) == [0, 1, 3, 0, 0, 2]
    idx = LceIndex(seq)
    assert idx.lce(2, 4) == 3
    assert idx.lce(2, 2) == 5
    assert idx.lce(1, 2) == 0


def test_constant_sequence():
    assert suffix_array([1, 1, 1]) == [3, 2, 1]
    assert lcp_array([1, 1, 1], [3, 2, 1]) == [0, 1, 2]


def test_single_element():
    assert suffix_array([42]) == [1]
    assert lcp_array([42], [1]) == [0]


def test_suffix_array_random_vs_brute():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 40)
        seq = [rng.randrange(4) for _ in range(n)]
        sa = suffix_array(seq)
        assert sa == brute_sa(seq)
        assert lcp_array(seq, sa) == brute_lcp(seq, sa)


def test_lce_random_vs_brute():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(1, 30)
        seq = [rng.randrange(3) for _ in range(n)]
        idx = LceIndex(seq)
        for _ in range(20):
            i, j = rng.randint(1, n), rng.randint(1, n)
            assert idx.lce(i, j) == brute_lce(seq, i, j)


def test_rank_runs_frozen():
    m = rank_runs(RleString(((0, 3), (1, 2), (0, 3))))
    assert m.ranks == [1, 2, 1]
    assert m.prefix_len == [0, 3, 5, 8]
    assert m.length == 8
    assert m.meta_lce(1, 3) == 1
    assert m.meta_lce(1, 1) == 3
    assert m.meta_lce(2, 3) == 0


def test_rank_runs_distinct_exponents_get_distinct_ranks():
    m = rank_runs(RleString(((0, 3), (1, 1), (0, 2))))
    # (0,2) and (0,3) are different meta symbols
    assert m.ranks[0] != m.ranks[2]


def test_char_lce_within_and_across_runs():
    # aaabbaaa vs suffixes of itself
    m = MetaText(RleString(((0, 3), (1, 2), (0, 3))))
    expand = "aaabbaaa"

    def brute(s, t):
        x, y = expand[s - 1:], expand[t - 1:]
        k = 0
        while k < min(len(x), len(y)) and x[k] == y[k]:
            k += 1
        return k

    for s in range(1, 9):
        for t in range(1, 9):
            assert m.char_lce(s, t) == brute(s, t), (s, t)
    assert m.char_lce(1, 9) == 0
    assert m.char_lce(1, 1) == 8


def test_meta_text_takes_maximal_runs():
    # equal neighbours are refused where the runs become an RleString;
    # char_lce's arithmetic assumes maximal runs and answered 1 on these
    with pytest.raises(InvalidInputError) as ei:
        MetaText(RleString(((0, 1), (0, 2), (1, 1))))
    assert (ei.value.code, ei.value.location) == ("adjacent-equal-runs", "run 2")
    assert MetaText(RleString(((0, 3), (1, 1)))).char_lce(1, 2) == 2


def test_char_lce_random_vs_brute():
    rng = random.Random(23)
    for _ in range(150):
        runs = random_runs(rng, max_runs=7, sigma=3, max_exp=5)
        m = MetaText(RleString(runs))
        expand = "".join(chr(ord("a") + s) * e for s, e in runs)
        n = len(expand)
        for _ in range(25):
            s, t = rng.randint(1, n), rng.randint(1, n)
            x, y = expand[s - 1:], expand[t - 1:]
            k = 0
            while k < min(len(x), len(y)) and x[k] == y[k]:
                k += 1
            assert m.char_lce(s, t) == k, (runs, s, t)


def test_meta_suffix_structures_random():
    rng = random.Random(29)
    for _ in range(120):
        runs = random_runs(rng, max_runs=10, sigma=3, max_exp=6)
        m = rank_runs(RleString(runs))
        sa = suffix_array(m.ranks)
        assert sa == brute_sa(m.ranks)
        assert lcp_array(m.ranks, sa) == brute_lcp(m.ranks, sa)


@st.composite
def index_sequences(draw):
    """0 to 2,000 symbols: random over 1-4 symbols, one symbol repeated,
    or a block of 1-5 symbols repeated and cut. The long periodic ones
    take the doubling through ~11 rounds."""
    n = draw(st.integers(0, 2000))
    kind = draw(st.sampled_from(("random", "one", "periodic")))
    if kind == "one":
        return [draw(st.integers(0, 9))] * n
    if kind == "periodic":
        block = draw(st.lists(st.integers(0, 2), min_size=1, max_size=5))
        return (block * (n // len(block) + 1))[:n]
    rng = draw(st.randoms(use_true_random=False))
    sigma = draw(st.integers(1, 4))
    return [rng.randrange(sigma) for _ in range(n)]


def brute_lce_table(seq):
    """table[i][j] = common prefix length of the 0-based suffixes i, j."""
    n = len(seq)
    arr = np.asarray(seq)
    table = np.zeros((n + 1, n + 1), dtype=np.int32)
    for i in range(n - 1, -1, -1):
        table[i, :n] = np.where(arr == arr[i], table[i + 1, 1:] + 1, 0)
    return table


@settings(max_examples=25, deadline=None)
@given(index_sequences())
@example([])
@example([5])
@example([0, 0, 1] * 667)  # 12 doubling rounds
def test_lce_index_matches_brute_force(seq):
    n = len(seq)
    idx = LceIndex(seq)
    table = brute_lce_table(seq)

    def before(a, b):  # compare the suffixes at 1-based a, b by brute force
        k = table[a - 1, b - 1]
        return -1 if a + k > n or (b + k <= n and seq[a + k - 1] < seq[b + k - 1]) else 1

    sa = sorted(range(1, n + 1), key=cmp_to_key(before))
    rank = [0] * (n + 1)
    for r, p in enumerate(sa):
        rank[p] = r
    assert suffix_array(seq) == sa
    lcp = [0, *(table[a - 1, b - 1] for a, b in zip(sa, sa[1:]))][:n]
    assert list(idx.lcp) == lcp
    assert list(idx.rank) == rank
    # head and tail: minima within a block up to and from each entry;
    # blocks[k][b]: the minimum of the LCP blocks b .. b + 2^k - 1
    assert list(idx.head) == [min(lcp[p - p % _BLOCK:p + 1]) for p in range(n)]
    assert list(idx.tail) == [min(lcp[p:p - p % _BLOCK + _BLOCK]) for p in range(n)]
    mins = [min(lcp[b:b + _BLOCK]) for b in range(0, n, _BLOCK)]
    assert [list(row) for row in idx.blocks] == [
        [min(mins[b:b + (1 << k)]) for b in range(len(mins) - (1 << k) + 1)]
        for k in range(max(len(mins).bit_length(), 1))]
    # lce is symmetric in its code; both rank orders occur among i <= j
    got = [list(map(idx.lce, repeat(i), range(i, n + 1))) for i in range(1, n + 1)]
    assert got == [table[i, i:n].tolist() for i in range(n)]
    # a numpy scalar would compare equal above but repr as np.int64(3)
    stored = [idx.rank, idx.lcp, idx.head, idx.tail, *idx.blocks, *got]
    assert all(type(x) is int for row in stored for x in row)


def test_char_lce_rejects_position_before_start():
    m = MetaText(RleString(((0, 2), (1, 3), (0, 1))))
    with pytest.raises(IndexError, match=r"position -1 out of range 1\.\.6"):
        m.char_lce(-1, 2)
    with pytest.raises(IndexError, match=r"position 0 out of range 1\.\.6"):
        m.char_lce(3, 0)
    assert m.char_lce(2, 7) == 0  # past the end still extends by nothing


def test_lce_index_rejects_position_zero():
    idx = LceIndex([1, 2, 1, 2, 3])
    with pytest.raises(IndexError, match=r"positions 0, 3 out of range 1\.\.5"):
        idx.lce(0, 3)
    with pytest.raises(IndexError, match=r"out of range 1\.\.5"):
        idx.lce(2, 6)
    with pytest.raises(IndexError, match=r"out of range 1\.\.0"):
        LceIndex([]).lce(1, 1)


def run_lce(runs, s, t):
    """Common extension at character positions s, t, by walking the runs."""
    def at(pos):  # (run index, characters left in it) at pos
        for u, (_, exp) in enumerate(runs):
            if pos <= exp:
                return u, exp - pos + 1
            pos -= exp
        return len(runs), 0

    (u, left_u), (w, left_w) = at(s), at(t)
    total = 0
    while u < len(runs) and w < len(runs) and runs[u][0] == runs[w][0]:
        step = min(left_u, left_w)
        total += step
        left_u -= step
        left_w -= step
        if not left_u:
            u += 1
            left_u = runs[u][1] if u < len(runs) else 0
        if not left_w:
            w += 1
            left_w = runs[w][1] if w < len(runs) else 0
    return total


def test_huge_exponents_stay_python_ints():
    # exponents past int64: only ranks may reach numpy
    e = 2 ** 70
    runs = ((0, e), (1, 1), (0, e), (1, 1))
    r = RleString(runs)
    m = rank_runs(r)
    assert m.length == 2 * e + 2
    assert all(type(x) is int for x in [*m.ranks, *m.prefix_len])
    assert m.char_lce(1, e + 2) == e + 1
    edges = sorted({p + d for p in m.prefix_len for d in (-1, 0, 1, 2)
                    if 1 <= p + d <= m.length})
    for s in edges:
        for t in edges:
            assert m.char_lce(s, t) == run_lce(runs, s, t), (s, t)
    assert len(rle_to_lz77(r).factors) == 73
    g = rle_to_bisection(r)
    assert len(g.rules) == 143
    assert g == slp_to_bisection(rle_as_slp(r))


@st.composite
def run_texts(draw):
    """Up to 480 symbols: random over 2-3 symbols, or a block of 2-7
    symbols repeated with a ragged end, sometimes with one symbol
    changed. The blocks give extensions of up to some 400 equal runs."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        sigma = draw(st.integers(2, 3))
        return [rng.randrange(sigma) for _ in range(draw(st.integers(1, 480)))]
    block = [rng.randrange(3) for _ in range(draw(st.integers(2, 7)))]
    text = (block * 80)[: draw(st.integers(1, 480))]
    if draw(st.booleans()):
        text[rng.randrange(len(text))] = 3
    return text


@pytest.mark.parametrize("scan", [_SCAN_RUNS, 0])
@settings(max_examples=40, deadline=None)
@given(run_texts(), st.randoms(use_true_random=False))
@example([0, 1] * 200, random.Random(0))  # 400 runs of two ranks
def test_meta_and_char_lce_match_brute_force(scan, text, rng):
    # with the scan window as is, an extension past it builds the index
    # halfway through the queries; at 0 every query in range reaches it
    r = rle_encode(Text(tuple(text)))
    with patch.object(crx.suffix, "_SCAN_RUNS", scan):
        meta = MetaText(r)
        m, n = meta.m, meta.length
        runs_table, text_table = brute_lce_table(meta.ranks), brute_lce_table(text)
        for _ in range(300):
            i, j = rng.randint(1, m + 1), rng.randint(1, m + 1)
            want = 0 if max(i, j) > m else runs_table[i - 1, j - 1]
            assert meta.meta_lce(i, j) == want, (i, j)
            s, t = rng.randint(1, n + 1), rng.randint(1, n + 1)
            want = 0 if max(s, t) > n else text_table[s - 1, t - 1]
            assert meta.char_lce(s, t) == want, (s, t)


def test_meta_lce_scans_short_extensions_without_an_index():
    # 400 alternating runs: extensions shorter than the window, or ending
    # the text within it, are counted on the ranks; the first one past it
    # builds the index, which answers every later query
    runs = ((0, 1), (1, 1)) * 200
    meta = MetaText(RleString(runs))
    assert meta.meta_lce(1, 2) == 0
    # the shorter side holds exactly the window's runs, all equal
    assert meta.meta_lce(399 - _SCAN_RUNS, 401 - _SCAN_RUNS) == _SCAN_RUNS
    assert meta.meta_lce(5, 5) == 396
    assert meta._index is None
    assert meta.meta_lce(1, 3) == 398
    index = meta._index
    assert index is not None
    assert meta.meta_lce(2, 3) == 0 and meta.meta_lce(7, 9) == 392
    assert meta._index is index
    with pytest.raises(IndexError, match=r"run positions 0, 3 out of range 1\.\.400"):
        meta.meta_lce(0, 3)


def test_lce_index_holds_linear_memory():
    # 65,536 short runs: the rank and LCP arrays and the in-block minima
    # hold 4 bytes an entry, the block table less; the sparse table over
    # the whole LCP array, 8 bytes an entry, held 8.5 MiB here
    ranks = rank_runs(short_runs(5, 65536, 3)).ranks
    gc.collect()
    tracemalloc.start()
    try:
        idx = LceIndex(ranks)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 8.5 * 2**20 / 2
    assert [idx.lce(i, i + 1) for i in range(1, 100)] == [
        brute_lce(ranks, i, i + 1) for i in range(1, 100)]
