"""Suffix arrays, LCP, LCE index and the run-rank layer on top."""

import random

from crx import (
    LceIndex,
    MetaText,
    RleString,
    lcp_array,
    rank_runs,
    suffix_array,
)
from helpers import random_runs


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


def test_symbol_at_run_edges():
    m = MetaText(((0, 3), (1, 2), (2, 3)))
    assert [m.symbol(p) for p in (1, 3, 4, 5, 6, 8)] == [0, 0, 1, 1, 2, 2]


def test_char_lce_within_and_across_runs():
    # aaabbaaa vs suffixes of itself
    m = MetaText(((0, 3), (1, 2), (0, 3)))
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


def test_char_lce_random_vs_brute():
    rng = random.Random(23)
    for _ in range(150):
        runs = random_runs(rng, max_runs=7, sigma=3, max_exp=5)
        m = MetaText(runs)
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
