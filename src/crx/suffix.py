"""Suffix array, LCP and LCE machinery over integer sequences.

The conversions never index the raw text. They index the run-length
encoding instead: each distinct (symbol, exponent) pair gets a rank, the
sequence of ranks forms a meta text, and longest common extensions on it
translate back to character counts with a little boundary arithmetic.

The index over a sequence comes from one numpy prefix-doubling pass
(Manber & Myers) that keeps each round's ranks. The suffix array is the
last round's order; the LCP of every adjacent pair of suffixes is lifted
over the kept rounds from the top down, and a sparse table over the LCP
array (Bender & Farach-Colton) answers range minima. numpy only sees
ranks; the run exponents, which may exceed 64 bits, stay Python ints.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from itertools import accumulate

import numpy as np

from .model import RleString


def _doubling(seq: Sequence[int]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Prefix doubling over seq, whose values must fit in int64: the
    0-based suffix order and, for each round t, the dense rank of every
    suffix's first 2^t symbols (equal ranks for equal blocks), with one
    extra -1 entry at position n. The last round's ranks are distinct."""
    n = len(seq)
    values, rank = np.unique(np.asarray(seq, dtype=np.int64), return_inverse=True)
    rank = np.append(rank, -1)
    rounds = [rank]
    k = 1
    while len(values) < n:
        second = np.full(n, -1, dtype=np.int64)
        second[: n - k] = rank[k:n]
        # one int64 key per (rank, second) pair, ordered as the pairs are
        values, rank = np.unique(rank[:n] * (n + 1) + second + 1, return_inverse=True)
        rank = np.append(rank, -1)
        rounds.append(rank)
        k *= 2
    order = np.empty(n, dtype=np.int64)
    order[rank[:n]] = np.arange(n)
    return order, rounds


def _lift(rounds: list[np.ndarray], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Common prefix lengths of the suffixes at 0-based positions a[k] and
    b[k] != a[k]. From the top round down, the 2^t symbols at a + h and
    b + h are equal exactly when their round-t ranks are, and then h
    grows by 2^t; the -1 at position n stops a side that reaches the end."""
    h = np.zeros(len(a), dtype=np.int64)
    for t in range(len(rounds) - 1, -1, -1):
        rank = rounds[t]
        h[rank[a + h] == rank[b + h]] += 1 << t
    return h


def suffix_array(seq: Sequence[int]) -> list[int]:
    """1-based starting positions of the suffixes in sorted order."""
    return (_doubling(seq)[0] + 1).tolist()


def lcp_array(seq: Sequence[int], sa: list[int]) -> list[int]:
    """lcp[i] = common prefix length of suffixes sa[i-1] and sa[i]; lcp[0] = 0."""
    if not sa:
        return []
    _, rounds = _doubling(seq)
    pos = np.asarray(sa, dtype=np.int64) - 1
    return [0, *_lift(rounds, pos[:-1], pos[1:]).tolist()]


class LceIndex:
    """Longest common extension queries between suffixes of one sequence.

    rank[pos] is the index, in the suffix array, of the suffix at 1-based
    pos (rank[0] = 0 is a placeholder). table[0] is the LCP array, lifted
    over the rounds of the one doubling pass that also gives the order,
    and table[k][r] is the minimum of table[0][r .. r + 2^k - 1]. Every
    array is a Python list, so a query is two list lookups and a min.
    """

    def __init__(self, seq: Sequence[int]):
        self.n = n = len(seq)
        order, rounds = _doubling(seq)
        row = np.zeros(n, dtype=np.int64)
        row[1:] = _lift(rounds, order[:-1], order[1:])
        del rounds  # free the round arrays before the table's lists exist
        rank = np.zeros(n + 1, dtype=np.int64)
        rank[order + 1] = np.arange(n)
        self.rank = rank.tolist()
        self.table = [row.tolist()]
        width = 1
        while width * 2 <= n:
            row = np.minimum(row[:-width], row[width:])
            self.table.append(row.tolist())
            width *= 2

    def lce(self, i: int, j: int) -> int:
        """Common prefix length of the suffixes at 1-based positions i, j."""
        n = self.n
        if not (0 < i <= n and 0 < j <= n):
            raise IndexError(f"positions {i}, {j} out of range 1..{n}")
        if i == j:
            return n - i + 1
        ri, rj = self.rank[i], self.rank[j]
        if ri > rj:
            ri, rj = rj, ri
        level = (rj - ri).bit_length() - 1
        row = self.table[level]
        return min(row[ri + 1], row[rj - (1 << level) + 1])


class MetaText:
    """A run-length encoded string viewed as a sequence of run ranks.

    It takes an RleString, so its runs are maximal, which the extension
    arithmetic of char_lce relies on. ranks holds one 1-based rank per
    run, equal pairs sharing a rank in the lexicographic order of
    distinct (symbol, exponent) pairs.
    prefix_len[i] is the character length of the first i runs. meta_lce
    counts whole equal runs; char_lce answers character-level extension
    queries with one partial run on each end around a meta_lce core.
    """

    def __init__(self, r: RleString):
        self.runs = list(r.runs)
        self.m = len(self.runs)
        order = {pair: rk for rk, pair in enumerate(sorted(set(self.runs)), start=1)}
        self.ranks = [order[pair] for pair in self.runs]
        self.prefix_len = list(accumulate((exp for _, exp in self.runs), initial=0))
        self.length = self.prefix_len[-1]
        self._lce = LceIndex(self.ranks)

    def symbol(self, pos: int) -> int:
        """Symbol at 1-based character position pos."""
        if not 0 < pos <= self.length:
            raise IndexError(f"position {pos} out of range 1..{self.length}")
        return self.runs[bisect_left(self.prefix_len, pos) - 1][0]

    def span_key(self, i: int, j: int) -> tuple:
        """Length, end pieces and run count of the text at i..j, plus the
        ranks of its first and last whole inner runs: a key that agrees on
        equal strings and pins down every span of at most four runs."""
        if not 1 <= i <= j <= self.length:
            raise IndexError(f"span [{i}, {j}] out of range 1..{self.length}")
        pl = self.prefix_len
        u = bisect_left(pl, i) - 1
        w = bisect_left(pl, j) - 1
        if u == w:
            return (j - i + 1, self.runs[u][0])
        inner = (self.ranks[u + 1], self.ranks[w - 1]) if w - u > 1 else ()
        return (j - i + 1, w - u, self.runs[u][0], pl[u + 1] - i + 1,
                self.runs[w][0], j - pl[w], *inner)

    def span_equals(self, i: int, j: int, k: int) -> bool:
        """Is the text at i..j equal to the span of that length at k, given
        equal span_keys? Spans of at most four runs then must be."""
        n = self.length
        if not (1 <= i <= j <= n and 1 <= k <= n - (j - i)):
            raise IndexError(f"spans [{i}, {j}] and [{k}, {k + j - i}] "
                             f"out of range 1..{n}")
        pl = self.prefix_len
        return (bisect_left(pl, j) - bisect_left(pl, i) < 4
                or self.char_lce(i, k) >= j - i + 1)

    def meta_lce(self, i: int, j: int) -> int:
        """Equal (symbol, exponent) pairs from 1-based run positions i, j."""
        if i > self.m or j > self.m:
            return 0
        return self._lce.lce(i, j)

    def char_lce(self, s: int, t: int) -> int:
        """Common extension of the decoded text at character positions s, t;
        0 when one of them lies past the end."""
        if s > t:
            s, t = t, s
        if s < 1:
            raise IndexError(f"position {s} out of range 1..{self.length}")
        if t > self.length:
            return 0
        if s == t:
            return self.length - s + 1
        u = bisect_left(self.prefix_len, s) - 1  # the runs covering s and t
        w = bisect_left(self.prefix_len, t) - 1
        if self.runs[u][0] != self.runs[w][0]:
            return 0
        head_s = self.prefix_len[u + 1] - s + 1
        head_t = self.prefix_len[w + 1] - t + 1
        if head_s != head_t:
            # the shorter side crosses into a run with a different symbol
            return min(head_s, head_t)
        total = head_s
        full = self.meta_lce(u + 2, w + 2)
        total += self.prefix_len[u + 1 + full] - self.prefix_len[u + 1]
        a, b = u + 1 + full, w + 1 + full
        if b < self.m and self.runs[a][0] == self.runs[b][0]:
            total += min(self.runs[a][1], self.runs[b][1])
        return total


def rank_runs(r: RleString) -> MetaText:
    """Rank the runs of an RLE string into a meta text."""
    return MetaText(r)
