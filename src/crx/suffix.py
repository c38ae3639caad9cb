"""Suffix array, LCP and LCE machinery over integer sequences.

The conversions never index the raw text. They index the run-length
encoding instead: each distinct (symbol, exponent) pair gets a rank, the
sequence of ranks forms a meta text, and longest common extensions on it
translate back to character counts with a little boundary arithmetic.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence

import numpy as np

from .model import RleString


def suffix_array(seq: Sequence[int]) -> list[int]:
    """1-based starting positions of the suffixes in sorted order."""
    n = len(seq)
    if n == 0:
        return []
    arr = np.asarray(seq, dtype=np.int64)
    _, rank = np.unique(arr, return_inverse=True)
    rank = rank.astype(np.int64)
    k = 1
    while True:
        second = np.full(n, -1, dtype=np.int64)
        second[: n - k] = rank[k:]
        order = np.lexsort((second, rank))
        fresh = np.empty(n, dtype=np.int64)
        fresh[order[0]] = 0
        bumps = (rank[order[1:]] != rank[order[:-1]]) | (
            second[order[1:]] != second[order[:-1]])
        fresh[order[1:]] = np.cumsum(bumps)
        rank = fresh
        if rank[order[-1]] == n - 1:
            return [int(p) + 1 for p in order]
        k *= 2


def lcp_array(seq: Sequence[int], sa: list[int]) -> list[int]:
    """lcp[i] = common prefix length of suffixes sa[i-1] and sa[i]; lcp[0] = 0."""
    n = len(sa)
    lcp = [0] * n
    rank = [0] * (n + 1)
    for idx, pos in enumerate(sa):
        rank[pos] = idx
    h = 0
    for pos in range(1, n + 1):
        r = rank[pos]
        if r == 0:
            h = 0
            continue
        prev = sa[r - 1]
        while pos + h <= n and prev + h <= n and seq[pos - 1 + h] == seq[prev - 1 + h]:
            h += 1
        lcp[r] = h
        if h:
            h -= 1
    return lcp


class RangeMin:
    """Sparse table for min queries over a fixed array."""

    def __init__(self, values: Sequence[int]):
        row = list(values)
        self.table = [row]
        width = 1
        while width * 2 <= len(row):
            prev = self.table[-1]
            self.table.append([min(prev[i], prev[i + width])
                               for i in range(len(prev) - width)])
            width *= 2

    def query(self, lo: int, hi: int) -> int:
        """Min over the inclusive 0-based index range [lo, hi]."""
        span = hi - lo + 1
        level = span.bit_length() - 1
        row = self.table[level]
        return min(row[lo], row[hi - (1 << level) + 1])


class LceIndex:
    """Longest common extension queries between suffixes of one sequence."""

    def __init__(self, seq: Sequence[int]):
        self.n = len(seq)
        self.sa = suffix_array(seq)
        self.lcp = lcp_array(seq, self.sa)
        self.rank = [0] * (self.n + 1)
        for idx, pos in enumerate(self.sa):
            self.rank[pos] = idx
        self.rmq = RangeMin(self.lcp) if self.n else None

    def lce(self, i: int, j: int) -> int:
        """Common prefix length of the suffixes at 1-based positions i, j."""
        if i == j:
            return self.n - i + 1
        ri, rj = self.rank[i], self.rank[j]
        if ri > rj:
            ri, rj = rj, ri
        return self.rmq.query(ri + 1, rj)


class MetaText:
    """A run-length encoded string viewed as a sequence of run ranks.

    ranks holds one 1-based rank per run, equal pairs sharing a rank in
    the lexicographic order of distinct (symbol, exponent) pairs.
    prefix_len[i] is the character length of the first i runs. meta_lce
    counts whole equal runs; char_lce answers character-level extension
    queries with one partial run on each end around a meta_lce core.
    """

    def __init__(self, runs: Sequence[tuple[int, int]]):
        self.runs = list(runs)
        self.m = len(self.runs)
        order = {pair: rk for rk, pair in enumerate(sorted(set(self.runs)), start=1)}
        self.ranks = [order[pair] for pair in self.runs]
        self.prefix_len = [0]
        for _, exp in self.runs:
            self.prefix_len.append(self.prefix_len[-1] + exp)
        self.length = self.prefix_len[-1]
        self._lce = LceIndex(self.ranks) if self.m else None

    def symbol(self, pos: int) -> int:
        """Symbol at 1-based character position pos."""
        return self.runs[bisect_left(self.prefix_len, pos) - 1][0]

    def span_key(self, i: int, j: int) -> tuple:
        """Length, end pieces and run count of the text at i..j, plus the
        ranks of its first and last whole inner runs: a key that agrees on
        equal strings and pins down every span of at most four runs."""
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
        pl = self.prefix_len
        return (bisect_left(pl, j) - bisect_left(pl, i) < 4
                or self.char_lce(i, k) >= j - i + 1)

    def meta_lce(self, i: int, j: int) -> int:
        """Equal (symbol, exponent) pairs from 1-based run positions i, j."""
        if i > self.m or j > self.m:
            return 0
        return self._lce.lce(i, j)

    def char_lce(self, s: int, t: int) -> int:
        """Common extension of the decoded text at character positions s, t."""
        if s > t:
            s, t = t, s
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
    return MetaText(r.runs)
