"""Suffix array, LCP and LCE machinery over integer sequences.

The run lane's LZ77, their one user among the conversions, never
indexes the raw text. It indexes the run-length encoding instead: each
distinct (symbol, exponent) pair gets a rank, the sequence of ranks
forms a meta text, and longest common extensions on it translate back
to character counts with a little boundary arithmetic.

A meta text answers an extension by comparing its two rank sequences
directly, up to `_SCAN_RUNS` runs; only the first extension that runs
past them builds its LCE index, which it then keeps. The index over a
sequence comes from one numpy prefix-doubling pass (Manber & Myers)
that keeps each round's ranks, as int32 below 2^31 symbols. The suffix
array is the last round's order; the LCP of every adjacent pair of
suffixes is lifted over the kept rounds from the top down, and range
minima over the LCP array come from its blocks of `_BLOCK` entries:
minima within each block from its start and to its end, and a sparse
table over the block minima (Bender & Farach-Colton), O(m) entries in
all. numpy only sees ranks; the run exponents, which may exceed 64
bits, stay Python ints.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Sequence
from itertools import accumulate

import numpy as np

from .model import RleString

# runs that MetaText.meta_lce compares one by one before it builds the
# LCE index: on short-exponent runs the run lane's extensions end within
# 7 runs, most at 2. A scan reads a run in about 45 ns, the build takes
# about 230 ns a run (0.46 ms at 2,048 runs, 2-core VM), so a full scan
# costs under 1% of a build of 2,048 runs; an extension past it marks a
# repetitive text, which asks many long ones
_SCAN_RUNS = 64

# LCP entries per block of LceIndex's range minima: a query within one
# block scans at most this many, and the sparse table over the block
# minima holds fewer entries than the LCP array below 2^37 of them
_BLOCK = 32


def _dense_ranks(key: np.ndarray, dtype: type) -> tuple[np.ndarray, int]:
    """The dense rank of each of key's values, in their order, with one
    extra -1 entry at the end, and the number of distinct values. It
    holds the key, its sort order and the sorted keys, where np.unique
    with its inverse holds about twice that."""
    n = len(key)
    order = np.argsort(key)
    key = key[order]
    step = np.zeros(n, dtype=dtype)
    np.not_equal(key[1:], key[:-1], out=step[1:], casting="unsafe")
    del key
    np.cumsum(step, out=step)
    rank = np.empty(n + 1, dtype=dtype)
    rank[order], rank[n] = step, -1
    return rank, int(step[-1]) + 1 if n else 0


def _doubling(seq: Sequence[int]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Prefix doubling over seq, whose values must fit in int64: the
    0-based suffix order and, for each round t, the dense rank of every
    suffix's first 2^t symbols (equal ranks for equal blocks), with one
    extra -1 entry at position n. The last round's ranks are distinct.
    The order and the ranks are int32 below 2^31 symbols, else int64;
    the keys that order a round's pairs are int64 either way."""
    n = len(seq)
    dtype = np.int32 if n < 1 << 31 else np.int64
    rank, distinct = _dense_ranks(np.asarray(seq, dtype=np.int64), dtype)
    rounds = [rank]
    k = 1
    while distinct < n:
        # one int64 key per (rank, second) pair, ordered as the pairs are,
        # where second is the rank k symbols on plus 1, or 0 past the end
        key = rank[:n].astype(np.int64) * (n + 1)
        key[: n - k] += rank[k:n] + 1
        rank, distinct = _dense_ranks(key, dtype)
        del key
        rounds.append(rank)
        k *= 2
    order = np.empty(n, dtype=dtype)
    order[rank[:n]] = np.arange(n, dtype=dtype)
    return order, rounds


def _lift(rounds: list[np.ndarray], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Common prefix lengths of the suffixes at 0-based positions a[k] and
    b[k] != a[k]. From the top round down, the 2^t symbols at a + h and
    b + h are equal exactly when their round-t ranks are, and then h
    grows by 2^t; the -1 at position n stops a side that reaches the end."""
    h = np.zeros(len(a), dtype=a.dtype)
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


def _kept(row: np.ndarray) -> array:
    """row as an array('i') or array('q') of its own item size: 4 or 8
    bytes an entry, where a list of ints takes about 40, and a lookup
    still gives a Python int."""
    return array("i" if row.dtype == np.int32 else "q", row.tobytes())


class LceIndex:
    """Longest common extension queries between suffixes of one sequence.

    rank[pos] is the index, in the suffix array, of the suffix at 1-based
    pos (rank[0] = 0 is a placeholder), and lcp is the LCP array, lifted
    over the rounds of the one doubling pass that also gives the order.
    Range minima over lcp come from its blocks of `_BLOCK` entries:
    head[p] and tail[p] are the minima of lcp from the start of p's block
    to p and from p to the end of its block; blocks[0][b] is the minimum
    of block b and blocks[k][b] that of blocks b .. b + 2^k - 1. A query
    within one block scans it at C speed; any other takes the tail of
    its first block, the head of its last and two entries of one block
    row. Every row is an array of 4-byte entries below 2^31 symbols, else
    8, copied from its numpy buffer: about 4m + m / _BLOCK * log(m /
    _BLOCK) entries for m symbols, where a sparse table over the whole
    LCP array holds m log m.
    """

    def __init__(self, seq: Sequence[int]):
        self.n = n = len(seq)
        order, rounds = _doubling(seq)
        dtype = rounds[0].dtype
        lcp = np.zeros(n, dtype=dtype)
        lcp[1:] = _lift(rounds, order[:-1], order[1:])
        del rounds  # free the round arrays before the block rows exist
        rank = np.zeros(n + 1, dtype=dtype)
        rank[order + 1] = np.arange(n, dtype=dtype)
        self.rank = _kept(rank)
        self.lcp = _kept(lcp)
        # one block a row, the last one padded with a value above every entry
        grid = np.full((-(-n // _BLOCK), _BLOCK), n, dtype=dtype)
        grid.ravel()[:n] = lcp
        head = np.minimum.accumulate(grid, axis=1)
        self.head = _kept(head.ravel()[:n])
        self.tail = _kept(np.minimum.accumulate(grid[:, ::-1], axis=1)[:, ::-1].ravel()[:n])
        row = head[:, -1].copy()
        del grid, head
        self.blocks = [_kept(row)]
        width, count = 1, len(row)
        while width * 2 <= count:
            row = np.minimum(row[:-width], row[width:])
            self.blocks.append(_kept(row))
            width *= 2

    def lce(self, i: int, j: int) -> int:
        """Common prefix length of the suffixes at 1-based positions i, j."""
        n = self.n
        if not (0 < i <= n and 0 < j <= n):
            raise IndexError(f"positions {i}, {j} out of range 1..{n}")
        if i == j:
            return n - i + 1
        lo, hi = self.rank[i], self.rank[j]
        if lo > hi:
            lo, hi = hi, lo
        lo += 1  # the minimum of lcp[lo .. hi]
        first, last = lo // _BLOCK + 1, hi // _BLOCK  # the whole blocks between
        if first < last:
            level = (last - first).bit_length() - 1
            row = self.blocks[level]
            return min(self.tail[lo], self.head[hi], row[first], row[last - (1 << level)])
        if first == last:
            return min(self.tail[lo], self.head[hi])
        return min(self.lcp[lo : hi + 1])


class MetaText:
    """A run-length encoded string viewed as a sequence of run ranks.

    It takes an RleString, so its runs are maximal, which the extension
    arithmetic of char_lce relies on. ranks holds one 1-based rank per
    run, equal pairs sharing a rank in the lexicographic order of
    distinct (symbol, exponent) pairs.
    prefix_len[i] is the character length of the first i runs. meta_lce
    counts whole equal runs: it compares the two rank sequences up to
    `_SCAN_RUNS` runs, and builds the LCE index over the ranks only for
    the first extension that reaches past them without reaching the end;
    once built, the index answers every later extension. char_lce
    answers character-level extension queries with one partial run on
    each end around a meta_lce core. The run lane's LZ77 is the one
    conversion that builds it.
    """

    def __init__(self, r: RleString):
        self.runs = r.runs
        self.m = len(self.runs)
        order = {pair: rk for rk, pair in enumerate(sorted(set(self.runs)), start=1)}
        self.ranks = [order[pair] for pair in self.runs]
        self.prefix_len = list(accumulate((exp for _, exp in self.runs), initial=0))
        self.length = self.prefix_len[-1]
        self._index: LceIndex | None = None

    def meta_lce(self, i: int, j: int) -> int:
        """Equal (symbol, exponent) pairs from 1-based run positions i, j."""
        m = self.m
        if i < 1 or j < 1:
            raise IndexError(f"run positions {i}, {j} out of range 1..{m}")
        if i > m or j > m:
            return 0
        index = self._index
        if index is None:
            if i == j:
                return m - i + 1
            ranks = self.ranks
            a, b = i - 1, j - 1
            left = m - (a if a > b else b)  # runs on the shorter side
            stop = left if left < _SCAN_RUNS else _SCAN_RUNS
            k = 0
            while k < stop and ranks[a + k] == ranks[b + k]:
                k += 1
            if k < stop or stop == left:
                return k
            self._index = index = LceIndex(ranks)
        return index.lce(i, j)

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
