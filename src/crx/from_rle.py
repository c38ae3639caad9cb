"""Conversions out of run-length encoded strings.

Only the run structure is ever touched. LZ77's driver and bisection's
run on the meta text's symbol lookup and character-level LCE queries,
LZ77's also on leftmost window starts found from the runs; LZ78's
driver reads the runs from the cursor on, and Re-Pair walks them.
Outputs match the reference codecs on the decoded string. The run
walks rely on maximal runs, which every RleString has: its construction
rejects a run of exponent 0 and two adjacent runs of one symbol.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from itertools import accumulate

from .drivers import bisection_driver, lz77_driver, lz78_driver
from .errors import EmptyInputError
from .model import (
    AdmissibleGrammar,
    GrammarItem,
    Lz77Factorization,
    Lz78Factorization,
    RleString,
    Slp,
    Term,
    Var,
    item_key,
)
from .suffix import rank_runs


def rle_to_lz77(r: RleString, self_referential: bool = False) -> Lz77Factorization:
    """Greedy leftmost-longest factorization computed on the runs.

    The shared driver reads symbols off the meta text and asks this lane
    for LCEs and leftmost window starts. Let c^head be the rest of the
    cursor's run. A window c^length (length <= head) starts first at the
    first run of c with exponent >= length, one of the runs beating
    every earlier run of c. A longer window starts head symbols before a
    run boundary j whose run j-1 is c^(>=head) and whose run j has the
    next symbol. Such boundaries are scored once per cursor position by
    their reach, one meta LCE each; the prefix maxima of the reach,
    closed by the cursor itself, answer each length with a bisection.
    An answer's reach is known, so the LCE the driver asks next along it
    costs no query; other LCEs go to the meta text.
    """
    runs = r.runs
    meta = rank_runs(r)
    pl = meta.prefix_len
    m = meta.m
    syms, exps = [sym for sym, _ in runs], [exp for _, exp in runs]
    records: dict[int, list[tuple[int, int]]] = {}  # (exponent, start), after a (0, 0) floor
    for j, (c, e) in enumerate(runs):
        if e > records.setdefault(c, [(0, 0)])[-1][0]:
            records[c].append((e, pl[j] + 1))
    scored: list = [0, []]  # cursor, prefix maxima (reach, start) of its boundaries
    known: list = [0, 0, 0]  # the last answer: cursor, start, their common extension

    def lce(i: int, j: int, limit: int) -> int:
        pos, start, reach = known
        t = j - pos  # i and j lie t symbols after start and pos: reach - t more agree
        return min(limit, reach - t if i - start == t and 0 <= t <= reach else meta.char_lce(i, j))

    def leftmost(pos: int, length: int) -> int:
        u = bisect_left(pl, pos) - 1
        head = pl[u + 1] - pos + 1
        if length <= head:
            rec = records[syms[u]]
            e, start = rec[bisect_left(rec, (length,))]
            if e != head:  # one of the two runs of c ends first
                known[:] = pos, start, min(e, head)
            return start
        if scored[0] != pos:
            c, nxt, base = syms[u], syms[u + 1], pl[u + 1]
            best = [(0, 0)]  # a floor; the cursor itself closes the list
            for j in range(1, u + 1):
                if syms[j - 1] != c or exps[j - 1] < head or syms[j] != nxt:
                    continue
                full = meta.meta_lce(j + 1, u + 2)
                cand = head + (pl[u + 1 + full] - base)
                a, b = j + full, u + 1 + full
                if b < m and syms[a] == syms[b]:
                    cand += min(exps[a], exps[b])
                if cand > best[-1][0]:
                    best.append((cand, pl[j] + 1 - head))
            best.append((meta.length - pos + 1, pos))
            scored[:] = pos, best
        best = scored[1]
        reach, start = best[bisect_left(best, (length,))]
        known[:] = pos, start, reach
        return start

    return lz77_driver(meta.length, self_referential, meta.symbol, lce, leftmost)


def rle_to_lz78(r: RleString) -> Lz78Factorization:
    """Dictionary factorization computed on the runs: the shared driver
    walks its trie one run at a time, reading the runs from the cursor's
    run on, so no index of the runs is built."""
    runs = r.runs
    pl = list(accumulate((exp for _, exp in runs), initial=0))

    def runs_from(pos: int) -> Iterator[tuple[int, int]]:
        u = bisect_left(pl, pos) - 1
        yield runs[u][0], pl[u + 1] - pos + 1
        yield from map(runs.__getitem__, range(u + 1, len(runs)))

    sigma = max((sym + 1 for sym, _ in runs), default=0)
    return lz78_driver(pl[-1], sigma, runs_from)


def _pair_counts(seq: list[tuple[GrammarItem, int]]):
    # left-greedy counts on the expansion: a run of q gives q // 2 for (x, x)
    counts: dict[tuple[GrammarItem, GrammarItem], int] = {}
    for idx, (tok, exp) in enumerate(seq):
        if exp >= 2:
            pair = (tok, tok)
            counts[pair] = counts.get(pair, 0) + exp // 2
        if idx + 1 < len(seq):
            pair = (tok, seq[idx + 1][0])
            counts[pair] = counts.get(pair, 0) + 1
    return counts


def rle_to_repair(r: RleString) -> AdmissibleGrammar:
    """Pairwise grammar compression replayed on run-compressed strings.

    Rounds mirror the reference codec exactly: same counts, same smallest
    pair tie-break, same left-greedy replacement, so the grammars come out
    identical. The working string just never leaves run form.
    """
    if not r.runs:
        raise EmptyInputError("cannot build a grammar for the empty string")
    seq: list[tuple[GrammarItem, int]] = [(Term(sym), exp) for sym, exp in r.runs]
    rules: dict[int, tuple[GrammarItem, ...]] = {}
    nxt = 1
    while True:
        counts = _pair_counts(seq)
        best_count = 0
        best_pair = None
        for pair, cnt in counts.items():
            if cnt < 2 or cnt < best_count:
                continue
            key = (item_key(pair[0]), item_key(pair[1]))
            if cnt > best_count or key < (item_key(best_pair[0]),
                                          item_key(best_pair[1])):
                best_count, best_pair = cnt, pair
        if best_pair is None:
            break
        rules[nxt] = best_pair
        z = Var(nxt)
        left, right = best_pair
        out: list[tuple[GrammarItem, int]] = []
        if left == right:
            for tok, exp in seq:
                if tok == left:
                    if exp // 2:
                        out.append((z, exp // 2))
                    if exp % 2:
                        out.append((tok, 1))
                else:
                    out.append((tok, exp))
        else:
            i = 0
            while i < len(seq):
                tok, exp = seq[i]
                if tok == left and i + 1 < len(seq) and seq[i + 1][0] == right:
                    rexp = seq[i + 1][1]
                    if exp > 1:
                        out.append((tok, exp - 1))
                    out.append((z, 1))
                    if rexp > 1:
                        out.append((right, rexp - 1))
                    i += 2
                else:
                    out.append((tok, exp))
                    i += 1
        merged: list[tuple[GrammarItem, int]] = []
        for tok, exp in out:
            if merged and merged[-1][0] == tok:
                merged[-1] = (tok, merged[-1][1] + exp)
            else:
                merged.append((tok, exp))
        seq = merged
        nxt += 1
    rhs: list[GrammarItem] = []
    for tok, exp in seq:
        rhs.extend([tok] * exp)
    rules[nxt] = tuple(rhs)
    return AdmissibleGrammar(rules, nxt)


def rle_to_bisection(r: RleString) -> AdmissibleGrammar:
    """Balanced splitting grammar rebuilt from the runs by the shared
    driver: spans are bucketed by MetaText.span_key and compared with at
    most one character-level LCE query, so no span is ever expanded."""
    if not r.runs:
        raise EmptyInputError("cannot build a grammar for the empty string")
    meta = rank_runs(r)
    return bisection_driver(meta.length, meta.symbol, meta.span_key,
                            meta.span_equals)


def rle_as_slp(r: RleString) -> Slp:
    """Straight-line program deriving the decoded string.

    Each run becomes a power chain of doubling variables, runs then fold
    left to right. Size is O(sum of exponent bit lengths).
    """
    if not r.runs:
        raise EmptyInputError("cannot build a program for the empty string")
    rules: list[Term | tuple[int, int]] = []
    term_of: dict[int, int] = {}

    def term(code: int) -> int:
        if code not in term_of:
            rules.append(Term(code))
            term_of[code] = len(rules)
        return term_of[code]

    run_vars: list[int] = []
    for sym, exp in r.runs:
        powers = [term(sym)]
        while (1 << len(powers)) <= exp:
            rules.append((powers[-1], powers[-1]))
            powers.append(len(rules))
        cur = None
        for bit in range(exp.bit_length()):
            if exp >> bit & 1:
                if cur is None:
                    cur = powers[bit]
                else:
                    rules.append((cur, powers[bit]))
                    cur = len(rules)
        run_vars.append(cur)
    cur = run_vars[0]
    for v in run_vars[1:]:
        rules.append((cur, v))
        cur = len(rules)
    if cur != len(rules):
        # single run ending on a reused variable; restate it on top
        rules.append(rules[cur - 1])
    return Slp.build(tuple(rules))
