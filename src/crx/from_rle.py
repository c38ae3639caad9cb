"""Conversions out of run-length encoded strings.

Only the run structure is ever touched. LZ77 and Re-Pair walk the runs;
LZ78 and bisection run the drivers of crx.drivers on the meta text's
symbol lookup and character-level LCE queries. Outputs match the
reference codecs on the decoded string.
"""

from __future__ import annotations

from .drivers import bisection_driver, lz78_driver
from .errors import EmptyInputError
from .model import (
    AdmissibleGrammar,
    GrammarItem,
    Literal,
    Lz77Factorization,
    Lz78Factorization,
    Reference,
    RleString,
    Slp,
    Term,
    Var,
    item_key,
)
from .suffix import rank_runs


def rle_to_lz77(r: RleString, self_referential: bool = False) -> Lz77Factorization:
    """Greedy leftmost-longest factorization computed on the runs.

    A factor either stays inside the cursor's run (longest earlier run of
    the same symbol bounds it) or crosses into the next run, in which case
    every admissible source sits head symbols before some run boundary
    whose surrounding runs match; those anchors are scored with one meta
    LCE query each.
    """
    runs = r.runs
    m = len(runs)
    if m == 0:
        return Lz77Factorization((), self_referential)
    meta = rank_runs(r)
    pl = meta.prefix_len
    n = meta.length
    syms = [sym for sym, _ in runs]
    exps = [exp for _, exp in runs]
    by_sym: dict[int, list[int]] = {}
    max_exp: dict[int, int] = {}
    filled = 0  # runs 0..filled-1 lie before the cursor's run
    factors: list[Literal | Reference] = []
    s = 1
    while s <= n:
        u = meta.run_of(s)
        q = s - pl[u]
        while filled < u:
            c0 = syms[filled]
            max_exp[c0] = max(max_exp.get(c0, 0), exps[filled])
            by_sym.setdefault(c0, []).append(filled)
            filled += 1
        c = syms[u]
        head = exps[u] - q + 1
        prior = max_exp.get(c, 0)
        if self_referential:
            avail = head if q >= 2 else min(head, prior)
        else:
            avail = min(head, max(prior, q - 1))
        best_len = avail
        best_src = 0
        if avail:
            src = None
            for jr in by_sym.get(c, ()):
                if exps[jr] >= avail:
                    src = pl[jr] + 1
                    break
            best_src = src if src is not None else pl[u] + 1
        if u + 1 < m:
            nxt = syms[u + 1]
            for j in range(1, u + 1):
                if syms[j - 1] != c or exps[j - 1] < head or syms[j] != nxt:
                    continue
                k = pl[j] + 1 - head
                if k < 1 or k >= s:
                    continue
                full = meta.meta_lce(j + 1, u + 2)
                cand = head + (pl[u + 1 + full] - pl[u + 1])
                a, b = j + full, u + 1 + full
                if b < m and syms[a] == syms[b]:
                    cand += min(exps[a], exps[b])
                if not self_referential:
                    cand = min(cand, s - k)
                if cand > best_len:
                    best_len, best_src = cand, k
        if best_len == 0:
            factors.append(Literal(c))
            s += 1
        else:
            factors.append(Reference(best_src, best_len))
            s += best_len
    return Lz77Factorization(tuple(factors), self_referential)


def rle_to_lz78(r: RleString) -> Lz78Factorization:
    """Dictionary factorization computed on the runs; the shared driver
    tests an entry at the cursor with one character-level LCE query."""
    meta = rank_runs(r)
    char_lce = meta.char_lce

    def matches(pos: int, start: int, length: int) -> bool:
        return char_lce(pos, start) >= length

    sigma = max((sym + 1 for sym, _ in r.runs), default=0)
    return lz78_driver(meta.length, sigma, meta.symbol, matches)


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
