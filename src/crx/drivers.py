"""Codec drivers shared by the run-length and program lanes.

A driver owns one codec's control flow and sees the text only through
primitives on 1-based positions that a lane supplies. LZ77 asks the
symbol at a position, the common extension of two positions up to a
limit and the leftmost start of the window at a position; LZ78 reads
the text's runs from a position onwards; bisection asks the symbol at a
position, a key of a span and an equality test on two spans.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable

from .model import (
    AdmissibleGrammar,
    GrammarItem,
    Literal,
    Lz77Factorization,
    Lz78Factorization,
    Reference,
    Term,
    Var,
)


def lz77_driver(n: int, self_referential: bool, char: Callable[[int], int],
                lce: Callable[[int, int, int], int],
                leftmost: Callable[[int, int], int]) -> Lz77Factorization:
    """Greedy leftmost-longest LZ77 factorization of a text of length n.

    char(pos) is the symbol at pos; lce(i, j, limit) counts the leading
    symbols, at most limit, on which the text at i and at j agree;
    leftmost(pos, length), asked for pos > 1 with growing lengths, is
    the leftmost start of the window pos..pos+length-1, so at most pos.

    A factor keeps src, the leftmost admissible source of its prefix,
    and grows the prefix by one lce between src and pos, capped at
    pos - src without self-references; an admissible source of a longer
    prefix is one of the shorter prefix too, so src stays leftmost. The
    window one symbol longer has an admissible source exactly when its
    leftmost start is one, which then becomes src; otherwise the factor
    ends, after at most one failing query.
    """
    factors: list[Literal | Reference] = []
    pos = 1
    while pos <= n:
        rem = n - pos + 1
        cap = rem if self_referential and pos > 1 else min(rem, pos - 1)  # no source before pos 1
        src = length = 0
        while length < cap:
            start = leftmost(pos, length + 1)
            if start > (pos - 1 if self_referential else pos - length - 1):
                break
            src = start
            src_cap = cap if self_referential else min(cap, pos - src)
            length += 1 + lce(src + length + 1, pos + length + 1, src_cap - length - 1)
        if length:
            factors.append(Reference(src, length))
            pos += length
        else:
            factors.append(Literal(char(pos)))
            pos += 1
    return Lz77Factorization(tuple(factors), self_referential)


def lz78_driver(n: int, sigma: int,
                runs_from: Callable[[int], Iterable[tuple[int, int]]]) -> Lz78Factorization:
    """LZ78 factorization of a text of length n over symbols 0..sigma-1.

    runs_from(pos) yields the maximal runs (symbol, exponent) of the text
    from pos to its end, the first one cut at pos; a factor reads only
    the runs it covers plus one. The dictionary is prefix closed, so the
    longest entry at pos ends one walk down its trie. The trie's edges
    are runs: ext[(b, c)] lists the ids of b·c, b·c², ... for an entry b
    that does not end in c (0 is the empty string), so one lookup
    matches a whole text run (c, e) up to the chain's length, and the
    walk stops at the first run it does not match in full. The new
    entry, the factor plus the next symbol, extends the chain where the
    walk stopped.
    """
    ext: dict[tuple[int, int], list[int]] = {}
    ids: list[int] = []
    pos = 1
    while pos <= n:
        node = flen = 0
        for c, e in runs_from(pos):
            chain = ext.get((node, c))
            if chain is None:  # each single symbol is an entry from the start
                chain = ext[node, c] = [] if node else [c + 1]
            k = min(e, len(chain))
            if k:
                node = chain[k - 1]
                flen += k
            if k < e:
                break
        ids.append(node)
        pos += flen
        if pos <= n:
            chain.append(sigma + len(ids))
    return Lz78Factorization(tuple(ids), sigma)


def bisection_driver(n: int, char: Callable[[int], int],
                     key: Callable[[int, int], Hashable],
                     same: Callable[[int, int, int], bool]) -> AdmissibleGrammar:
    """Balanced splitting grammar of a text of length n >= 1.

    Spans i..j split at the largest power of two below their length and
    are finished in post-order, left first; a span equal to an earlier one
    reuses its variable, so the grammar matches the reference codec's
    variable for variable. key(i, j) is a tuple that agrees on equal
    strings; same(i, j, k) is asked only on equal keys and tells whether
    i..j equals the earlier span starting at k.
    """
    rules: dict[int, tuple[GrammarItem, ...]] = {}
    buckets: dict[Hashable, list[tuple[Var, int]]] = {}
    done: list[GrammarItem] = []  # items of finished spans, in post-order
    stack: list[tuple[int, int, Hashable]] = [(1, n, None)]  # key once split
    while stack:
        i, j, k = stack.pop()
        if k is not None:
            right, left = done.pop(), done.pop()
            rules[len(rules) + 1] = (left, right)
            done.append(Var(len(rules)))
            buckets.setdefault(k, []).append((done[-1], i))
        elif i == j:
            done.append(Term(char(i)))
        else:
            k = key(i, j)
            for var, start in buckets.get(k, ()):
                if same(i, j, start):
                    done.append(var)
                    break
            else:
                half = 1 << (j - i).bit_length() - 1  # largest power of two below j-i+1
                stack += ((i, j, k), (i + half, j, None), (i, i + half - 1, None))
    top = done[0]
    if isinstance(top, Term):
        return AdmissibleGrammar({1: (top,)}, 1)
    return AdmissibleGrammar(rules, top.index)
