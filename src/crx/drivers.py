"""Codec drivers shared by the run-length and program lanes.

A driver owns one codec's control flow and sees the text only through
primitives on 1-based positions that a lane supplies: the symbol at a
position and an equality test on two text intervals.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Callable, Hashable

from .model import AdmissibleGrammar, GrammarItem, Lz78Factorization, Term, Var


def lz78_driver(n: int, sigma: int, char: Callable[[int], int],
                matches: Callable[[int, int, int], bool]) -> Lz78Factorization:
    """LZ78 factorization of a text of length n over symbols 0..sigma-1.

    char(pos) is the symbol at pos. Entries are text intervals, and
    matches(pos, start, length) tells whether the entry at start also
    occurs at pos, which always leaves room for it. Entries are bucketed
    by first symbol and tried longest first; they are distinct strings,
    so the first hit is the longest match.
    """
    buckets: dict[int, list[tuple[int, int, int]]] = {}
    ids: list[int] = []
    pos = 1
    while pos <= n:
        c = char(pos)
        rem = n - pos + 1
        flen, fid = 1, c + 1
        for ln, eid, est in buckets.get(c, ()):
            if ln <= rem and matches(pos, est, ln):
                flen, fid = ln, eid
                break
        ids.append(fid)
        pos += flen
        if pos <= n:
            insort(buckets.setdefault(c, []), (flen + 1, sigma + len(ids), pos - flen),
                   key=lambda e: -e[0])
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
                half = 1
                while half * 2 < j - i + 1:
                    half *= 2
                stack += ((i, j, k), (i + half, j, None), (i, i + half - 1, None))
    top = done[0]
    if isinstance(top, Term):
        return AdmissibleGrammar({1: (top,)}, 1)
    return AdmissibleGrammar(rules, top.index)
