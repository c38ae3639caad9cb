"""Codec drivers over primitives that a lane supplies.

A driver owns one codec's control flow and sees the text only through
primitives on 1-based positions. LZ78's, shared by the run-length and
program lanes, reads the text's runs from a position onwards.
Bisection's serves the program lane alone and asks the symbol at a
position, a key of a span and an equality test on two spans; the run
lane builds its bisection grammar level by level from the runs instead
(`from_rle.rle_to_bisection`).
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable

from .model import (
    AdmissibleGrammar,
    GrammarItem,
    Lz78Factorization,
    Term,
    Var,
)


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
    """Balanced splitting grammar of a text of length n >= 1, for the
    program lane's `slp_to_bisection`.

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
