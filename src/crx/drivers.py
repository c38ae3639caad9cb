"""Codec drivers over primitives that a lane supplies.

A driver owns one codec's control flow and sees the text only through
what its lane hands it. LZ78's, shared by the run-length and program
lanes, reads the text's maximal runs once, front to back: each factor
starts where the previous one stopped, inside the run that factor broke
on, so no factor seeks. Bisection's serves the program lane alone and
asks the symbol at a 1-based position, a key of a span and an equality
test on two spans; the run lane builds its bisection grammar level by
level from the runs instead (`from_rle.rle_to_bisection`).
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


def lz78_driver(n: int, sigma: int, runs: Iterable[tuple[int, int]]) -> Lz78Factorization:
    """LZ78 factorization of a text of length n over symbols 0..sigma-1.

    runs yields the text's maximal runs (symbol, exponent) in order; it is
    read once, front to back, and never past the run that ends the text.
    The dictionary is prefix closed, so the longest entry at the cursor
    ends one walk down its trie. The trie's edges are runs: ext[(b, c)]
    lists the ids of b·c, b·c², ... for an entry b that does not end in c
    (0 is the empty string), so one lookup matches a whole text run
    (c, e) up to the chain's length, and the walk stops at the first run
    it does not match in full. That run's unread symbols are pending: the
    new entry, the factor plus the next symbol, extends the chain where
    the walk stopped, and the next factor starts on the pending run.
    """
    ext: dict[tuple[int, int], list[int]] = {}
    ids: list[int] = []
    runs = iter(runs)
    c = e = 0  # the pending run: e symbols of c not yet read
    left = n
    while left:
        node = flen = 0
        while True:
            if not e:
                c, e = next(runs)
            chain = ext.get((node, c))
            if chain is None:  # each single symbol is an entry from the start
                chain = ext[node, c] = [] if node else [c + 1]
            k = min(e, len(chain))
            if k:
                node = chain[k - 1]
                flen += k
                e -= k
            if e or flen == left:
                break
        ids.append(node)
        left -= flen
        if left:
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
