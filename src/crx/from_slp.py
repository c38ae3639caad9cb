"""Conversions out of straight-line programs.

Every function here reads only the program and builds no other: runs
come from the program's run annotations, and LZ78 and bisection read
run streams of the program, never the derived string. LZ77 takes the
run lane on the program's runs, so it holds O(runs) memory;
`slp_ops.run_count` gives that count in one pass over the rules,
before any run is built.
Bisection keys its spans by Karp-Rabin fingerprints and confirms every
equal key with an occurrence query on the runs of a span, so a
collision costs time, never output. LZ78 runs the run lane's trie walk
on one stream of the program's runs, read once, front to back, in
O(height) memory.
Outputs match the reference codecs on the expansion, which the tests
check against the naive codecs.
"""

from __future__ import annotations

from .from_rle import _lz78_of_runs, rle_to_lz77
from .model import (
    AdmissibleGrammar,
    GrammarItem,
    Lz77Factorization,
    Lz78Factorization,
    RleString,
    Slp,
    Term,
    Var,
)
from .slp_ops import (
    Fingerprints,
    _window_runs,
    char_at,
    occurrences,
    reachable_vars,
    slp_runs,
)


def slp_to_rle(s: Slp) -> RleString:
    """Run-length encoding of the derived string. Equal runs share one
    tuple, so the output costs a pointer per run beyond its distinct
    runs."""
    distinct: dict[tuple[int, int], tuple[int, int]] = {}
    return RleString(tuple(distinct.setdefault(run, run)
                           for run in _window_runs(s, 1, s.length)))


def slp_to_lz77(s: Slp, self_referential: bool = False) -> Lz77Factorization:
    """Greedy leftmost-longest factorization of the derived string: the
    run lane's `rle_to_lz77` on the program's runs, read from its run
    annotations without expanding. It holds O(runs) memory, so a caller
    that takes untrusted programs bounds `run_count` first, as the CLI
    does."""
    return rle_to_lz77(slp_to_rle(s), self_referential)


def slp_to_lz78(s: Slp) -> Lz78Factorization:
    """Dictionary factorization computed on the program: the run lane's
    `_lz78_of_runs` walks its trie one run at a time along one stream of
    the text's runs, read once from the run annotations. The stream holds
    O(height) memory and no run list is built; no entry is compared
    with slp_lce."""
    sigma = 0
    for v in reachable_vars(s):
        rule = s.rules[v - 1]
        if isinstance(rule, Term):
            sigma = max(sigma, rule.code + 1)
    return _lz78_of_runs(s.length, sigma, _window_runs(s, 1, s.length))


def slp_to_bisection(s: Slp) -> AdmissibleGrammar:
    """Rebuild the balanced splitting grammar without expanding.

    Spans i..j split at the largest power of two below their length and
    are finished in post-order, left first; a span equal to an earlier one
    reuses its variable, so the grammar matches the reference codec's
    variable for variable. A span is keyed by its length and its
    Karp-Rabin fingerprint, O(height) from the variables' fingerprint
    table. Equal strings always get equal keys, and every equal key is
    confirmed on the text itself: the occurrence set of the new span's
    runs is asked whether it starts at the earlier span, which walks the
    earlier span's runs up to the first pair that differ. A collision is
    rejected there, so the output never depends on the fingerprints. No
    span gets a program.
    """
    fingerprints = Fingerprints(s)
    rules: dict[int, tuple[GrammarItem, ...]] = {}
    buckets: dict[tuple[int, int], list[tuple[Var, int]]] = {}
    done: list[GrammarItem] = []  # items of finished spans, in post-order
    stack: list[tuple[int, int, tuple[int, int] | None]] = [(1, s.length, None)]  # key once split
    while stack:
        i, j, k = stack.pop()
        if k is not None:
            right, left = done.pop(), done.pop()
            rules[len(rules) + 1] = (left, right)
            done.append(Var(len(rules)))
            buckets.setdefault(k, []).append((done[-1], i))
        elif i == j:
            done.append(Term(char_at(s, i)))
        else:
            k = (j - i + 1, fingerprints.span(i, j))
            for var, start in buckets.get(k, ()):
                if occurrences(s, slp_runs(s, i, j)).membership(start):
                    done.append(var)
                    break
            else:
                half = 1 << (j - i).bit_length() - 1  # largest power of two below j-i+1
                stack += ((i, j, k), (i + half, j, None), (i, i + half - 1, None))
    top = done[0]
    if isinstance(top, Term):
        return AdmissibleGrammar({1: (top,)}, 1)
    return AdmissibleGrammar(rules, top.index)
