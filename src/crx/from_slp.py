"""Conversions out of straight-line programs.

Every function here reads only the program and builds no other: runs
come from the program's run annotations, and LZ78 and bisection read
run streams of the program, never the derived string. LZ77 takes the
run lane on the program's runs, so it holds O(runs) memory;
`slp_ops.run_count` gives that count in one pass over the rules,
before any run is built.
Bisection keys its spans by Karp-Rabin fingerprints and confirms every
equal key with an occurrence query on the runs of a span, so a
collision costs time, never output. LZ78's driver walks its dictionary
trie along one stream of the program's runs, read once, front to back,
in O(height) memory.
Outputs match the reference codecs on the expansion, which the tests
check against the naive codecs.
"""

from __future__ import annotations

from functools import partial

from .drivers import bisection_driver, lz78_driver
from .from_rle import rle_to_lz77
from .model import (
    AdmissibleGrammar,
    Lz77Factorization,
    Lz78Factorization,
    RleString,
    Slp,
    Term,
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
    """Dictionary factorization computed on the program: the shared
    driver walks its trie one run at a time along one stream of the
    text's runs, read once from the run annotations. The stream holds
    O(height) memory and no run list is built; no entry is compared
    with slp_lce."""
    sigma = 0
    for v in reachable_vars(s):
        rule = s.rules[v - 1]
        if isinstance(rule, Term):
            sigma = max(sigma, rule.code + 1)
    return lz78_driver(s.length, sigma, _window_runs(s, 1, s.length))


def slp_to_bisection(s: Slp) -> AdmissibleGrammar:
    """Rebuild the balanced splitting grammar without expanding.

    The shared driver keys a span by its length and its Karp-Rabin
    fingerprint, O(height) from the variables' fingerprint table. Equal
    strings always get equal keys, and every equal key is confirmed on
    the text itself: the occurrence set of the new span's runs is asked
    whether it starts at the earlier span, which walks the earlier span's
    runs up to the first pair that differ. A collision is rejected there,
    so the output never depends on the fingerprints. No span gets a
    program.
    """
    fingerprints = Fingerprints(s)

    def key(i: int, j: int) -> tuple[int, int]:
        return j - i + 1, fingerprints.span(i, j)

    def same(i: int, j: int, k: int) -> bool:
        return occurrences(s, slp_runs(s, i, j)).membership(k)

    return bisection_driver(s.length, partial(char_at, s), key, same)
