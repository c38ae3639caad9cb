"""Conversions out of straight-line programs.

Every function here reads only the program and builds no other: runs
come from the program's run annotations, and LZ77, LZ78 and bisection
read run streams of the program, never the derived string. LZ77's
driver grows factors with `slp_lce`; the leftmost starts it asks for
are occurrence queries on the runs of a text window. Bisection keys its
spans by Karp-Rabin fingerprints and confirms every equal key with the
same kind of query, so a collision costs time, never output. LZ78's
driver walks its dictionary trie along the runs from the cursor on.
Outputs match the reference codecs on the expansion, which the tests
check against the naive codecs.
"""

from __future__ import annotations

from functools import partial

from .drivers import bisection_driver, lz77_driver, lz78_driver
from .errors import InternalError
from .model import (
    AdmissibleGrammar,
    Lz77Factorization,
    Lz78Factorization,
    RleString,
    Slp,
    Term,
)
from .slp_ops import (
    EdgeRuns,
    Fingerprints,
    _window_runs,
    char_at,
    occurrences,
    reachable_vars,
    slp_lce,
    slp_runs,
)


def slp_to_rle(s: Slp) -> RleString:
    """Run-length encoding of the derived string."""
    return slp_runs(s)


def slp_to_lz77(s: Slp, self_referential: bool = False) -> Lz77Factorization:
    """Greedy leftmost-longest factorization computed on the program.

    The shared driver grows factors with slp_lce and asks each leftmost
    start with one occurrence query on the window's runs. All queries
    share one store of edge runs, and one at the same pos as the last
    skips the variables where that shorter window had no occurrence. A
    start missing, after pos or denied by membership is an internal error.
    """
    edges = EdgeRuns(s)
    last: list = [0, None]  # pos and occurrence set of the previous query

    def leftmost(pos: int, length: int) -> int:
        occ = occurrences(s, slp_runs(s, pos, pos + length - 1), edges)
        if last[0] == pos:
            occ.inherit_misses(last[1])
        last[:] = pos, occ
        start = occ.min_start()
        if start is None or start > pos or not occ.membership(start):
            raise InternalError("factor source search is inconsistent; "
                                f"got {start} for window at {pos} length {length}")
        return start

    return lz77_driver(s.length, self_referential, partial(char_at, s),
                       partial(slp_lce, s), leftmost)


def slp_to_lz78(s: Slp) -> Lz78Factorization:
    """Dictionary factorization computed on the program: the shared
    driver walks its trie one run at a time, reading the runs of the
    text from the cursor on. Each factor costs O(height) to reach the
    cursor plus the runs it reads; no entry is compared with slp_lce."""
    sigma = 0
    for v in reachable_vars(s):
        rule = s.rules[v - 1]
        if isinstance(rule, Term):
            sigma = max(sigma, rule.code + 1)
    return lz78_driver(s.length, sigma, lambda pos: _window_runs(s, pos, s.length))


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
