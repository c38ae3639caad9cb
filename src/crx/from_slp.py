"""Conversions out of straight-line programs.

Every function here reads only the program and builds no other: runs
come from the program's run annotations, and LZ77, LZ78 and bisection
read run streams of the program, never the derived string. LZ77's
driver grows factors with `slp_lce`; the leftmost starts it asks for
come from an index of the splits of the rules' leftmost nodes, built
once per call, and each is confirmed by a fingerprint and a run walk.
Bisection keys its spans by Karp-Rabin fingerprints and confirms every
equal key with an occurrence query on the runs of a span, so a
collision costs time, never output. LZ78's driver walks its dictionary
trie along the runs from the cursor on.
Outputs match the reference codecs on the expansion, which the tests
check against the naive codecs.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial

from .drivers import bisection_driver, lz77_driver, lz78_driver
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
    _first_difference,
    _fits,
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


def _primary_splits(s: Slp) -> tuple[dict[int, int], dict, dict]:
    """The first position of each symbol, and the splits of the leftmost
    nodes of the reachable pair rules, as (first, crossing, ahead).

    One top-down pass gives each reachable variable the start fo of its
    leftmost node in the derivation tree. A pair rule X -> Y Z adds one
    entry (q, left, right): its split q = fo(X) + |Y|, the first
    position of Z in that node; Y's runs from its last symbol backwards
    and Z's runs from its first symbol on, the lists of one `EdgeRuns`
    store of cap 3, shared with every other entry of the same child. A
    list that covers its child ends with the closing run (-1, 0).

    crossing[(c, d)] holds the entries of the splits between a Y that
    ends in c and a Z that starts with d, so c == d for a split inside a
    run of c. ahead[(c, d)] holds those of the splits inside a run of c
    whose Z goes on with d after the run, or is all c if d is -1. A
    bucket is a pair (splits, entries) of parallel lists sorted by q; no
    two nodes share a split.
    """
    rules, lengths = s.rules, s.lengths
    edges = EdgeRuns(s, 3)
    fo = [0] * (s.n + 1)
    fo[s.n] = 1
    first: dict[int, int] = {}
    crossing: dict[tuple[int, int], list] = {}
    ahead: dict[tuple[int, int], list] = {}
    for v in range(s.n, 0, -1):  # a rule comes after the rules it uses
        at = fo[v]
        if not at:
            continue
        rule = rules[v - 1]
        if isinstance(rule, Term):
            first[rule.code] = min(at, first.get(rule.code, at))
            continue
        y, z = rule
        q = at + lengths[y - 1]
        fo[y] = min(fo[y] or at, at)
        fo[z] = min(fo[z] or q, q)
        left, right = edges.edge(y, 1), edges.edge(z, 0)
        entry = q, left, right
        c, d = left[0][0], right[0][0]
        crossing.setdefault((c, d), []).append(entry)
        if c == d:
            ahead.setdefault((c, right[1][0]), []).append(entry)

    def sort(index: dict) -> dict:
        for got in index.values():
            got.sort()
        return {key: ([q for q, _, _ in got], got) for key, got in index.items()}

    return first, sort(crossing), sort(ahead)


def slp_to_lz77(s: Slp, self_referential: bool = False) -> Lz77Factorization:
    """Greedy leftmost-longest factorization computed on the program.

    The shared driver grows factors with slp_lce and asks leftmost
    starts of windows at the cursor. The leftmost occurrence of a window
    of two or more symbols crosses the split of the leftmost node of some
    rule (Claude & Navarro, SPIRE 2012), so the entries of
    `_primary_splits`, built once per call, hold every candidate; a
    one-symbol window starts at its symbol's first position.

    A query reads the window's runs once. Each run boundary of the
    window, and each run of two or more symbols that can hold the split,
    names a bucket and where the split lies in the window; an entry whose
    edge runs let the window lie in its rule gives a start. Each bucket
    is scanned in ascending start, from the last answer at the same
    cursor (answers there only grow) up to the best start found so far.
    A start is taken when its window's fingerprint equals the query's
    and one run walk confirms the text, so a fingerprint collision costs
    time, never output. Starts that fail are kept until the cursor
    moves, and the cursor answers when no earlier start is confirmed.
    No occurrence set is built.
    """
    first, crossing, ahead = _primary_splits(s)
    fingerprints = Fingerprints(s)
    last: list = [0, 1, set()]  # the cursor, its last answer, its failed starts

    def leftmost(pos: int, length: int) -> int:
        if length == 1:
            return first[char_at(s, pos)]
        end = pos + length - 1
        runs = tuple(_window_runs(s, pos, end))
        if last[0] != pos:
            last[:] = pos, 1, set()
        lo, failed = last[1], last[2]
        best = pos
        want = None

        def confirmed(start: int) -> bool:
            nonlocal want
            if start in failed or start + length - 1 > s.length:
                return False
            if want is None:
                want = fingerprints.span(pos, end)
            if (fingerprints.span(start, start + length - 1) == want and _first_difference(
                    _window_runs(s, start, start + length - 1), runs) is None):
                return True
            failed.add(start)
            return False

        k = len(runs)
        before = 0  # the window's symbols before run j
        for j, (c, e) in enumerate(runs):
            bucket = None
            if e > 1:  # the split inside run j, t of its symbols in Y and e - t in Z
                bucket = crossing.get((c, c)) if j == k - 1 else ahead.get((c, runs[j + 1][0]))
            if bucket:
                qs, got = bucket
                i = bisect_left(qs, lo + before + 1)
                while i < len(qs) and qs[i] - before - e < best - 1:
                    q, left, right = got[i]
                    i += 1
                    a, b = left[0][1], right[0][1]
                    # t is fixed by a window run on either side, else the largest
                    t = a if j else e - b if j < k - 1 else min(a, e - 1)
                    start = q - before - t
                    if (0 < t < e and lo <= start < best
                            and (a == t if j else a >= t)
                            and (b == e - t if j < k - 1 else b >= e - t)
                            and _fits(left, 1, runs, j - 1, -1)
                            and _fits(right, 1, runs, j + 1, 1) and confirmed(start)):
                        best = start
            before += e
            # the split after run j
            bucket = crossing.get((c, runs[j + 1][0])) if j < k - 1 else None
            if bucket:
                qs, got = bucket
                i = bisect_left(qs, lo + before)
                while i < len(qs) and qs[i] - before < best:
                    q, left, right = got[i]
                    i += 1
                    if (_fits(left, 0, runs, j, -1) and _fits(right, 0, runs, j + 1, 1)
                            and confirmed(q - before)):
                        best = q - before
                        break
        last[1] = best
        return best

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
