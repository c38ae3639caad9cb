"""Conversions out of straight-line programs.

Every function here reads only the program and builds no other: runs
come from the program's run annotations, never from the derived string.
RLE, LZ77 and LZ78 read the whole text's runs as `slp_ops._runs_of`
gives them: within the run cap (`slp_ops.MAX_RUNS`), a program that
shares a variable of two or more runs has them built once as a tuple,
copied from its shared variables' runs, in O(runs) memory; a program
past the cap, or one that shares none, streams them in O(height)
memory. LZ77 takes the run lane on the program's runs, so it holds
O(runs) memory either way; `slp_ops.run_count` reads that count from
the run annotations, before any run is built.
Bisection finds each span's cover, the deepest variable holding it,
by descending from its parent span's cover, and reads leaves and
Karp-Rabin fingerprints under it. An equal key from a span with the
same cover is the same string; every other equal key is confirmed with
an occurrence query on the runs of a span, so a collision costs time,
never output. LZ78 runs the run lane's trie walk
along the program's runs, read once, front to back.
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
    _descend,
    _runs_of,
    occurrences,
    reachable_vars,
    slp_runs,
)


def slp_to_rle(s: Slp) -> RleString:
    """Run-length encoding of the derived string, read by `_runs_of`: a
    program within the run cap (`slp_ops.MAX_RUNS`) that shares a
    variable of two or more runs gets its runs as one tuple, copied from
    its shared variables' runs, in O(runs) memory; any other program's
    runs are streamed in O(height) memory. Equal runs share one tuple
    object either way, so the output costs a pointer per run beyond its
    distinct runs."""
    runs = _runs_of(s)
    if not isinstance(runs, tuple):
        distinct: dict[tuple[int, int], tuple[int, int]] = {}
        runs = tuple(distinct.setdefault(run, run) for run in runs)
    return RleString(runs)


def slp_to_lz77(s: Slp, self_referential: bool = False) -> Lz77Factorization:
    """Greedy leftmost-longest factorization of the derived string: the
    run lane's `rle_to_lz77` on the program's runs, read from its run
    annotations without expanding. It holds O(runs) memory, so a caller
    that takes untrusted programs bounds `run_count` first, as the CLI
    does."""
    return rle_to_lz77(slp_to_rle(s), self_referential)


def slp_to_lz78(s: Slp) -> Lz78Factorization:
    """Dictionary factorization computed on the program: the run lane's
    `_lz78_of_runs` walks its trie one run at a time along the text's
    runs, read once, front to back, as `_runs_of` gives them: one tuple
    in O(runs) memory for a program within the run cap
    (`slp_ops.MAX_RUNS`) that shares a variable of two or more runs, else
    a stream in O(height) memory. No RleString is built, and no entry is
    compared with slp_lce."""
    sigma = 0
    for v in reachable_vars(s):
        rule = s.rules[v - 1]
        if isinstance(rule, Term):
            sigma = max(sigma, rule.code + 1)
    return _lz78_of_runs(s.length, sigma, _runs_of(s))


def slp_to_bisection(s: Slp) -> AdmissibleGrammar:
    """Rebuild the balanced splitting grammar without expanding.

    Spans i..j split at the largest power of two below their length and
    are finished in post-order, left first; a span equal to an earlier one
    reuses its variable, so the grammar matches the reference codec's
    variable for variable. Each span carries its cover: the deepest
    variable v holding it and its positions lo..hi in val(v), found by
    descending from its parent span's cover, never from the root. A leaf's
    cover is its terminal rule. A span is keyed by its length and its
    Karp-Rabin fingerprint, folded under its cover in O(height of v). Equal
    strings always get equal keys. An equal key whose earlier span had the
    same cover is the same positions of the same variable, so the same
    string, and its variable is reused at once; every other equal key is
    confirmed on the text: the occurrence set of the new span's runs is
    asked whether it starts at the earlier span, which walks the earlier
    span's runs up to the first pair that differ. A collision is rejected
    there, so the output never depends on the fingerprints. No span gets
    a program.
    """
    fingerprints = Fingerprints(s)
    rules: dict[int, tuple[GrammarItem, ...]] = {}
    # per key, the variable, start and cover (v, lo) of each finished span
    buckets: dict[tuple[int, int], list[tuple[Var, int, tuple[int, int]]]] = {}
    done: list[GrammarItem] = []  # items of finished spans, in post-order
    # span i..j, a cover to descend from (v, lo..hi), and its key once split
    stack: list[tuple[int, int, int, int, int, tuple[int, int] | None]] = [
        (1, s.length, s.n, 1, s.length, None)]
    while stack:
        i, j, v, lo, hi, k = stack.pop()
        if k is not None:
            right, left = done.pop(), done.pop()
            rules[len(rules) + 1] = (left, right)
            done.append(Var(len(rules)))
            buckets.setdefault(k, []).append((done[-1], i, (v, lo)))
            continue
        v, lo, hi = _descend(s, v, lo, hi)
        if i == j:
            done.append(s.rules[v - 1])  # a one-symbol span's cover is a Term
            continue
        k = (j - i + 1, fingerprints.window(v, lo, hi))
        for var, start, cover in buckets.get(k, ()):
            if cover == (v, lo) or occurrences(s, slp_runs(s, i, j)).membership(start):
                done.append(var)
                break
        else:
            half = 1 << (j - i).bit_length() - 1  # largest power of two below j-i+1
            stack += ((i, j, v, lo, hi, k), (i + half, j, v, lo + half, hi, None),
                      (i, i + half - 1, v, lo, lo + half - 1, None))
    top = done[0]
    if isinstance(top, Term):
        return AdmissibleGrammar({1: (top,)}, 1)
    return AdmissibleGrammar(rules, top.index)
