"""Conversions out of straight-line programs.

Every function here reads only the program: runs and LZ77 factors come
from pattern queries on the grammar, and LZ78 and bisection run the
drivers of crx.drivers on random access and substring-program matching,
never on the derived string. Outputs are defined to match the reference
codecs on the expansion, which the tests check against the naive
implementations.
"""

from __future__ import annotations

from functools import cache, partial

from .drivers import bisection_driver, lz78_driver
from .errors import InternalError
from .model import (
    AdmissibleGrammar,
    Literal,
    Lz77Factorization,
    Lz78Factorization,
    Reference,
    RleString,
    Slp,
    Term,
)
from .slp_ops import (
    RunLinkAnnotations,
    annotate_runs,
    char_at,
    occurrences,
    prefix_match,
    reachable_vars,
    slp_equals,
    slp_runs,
    substring_slp,
)


def slp_to_rle(s: Slp) -> RleString:
    """Run-length encoding of the derived string."""
    return slp_runs(s)


def slp_to_lz77(s: Slp, self_referential: bool = False) -> Lz77Factorization:
    """Greedy leftmost-longest factorization computed on the program.

    Factor lengths are found by doubling plus binary search on "does this
    window have an admissible earlier occurrence", each probe answered by
    an occurrence query for the window's substring program.
    """
    n = s.length
    factors: list[Literal | Reference] = []
    pos = 1
    while pos <= n:
        rem = n - pos + 1
        cap = rem if self_referential else min(rem, pos - 1)

        def valid(length: int):
            window = substring_slp(s, pos, pos + length - 1)
            occ = occurrences(s, window)
            if self_referential:
                ok = occ.exists_start_in(1, pos - 1)
            else:
                ok = occ.exists_fully_within(1, pos - 1)
            return occ if ok else None

        best = valid(1) if pos > 1 and cap >= 1 else None
        if best is None:
            factors.append(Literal(char_at(s, pos)))
            pos += 1
            continue
        lo, hi = 1, cap + 1  # valid at lo, invalid at hi
        while lo < cap:
            trial = min(lo * 2, cap)
            occ = valid(trial)
            if occ is None:
                hi = trial
                break
            lo, best = trial, occ
        while hi - lo > 1:
            mid = (lo + hi) // 2
            occ = valid(mid)
            if occ is None:
                hi = mid
            else:
                lo, best = mid, occ
        src = best.min_start()
        limit = pos - 1 if self_referential else pos - lo
        if src is None or src > limit:
            raise InternalError("factor source search is inconsistent; "
                                f"got {src} for window at {pos} length {lo}")
        factors.append(Reference(src, lo))
        pos += lo
    return Lz77Factorization(tuple(factors), self_referential)


def slp_to_lz78(s: Slp) -> Lz78Factorization:
    """Dictionary factorization computed on the program; the shared
    driver tests an entry at the cursor with prefix_match against the
    entry's substring program, built the first time the entry is tried."""
    text_ann = annotate_runs(s)
    sigma = 0
    for v in reachable_vars(s):
        rule = s.rules[v - 1]
        if isinstance(rule, Term):
            sigma = max(sigma, rule.code + 1)
    programs: dict[int, tuple[Slp, RunLinkAnnotations]] = {}

    def matches(pos: int, start: int, length: int) -> bool:
        entry = programs.get(start)
        if entry is None:
            eslp = substring_slp(s, start, start + length - 1)
            entry = programs[start] = (eslp, annotate_runs(eslp))
        return prefix_match(s, pos, entry[0], text_ann, entry[1])

    return lz78_driver(s.length, sigma, partial(char_at, s), matches)


def slp_to_bisection(s: Slp) -> AdmissibleGrammar:
    """Rebuild the balanced splitting grammar without expanding.

    The shared driver keys a span by its length plus five sampled
    symbols. Equal keys are confirmed by slp_equals on substring programs,
    each built once and only when its key meets an earlier span (not by
    prefix_match, linear in N on periodic programs such as (ab)^k).
    """
    program = cache(partial(substring_slp, s))  # one program per span

    def key(i: int, j: int) -> tuple:
        span = j - i + 1
        offs = sorted({0, span - 1, span // 2, span // 4, (3 * span) // 4})
        return (span,) + tuple(char_at(s, i + o) for o in offs)

    def same(i: int, j: int, k: int) -> bool:
        return slp_equals(program(i, j), program(k, k + j - i))

    return bisection_driver(s.length, partial(char_at, s), key, same)
