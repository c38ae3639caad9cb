"""Conversions out of straight-line programs.

Every function here reads only the program: runs come from the
program's run annotations, and LZ77, LZ78 and bisection test whether two
stretches of the text agree with `slp_lce` (or `slp_equals` on span
programs), which walk run streams of the program and never the derived
string. Outputs are defined to match the reference codecs on the
expansion, which the tests check against the naive implementations.
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
    char_at,
    occurrences,
    reachable_vars,
    slp_equals,
    slp_lce,
    slp_runs,
    substring_slp,
)


def slp_to_rle(s: Slp) -> RleString:
    """Run-length encoding of the derived string."""
    return slp_runs(s)


def slp_to_lz77(s: Slp, self_referential: bool = False) -> Lz77Factorization:
    """Greedy leftmost-longest factorization computed on the program.

    Each factor keeps a candidate source src: the leftmost admissible
    source of the current prefix of the factor. The prefix grows by one
    slp_lce between src and the cursor, capped at pos - src without
    self-references. That keeps src leftmost, since every admissible
    source of a longer prefix is one of the shorter prefix too. Then one
    full occurrence query on the prefix one symbol longer decides: if it
    has no admissible source the factor is (src, length), otherwise its
    leftmost start becomes src and the growth resumes. Each factor
    therefore spends one failing full query, the query that ends it.
    """
    n = s.length
    factors: list[Literal | Reference] = []
    pos = 1

    def leftmost_source(length: int) -> int | None:
        occ = occurrences(s, substring_slp(s, pos, pos + length - 1))
        if self_referential:
            found = occ.exists_start_in(1, pos - 1)
        else:
            found = occ.exists_fully_within(1, pos - 1)
        if not found:
            return None
        src = occ.min_start()
        limit = pos - 1 if self_referential else pos - length
        if src is None or src > limit:
            raise InternalError("factor source search is inconsistent; "
                                f"got {src} for window at {pos} length {length}")
        return src

    while pos <= n:
        rem = n - pos + 1
        cap = rem if self_referential else min(rem, pos - 1)
        src = leftmost_source(1) if pos > 1 and cap >= 1 else None
        if src is None:
            factors.append(Literal(char_at(s, pos)))
            pos += 1
            continue
        length = 1
        while True:
            src_cap = cap if self_referential else min(cap, pos - src)
            length += slp_lce(s, src + length, pos + length, src_cap - length)
            if length == cap:
                break
            nxt = leftmost_source(length + 1)
            if nxt is None:
                break
            src, length = nxt, length + 1
        factors.append(Reference(src, length))
        pos += length
    return Lz77Factorization(tuple(factors), self_referential)


def slp_to_lz78(s: Slp) -> Lz78Factorization:
    """Dictionary factorization computed on the program; the shared
    driver tests an entry at the cursor with slp_lce between the entry's
    own text interval and the cursor, so no entry gets a program."""
    sigma = 0
    for v in reachable_vars(s):
        rule = s.rules[v - 1]
        if isinstance(rule, Term):
            sigma = max(sigma, rule.code + 1)

    def matches(pos: int, start: int, length: int) -> bool:
        return slp_lce(s, pos, start, length) == length

    return lz78_driver(s.length, sigma, partial(char_at, s), matches)


def slp_to_bisection(s: Slp) -> AdmissibleGrammar:
    """Rebuild the balanced splitting grammar without expanding.

    The shared driver keys a span by its length plus five sampled
    symbols. Equal keys are confirmed by slp_equals on substring programs,
    each built once and only when its key meets an earlier span; it walks
    the runs of the two spans, linear in their run count up to the first
    difference.
    """
    program = cache(partial(substring_slp, s))  # one program per span

    def key(i: int, j: int) -> tuple:
        span = j - i + 1
        offs = sorted({0, span - 1, span // 2, span // 4, (3 * span) // 4})
        return (span,) + tuple(char_at(s, i + o) for o in offs)

    def same(i: int, j: int, k: int) -> bool:
        return slp_equals(program(i, j), program(k, k + j - i))

    return bisection_driver(s.length, partial(char_at, s), key, same)
