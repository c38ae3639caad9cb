"""Conversions out of straight-line programs.

Every function here reads only the program: runs come from the
program's run annotations, and LZ77, LZ78 and bisection test whether two
stretches of the text agree with `slp_lce` (or `slp_equals` on span
programs), which walk run streams of the program and never the derived
string. LZ77 finds factor sources with occurrence queries on the runs
of a text window, all sharing one store of the text's edge runs, so no
window gets a program either. Outputs are defined to match the
reference codecs on the expansion, which the tests check against the
naive implementations.
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
    EdgeRuns,
    OccRepr,
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
    occurrence query on the prefix one symbol longer decides: the window
    occurs at pos, so its leftmost start always exists, and the window
    has an admissible source exactly when that leftmost start is one. If
    it is not, the factor is (src, length), otherwise it becomes src and
    the growth resumes. Each factor therefore spends one failing query,
    the query that ends it.

    Every query reads the window's runs, not a program of it, and all of
    them share one store of the text's edge runs. A longer query at the
    same pos also starts from the variables the shorter one found to hold
    no occurrence, since they hold none of any extension either.
    """
    n = s.length
    factors: list[Literal | Reference] = []
    pos = 1
    edges = EdgeRuns(s)

    def leftmost_source(length: int, shorter: OccRepr | None) -> tuple[OccRepr, int | None]:
        occ = occurrences(s, slp_runs(s, pos, pos + length - 1), edges)
        if shorter is not None:
            occ.inherit_misses(shorter)
        src = occ.min_start()
        if src is None or src > pos or not occ.membership(src):
            raise InternalError("factor source search is inconsistent; "
                                f"got {src} for window at {pos} length {length}")
        limit = pos - 1 if self_referential else pos - length
        return occ, (src if src <= limit else None)

    while pos <= n:
        rem = n - pos + 1
        cap = rem if self_referential else min(rem, pos - 1)
        occ, src = leftmost_source(1, None) if pos > 1 and cap >= 1 else (None, None)
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
            occ, nxt = leftmost_source(length + 1, occ)
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
