"""Primitives over straight line programs that never expand the text.

Occurrence sets are stored per text variable as ranges of starts that
cross the variable's left/right boundary, plus terminal matches for
single-character patterns. Every occurrence of a pattern of length >= 2
crosses exactly one boundary in the derivation tree, so the ranges with
derivation multiplicities cover the set exactly. A variable's ranges
are computed the first time a query needs them. Every leftmost-start
and range query is one walk that stops at its first hit and records the
variables it finds empty; listing visits every variable, and so does
counting unless the text has few enough runs that one scan of them
costs less. The ranges are built from the runs at the inner edges of the
variable's children, which an `EdgeRuns` store keeps per text variable,
as many from each edge as its fixed cap: each occurrence set builds one
of its own, capped at the pattern's run count plus two. A crossing
window and a whole text's runs are scanned for a pattern's anchors by
one helper (`_anchor_fits`). `run_count` gives the run count of the
derived string from the run annotations, without building a run.

A whole string's runs (`_runs_of`) are an `RleString`'s own, or a
program's: built children first as one tuple (`_program_runs`), in
O(runs) memory, when the program has at most `MAX_RUNS` runs and a
variable of two or more runs that two reachable rule sides name, whose
runs are then built once and copied into each parent at C speed; else
streamed in O(height) memory. The run annotations' one pass gives that
route, so picking it costs O(1) per call. `first_mismatch` (and so
`slp_equals`), the pattern of `occurrences` and the run route of
`OccRepr.count` read them, and the first two take a program or its runs.
Two tuples compare at C speed; a stream on either side is read up to the
first pair of runs that differ. Two programs whose builds would mostly
copy runs have a bounded prefix of their runs streamed first, so a
mismatch inside it builds neither.

Every test of whether two windows of the derived string agree
(`slp_lce`, `membership`, `prefix_match`) walks run streams: a
window's runs come from its O(height) cover pieces, found as the runs
are read, and the walk stops at the first pair of runs that differ.
`Fingerprints` only suggest
equality: a window's Karp-Rabin fingerprint folds those of its cover
pieces in O(height), and a caller confirms equal ones on the runs. A
window's cover (`_cut`) is found by `_descend` from the root, or from
the cover of any window that contains it, and `Fingerprints.window`
folds the pieces under a cover already found.

All positions are 1-based. Traversals use explicit stacks throughout;
derivation heights can exceed Python's recursion limit.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import compress, count, islice, zip_longest
from operator import itemgetter, ne

from .errors import BudgetExceededError, EmptyInputError, InternalError
from .model import RleString, RunLinkAnnotations, Slp, Term

_MAX_TREE_NODES = 1 << 21  # derivation tree nodes `OccRepr.positions` may visit
_FP_MOD = (1 << 61) - 1  # a Mersenne prime
_FP_BASE = 0x1D872B41C6F4A5  # fixed, so that traced counts repeat per seed


def char_at(s: Slp, i: int) -> int:
    """Symbol at position i of the derived string, in O(height) steps."""
    if not 1 <= i <= s.length:
        raise IndexError(f"position {i} out of range 1..{s.length}")
    v = s.n
    while True:
        rule = s.rules[v - 1]
        if isinstance(rule, Term):
            return rule.code
        l, r = rule
        ll = s.lengths[l - 1]
        if i <= ll:
            v = l
        else:
            i -= ll
            v = r


def reachable_vars(s: Slp) -> list[int]:
    """Variables reachable from the start rule, ascending. Children come
    before their parents, so one pass from X_n down to X_1 marks them
    all."""
    n = s.n
    seen = bytearray(n + 1)
    seen[n] = 1
    for v, rule in zip(range(n, 0, -1), reversed(s.rules)):
        if seen[v] and not isinstance(rule, Term):
            l, r = rule
            seen[l] = seen[r] = 1
    return list(compress(range(1, n + 1), seen[1:]))


def annotate_runs(s: Slp) -> RunLinkAnnotations:
    """The run annotations of s, computed on the first call and kept on
    s.annotations for every later one: one pass up the rules for the run
    geometry and the run counts, runs(X -> Y Z) = runs(Y) + runs(Z) -
    [last(Y) = first(Z)], then one pass down from the start that counts
    the reachable rule sides naming each variable of two or more runs and
    lists as shared those that two or more sides name."""
    if s.annotations is not None:
        return s.annotations
    rules, lengths = s.rules, s.lengths
    n = len(rules)
    plen, slen, first, last, llink, rlink, runs = ([0] * n for _ in range(7))
    for idx, rule in enumerate(rules):
        if isinstance(rule, Term):
            plen[idx] = slen[idx] = runs[idx] = 1
            first[idx] = last[idx] = rule.code
            llink[idx] = rlink[idx] = idx + 1
            continue
        l, r = rule
        li, ri = l - 1, r - 1
        len_l, len_r = lengths[li], lengths[ri]
        first[idx] = first[li]
        last[idx] = last[ri]
        runs[idx] = runs[li] + runs[ri] - (last[li] == first[ri])
        p = plen[li]
        if p == len_l and first[ri] == first[li]:
            p = len_l + plen[ri]
        plen[idx] = p
        q = slen[ri]
        if q == len_r and last[li] == last[ri]:
            q = len_r + slen[li]
        slen[idx] = q
        llink[idx] = idx + 1 if q <= len_r else llink[li]
        rlink[idx] = idx + 1 if p <= len_l else rlink[ri]
    # the rule sides that name each variable, counted from the start down:
    # a variable's parents all come after it, so its count is final when
    # the pass reaches it; the variables below a single run are one run
    # too, so they are neither counted nor shared
    refs = [0] * n
    refs[-1] = 1
    shared: list[int] = []
    for idx in range(n - 1, -1, -1):
        if refs[idx] and runs[idx] > 1:
            if refs[idx] > 1:
                shared.append(idx + 1)
            l, r = rules[idx]
            refs[l - 1] += 1
            refs[r - 1] += 1
    shared.reverse()
    # each list goes as soon as its tuple is made, so that a program's
    # annotations peak at one column over what they keep
    cols = [plen, slen, first, last, llink, rlink, runs]
    del refs, plen, slen, first, last, llink, rlink, runs
    for k, col in enumerate(cols):
        cols[k] = tuple(col)
    ann = RunLinkAnnotations(*cols, tuple(shared))
    object.__setattr__(s, "annotations", ann)
    return ann


def run_count(s: Slp) -> int:
    """How many runs the derived string has, read from the run
    annotations. No run is built, so a caller can bound a conversion that
    holds every run."""
    return annotate_runs(s).runs[-1]


# runs a whole-program run walk may hold as a tuple, and a program's direct
# conversion or verify walk in the CLI may take, about 600 MB
MAX_RUNS = 1 << 20

# text runs read in the time of one `OccRepr.count` crossing-walk step, a
# Python step against a C-speed scan: counting `abaa` in Fibonacci X_k
# (2-core VM), runs won at 1.2-2.5 per step (X_12-X_14), the walk at 3.7
_RUNS_PER_WALK_STEP = 3

# runs per rule from which `first_mismatch` streams a prefix before it
# builds two programs' runs: a built run is copied in some 15 ns and a
# streamed one read in some 420 ns (2-core VM), so from there a prefix of
# as many runs as the two programs have rules costs about as much as the
# builds, which then spend their time copying runs
_PREFIX_RUNS_PER_RULE = 64


def _cut(s: Slp, i: int, j: int) -> tuple[int, int, int]:
    """The deepest variable v containing positions i..j, and the range's
    positions lo..hi inside val(v)."""
    if not 1 <= i <= j <= s.length:
        raise IndexError(f"substring [{i}, {j}] out of range 1..{s.length}")
    return _descend(s, s.n, i, j)


def _descend(s: Slp, v: int, lo: int, hi: int) -> tuple[int, int, int]:
    """The deepest variable below v (v included) containing positions
    lo..hi of val(v), and the range's positions inside it. The path from
    the root to a window's cover passes through the cover of any window
    that contains it, so descending from that cover gives `_cut`'s
    triple in fewer steps."""
    rules, lengths = s.rules, s.lengths
    # a range short of all of val(v) lies in a pair rule
    while lo != 1 or hi != lengths[v - 1]:
        l, r = rules[v - 1]
        ll = lengths[l - 1]
        if hi <= ll:
            v = l
        elif lo > ll:
            lo -= ll
            hi -= ll
            v = r
        else:
            break
    return v, lo, hi


def _pieces(s: Slp, v: int, lo: int, hi: int) -> Iterator[int]:
    """Variables whose values concatenate to positions lo..hi of val(v),
    left to right: v alone if the range is all of val(v), otherwise the
    suffix siblings along the left cut path below v followed by the
    prefix siblings along the right one, O(height) pieces in all. The
    right path is walked only once the left path's pieces are consumed,
    so a reader that stops early never pays for it."""
    rules, lengths = s.rules, s.lengths
    if lo == 1 and hi == lengths[v - 1]:
        yield v
        return
    l, r = rules[v - 1]
    ll = lengths[l - 1]
    suffix_sibs: list[int] = []
    u, p = l, lo
    while p != 1:
        ul, ur = rules[u - 1]
        ull = lengths[ul - 1]
        if p > ull:
            p -= ull
            u = ur
        else:
            suffix_sibs.append(ur)
            u = ul
    yield u
    yield from reversed(suffix_sibs)
    u, q = r, hi - ll
    while q != lengths[u - 1]:
        ul, ur = rules[u - 1]
        ull = lengths[ul - 1]
        if q <= ull:
            u = ul
        else:
            yield ul
            q -= ull
            u = ur
    yield u


def _iter_runs(s: Slp, ann: RunLinkAnnotations, top: int) -> Iterator[tuple[int, int]]:
    """The runs of val(top) in text order, one at a time; the walk holds
    O(height) pending items, never the whole run list.

    A variable whose prefix run swallows its left child contributes the
    same interior runs as its right child (and symmetrically), so interior
    emission first jumps through rlink/llink, then splits into the two
    children around the run at the cut, which is the only place where two
    runs can merge.
    """
    rules, lengths = s.rules, s.lengths
    plen, slen, first, last = ann.plen, ann.slen, ann.first, ann.last
    llink, rlink = ann.llink, ann.rlink
    n_chars = lengths[top - 1]
    if plen[top - 1] == n_chars:
        yield (first[top - 1], n_chars)
        return
    yield (first[top - 1], plen[top - 1])
    stack: list[int | tuple[int, int]] = [top]
    push, pop = stack.append, stack.pop
    while stack:
        item = pop()
        if isinstance(item, tuple):
            yield item
            continue
        v = item
        # interior of v equals the interior of the jump target
        while True:
            l, r = rules[v - 1]
            if plen[v - 1] > lengths[l - 1]:
                v = rlink[v - 1]
            elif slen[v - 1] > lengths[r - 1]:
                v = llink[v - 1]
            else:
                break
        # pushed right to left, so l pops first
        li, ri = l - 1, r - 1
        if last[li] == first[ri]:
            # a swallowed child would have delegated above, so neither is unary
            push(r)
            push((last[li], slen[li] + plen[ri]))
            push(l)
        else:
            if plen[ri] != lengths[ri]:
                push(r)
                push((first[ri], plen[ri]))
            if plen[li] != lengths[li]:
                push((last[li], slen[li]))
                push(l)
    yield (last[top - 1], slen[top - 1])


def _window_runs(s: Slp, i: int, j: int) -> Iterator[tuple[int, int]]:
    """The runs of s[i..j] in text order, one at a time: the runs of the
    window's cover pieces, with equal symbols merged across the piece
    boundaries. A whole variable is a single piece and streams as is.
    Pieces are found as the runs are read, so a comparison that stops at
    the first runs never walks the window's right cut path."""
    ann = annotate_runs(s)
    top, lo, hi = _cut(s, i, j)
    if lo == 1 and hi == s.lengths[top - 1]:
        yield from _iter_runs(s, ann, top)
        return
    sym, exp = None, 0
    for v in _pieces(s, top, lo, hi):
        for c, e in _iter_runs(s, ann, v):
            if c == sym:
                exp += e
            else:
                if exp:
                    yield (sym, exp)
                sym, exp = c, e
    yield (sym, exp)


def _program_runs(s: Slp, ann: RunLinkAnnotations) -> tuple[tuple[int, int], ...]:
    """The runs of the derived string as one tuple, built children first.

    Each variable in ann.shared gets the list of its runs once, ascending,
    and the start rule is built the same way after them: a walk that
    appends a single-run variable as one run, copies a shared variable's
    list with one C-level slice assignment, and descends into any other
    variable, which one reachable rule side names, so it is walked once
    in all. Two runs merge only where a piece meets the run before it.
    Every run made here rather than copied is looked up in one table, so
    equal runs share one tuple object. The lists hold O(runs) memory; a
    program that shares no variable of two or more runs copies nothing
    and is faster streamed.
    """
    rules, lengths = s.rules, s.lengths
    runs, first, last = ann.runs, ann.first, ann.last
    distinct: dict[tuple[int, int], tuple[int, int]] = {}
    intern = distinct.setdefault
    built: list[list[tuple[int, int]] | None] = [None] * len(rules)
    for v in ann.shared + (len(rules),):
        out: list[tuple[int, int]] = []
        sym = -1  # the symbol of out's last run; no symbol is negative
        stack = [v]
        push, pop = stack.append, stack.pop
        while stack:
            u = pop() - 1
            got = built[u]
            if got is not None:
                if got[0][0] == sym:
                    k = len(out) - 1
                    run = (sym, out[k][1] + got[0][1])
                    out[k:] = got
                    out[k] = intern(run, run)
                else:
                    out += got
                sym = last[u]
            elif runs[u] == 1:
                if first[u] == sym:
                    run = (sym, out[-1][1] + lengths[u])
                    out[-1] = intern(run, run)
                else:
                    sym = first[u]
                    run = (sym, lengths[u])
                    out.append(intern(run, run))
            else:
                l, r = rules[u]
                push(r)
                push(l)
        built[v - 1] = out
    del built  # the shared lists go before the start's is copied
    return tuple(out)


def _first_difference(xs: Iterable[tuple[int, int]],
                      ys: Iterable[tuple[int, int]]) -> int | None:
    """How many leading symbols two run streams share, or None if they
    are equal. Stops at the first pair of runs that differ, so no run
    past it is produced. Two tuples are compared, and their first
    differing runs found, at C speed."""
    if isinstance(xs, tuple) and isinstance(ys, tuple):
        if xs == ys:
            return None
        k = next(compress(count(), map(ne, xs, ys)), min(len(xs), len(ys)))
        pos = sum(map(itemgetter(1), islice(xs, k)))
        if k == len(xs) or k == len(ys) or xs[k][0] != ys[k][0]:
            return pos
        return pos + min(xs[k][1], ys[k][1])
    pos = 0
    for x, y in zip_longest(xs, ys):
        if x != y:
            if x is None or y is None or x[0] != y[0]:
                return pos
            return pos + min(x[1], y[1])
        pos += x[1]
    return None


def slp_runs(s: Slp, i: int = 1, j: int | None = None) -> RleString:
    """Run-length encoding of s[i..j] (by default the whole derived
    string), without expanding it."""
    return RleString(tuple(_window_runs(s, i, s.length if j is None else j)))


def substring_slp(s: Slp, i: int, j: int) -> Slp:
    """An SLP deriving positions i..j, of size at most |s| + O(height).

    The result is the rules up to the window's deepest variable v if the
    range is all of val(v); otherwise the rules below v plus a
    left-associative chain of fresh rules stitching the window's cover
    pieces. It is a plain program: lengths are derived on construction, and
    run annotations are computed on first use like any other program's.
    """
    v, lo, hi = _cut(s, i, j)
    pieces = list(_pieces(s, v, lo, hi))
    keep = v if len(pieces) == 1 else v - 1  # the stitched chain takes the place of v
    stitched: list[tuple[int, int]] = []
    cur = pieces[0]
    for nxt in pieces[1:]:
        stitched.append((cur, nxt))
        cur = keep + len(stitched)
    return Slp.build(s.rules[:keep] + tuple(stitched))


class Fingerprints:
    """Karp-Rabin fingerprints of the windows of one program's string.

    The fingerprint of c_1..c_m is the sum of (c_k + 1) * B^(m-k) modulo
    the prime P = 2^61 - 1, for a fixed base B. One bottom-up pass over
    the rules gives every variable its fingerprint and B^len; a window's
    fingerprint folds those of its O(height) cover pieces. Equal strings
    get equal fingerprints whichever programs and covers derive them, so
    equal fingerprints only suggest equality, and callers confirm them on
    the text (Karp & Rabin, IBM J. Res. Dev. 1987).
    """

    def __init__(self, s: Slp):
        mod = _FP_MOD
        base = _FP_BASE % mod
        fp: list[int] = []
        power: list[int] = []
        for rule in s.rules:
            if isinstance(rule, Term):
                fp.append((rule.code + 1) % mod)
                power.append(base)
            else:
                l, r = rule
                fp.append((fp[l - 1] * power[r - 1] + fp[r - 1]) % mod)
                power.append(power[l - 1] * power[r - 1] % mod)
        self.text = s
        self._mod, self._fp, self._power = mod, fp, power

    def span(self, i: int, j: int) -> int:
        """The fingerprint of s[i..j], in O(height) steps."""
        return self.window(*_cut(self.text, i, j))

    def window(self, v: int, lo: int, hi: int) -> int:
        """The fingerprint of positions lo..hi of val(v), where v is the
        range's cover as `_cut` or `_descend` gives it: that of v itself
        if the range is all of it, else a fold over the range's pieces
        below v, in O(height of v) steps."""
        fp, power, mod = self._fp, self._power, self._mod
        h = 0
        for u in _pieces(self.text, v, lo, hi):
            h = (h * power[u - 1] + fp[u - 1]) % mod
        return h


def slp_lce(s: Slp, i: int, j: int, limit: int) -> int:
    """How many leading symbols of s[i..i+limit-1] and s[j..j+limit-1]
    agree; 0 when limit is 0.

    Walks the two windows' run streams up to the first pair of runs that
    differ: O(height) to cover each window, then one step per run up to
    the first difference. No conversion asks it: LZ77 takes the run
    lane, and LZ78 reads the runs from the cursor. A binary search over
    `Fingerprints` spans, closed by a check of the output, would answer
    in O(height * log limit) whatever the run count.
    """
    if limit < 0 or min(i, j) < 1 or max(i, j) + limit - 1 > s.length:
        raise IndexError(f"windows at {i} and {j} of length {limit} "
                         f"out of range 1..{s.length}")
    if limit == 0:
        return 0
    d = _first_difference(_window_runs(s, i, i + limit - 1),
                          _window_runs(s, j, j + limit - 1))
    return limit if d is None else d


class EdgeRuns:
    """The runs nearest each edge of the variables of one text, up to a
    fixed cap.

    A list holds the first `cap` runs of a variable from one edge, in
    order away from it, with true exponents. It ends with the closing
    run (-1, 0) exactly when its runs cover the variable, so a list
    that runs out without it was cut off. The closing run has exponent
    0 and a symbol no text holds, so it matches no run of a window or a
    pattern. Each list is computed once, along the variable's spine, on
    first use, and every caller gets that same list: none may change it.
    """

    def __init__(self, text: Slp, cap: int):
        self.text = text
        self.cap = cap
        self._lists: tuple[dict, dict] = ({}, {})

    def edge(self, v: int, outer: int) -> list[tuple[int, int]]:
        """The list of val(v) from its first (outer=0) or last (outer=1)
        symbol."""
        memo = self._lists[outer]
        got = memo.get(v)
        return self._fill(v, memo, outer) if got is None else got

    def _fill(self, v: int, memo: dict, outer: int) -> list[tuple[int, int]]:
        """The list of v, computing those of the spine below it first.
        The inner child is consulted only when the outer child's list is
        closed."""
        rules, cap = self.text.rules, self.cap
        stack = [v]
        while stack:
            u = stack[-1]
            rule = rules[u - 1]
            if isinstance(rule, Term):
                memo[u] = [(rule.code, 1), (-1, 0)]
                stack.pop()
                continue
            a = memo.get(rule[outer])
            if a is None:
                stack.append(rule[outer])
                continue
            if a[-1][1]:  # cut off: the inner child lies past the cap
                memo[u] = a
                stack.pop()
                continue
            b = memo.get(rule[1 - outer])
            if b is None:
                stack.append(rule[1 - outer])
                continue
            (c, e), (d, f) = a[-2], b[0]
            if c == d:
                merged = a[:-2] + [(c, e + f)] + b[1:]
            else:
                merged = a[:-1] + b
            if len(merged) > cap and merged[cap][1]:  # more than cap runs
                del merged[cap:]
            memo[u] = merged
            stack.pop()
        return memo[v]


def _kmp_find_all(needle: list, hay: list) -> list[int]:
    if len(needle) > len(hay):
        return []
    fail = [0] * len(needle)
    k = 0
    for i in range(1, len(needle)):
        while k and needle[i] != needle[k]:
            k = fail[k - 1]
        if needle[i] == needle[k]:
            k += 1
        fail[i] = k
    matches = []
    k = 0
    for i, x in enumerate(hay):
        while k and x != needle[k]:
            k = fail[k - 1]
        if x == needle[k]:
            k += 1
        if k == len(needle):
            matches.append(i - k + 1)
            k = fail[k - 1]
    return matches


def _anchor_fits(pruns: list[tuple[int, int]],
                 runs: Sequence[tuple[int, int]]) -> list[int]:
    """The anchors t at which a pattern of two or more runs occurs in a
    sequence of runs with true exponents: its interior runs equal
    runs[t..t + r_p - 3], found by one KMP scan, and runs[t - 1] and
    runs[t + r_p - 2] hold its first and last symbols at least as often
    as it does (r_p = pattern run count). Runs are maximal, so each anchor
    is exactly one occurrence, the one that starts pruns[0][1] symbols
    before runs[t] does."""
    rp = len(pruns)
    first_sym, first_exp = pruns[0]
    last_sym, last_exp = pruns[-1]
    interior = pruns[1:-1]
    anchors = _kmp_find_all(interior, runs) if interior else range(1, len(runs))
    fits = []
    for t in anchors:
        if t == 0 or t + rp - 2 >= len(runs):
            continue
        psym, pexp = runs[t - 1]
        qsym, qexp = runs[t + rp - 2]
        if psym == first_sym and pexp >= first_exp and qsym == last_sym and qexp >= last_exp:
            fits.append(t)
    return fits


class OccRepr:
    """Occurrence starts of one pattern inside one compressed text.

    A text variable's crossings are sorted ranges (lo, hi) of starts,
    relative to the variable's own origin, of occurrences that cross its
    child boundary. They are computed the first time a query needs them,
    from the runs at the inner edges of the two children, which come from
    the set's own `EdgeRuns` store, capped at the pattern's run count
    plus two. A one-symbol pattern has no crossings and matches the
    terminal variables deriving its symbol.
    `min_start`, `exists_start_in` and `exists_fully_within` are one
    left-to-right walk for the first start in a range, which keeps the
    set of variables found to hold no occurrence (the miss set) for every
    later query; nothing here ever expands the text. `count` takes the
    cheaper of two exact routes: the crossing walk over every variable,
    about n + 2L(r_p + 2) steps for L variables at least as long as the
    pattern whose crossings the set has not yet found, or, for a text of
    R <= MAX_RUNS runs where R is at most `_RUNS_PER_WALK_STEP` times
    that, one anchor scan in O(R + r_p) steps.
    """

    def __init__(self, text: Slp, pattern_runs: list[tuple[int, int]]):
        self.text = text
        self.pattern_length = sum(exp for _, exp in pattern_runs)
        self._pruns = pattern_runs
        self._edges = EdgeRuns(text, len(pattern_runs) + 2)
        self._crossing: dict[int, tuple[tuple[int, int], ...]] = {}
        self._misses: set[int] = set()

    def _term_matches(self, code: int) -> bool:
        return self.pattern_length == 1 and code == self._pruns[0][0]

    def _cross(self, v: int) -> tuple[tuple[int, int], ...]:
        """Sorted ranges (lo, hi) of the starts in v that cross its child
        boundary.

        Candidate starts are anchored at run boundaries of a window of runs
        around the cut: a crossing occurrence touches at most r_p runs per
        side (r_p = pattern run count), so windows of r_p + 2 true-exponent
        runs per side lose nothing. The closing run of a list that covers
        its child stays in the window and matches no pattern run.
        A single-run pattern gets one range, by length arithmetic on the run
        at the cut. A pattern of two or more runs never starts at two
        adjacent positions, so each of its starts is a range (o, o).
        """
        got = self._crossing.get(v)
        if got is not None:
            return got
        text = self.text
        length = self.pattern_length
        if length == 1 or text.lengths[v - 1] < length:  # terminals included
            self._crossing[v] = ()
            return ()
        l, r = text.rules[v - 1]
        b = text.lengths[l - 1]
        window: list[tuple[int, int, int]] = []
        pos = b + 1
        for sym, exp in self._edges.edge(l, 1):
            pos -= exp
            window.append((sym, exp, pos))
        window.reverse()
        head_runs = self._edges.edge(r, 0)
        nxt = b + 1
        start_idx = 0
        if window and head_runs and window[-1][0] == head_runs[0][0]:
            sym, exp, ws = window[-1]
            window[-1] = (sym, exp + head_runs[0][1], ws)
            nxt += head_runs[0][1]
            start_idx = 1
        for sym, exp in head_runs[start_idx:]:
            window.append((sym, exp, nxt))
            nxt += exp
        pruns = self._pruns
        first_sym, first_exp = pruns[0]
        spans: list[tuple[int, int]] = []
        if len(pruns) == 1:
            for sym, exp, ws in window:
                if ws <= b and ws + exp - 1 >= b + 1:
                    if sym == first_sym:
                        o_lo = max(ws, b - length + 2)
                        o_hi = min(b, ws + exp - length)
                        if o_lo <= o_hi:
                            spans.append((o_lo, o_hi))
                    break
        else:
            for t in _anchor_fits(pruns, [(sym, exp) for sym, exp, _ in window]):
                o = window[t][2] - first_exp
                if o <= b and o + length - 1 >= b + 1:
                    if o < 1 or o + length - 1 > text.lengths[v - 1]:
                        raise InternalError(f"occurrence {o} escapes variable {v}")
                    spans.append((o, o))
        got = self._crossing[v] = tuple(spans)
        return got

    def _first_start(self, lo: int, hi: int) -> int | None:
        """The leftmost start in [lo, hi], or None.

        Visits the left child, then the variable's crossings, then the
        right child, so the first start found is the leftmost, and stops
        there. A variable enters the miss set only when every start it
        could hold lay inside the range and none was found; every later
        walk skips it."""
        if lo > hi:
            return None
        s = self.text
        rules, lengths = s.rules, s.lengths
        length = self.pattern_length
        misses = self._misses
        # stage 0 enters a variable, 1 follows a left child with no start
        # in the range, 2 a right child with none; a..b is the range
        # relative to the variable's origin, top its last possible start
        stack = [(s.n, 0, 0)]  # (variable, offset, stage)
        while stack:
            v, base, stage = stack.pop()
            top = lengths[v - 1] - length + 1
            a = lo - base
            b = hi - base
            if stage == 0:
                if a > top or b < 1 or top < 1 or v in misses:
                    continue
                rule = rules[v - 1]
                if isinstance(rule, Term):  # a one-symbol pattern, a <= 1 <= b
                    if self._term_matches(rule.code):
                        return base + 1
                    misses.add(v)
                    continue
                stack.append((v, base, 1))
                stack.append((rule[0], base, 0))
            elif stage == 1:
                for f, g in self._cross(v):
                    if f <= b and g >= a:
                        return base + (f if f > a else a)
                l, r = rules[v - 1]
                stack.append((v, base, 2))
                stack.append((r, base + lengths[l - 1], 0))
            elif a <= 1 and b >= top:
                misses.add(v)
        return None

    def min_start(self) -> int | None:
        """Leftmost start, or None."""
        return self._first_start(1, self.text.length)

    def membership(self, k: int) -> bool:
        """Does an occurrence start at k? Compares the runs of the text
        window at k with the pattern's runs, up to the first pair that
        differ; no crossing is computed."""
        s = self.text
        length = self.pattern_length
        if k < 1 or k + length - 1 > s.length:
            return False
        return _first_difference(_window_runs(s, k, k + length - 1), self._pruns) is None

    def exists_start_in(self, lo: int, hi: int) -> bool:
        """Some occurrence starts at a position in [lo, hi]."""
        return self._first_start(lo, hi) is not None

    def exists_fully_within(self, lo: int, hi: int) -> bool:
        """Some occurrence lies entirely inside positions [lo, hi]."""
        return self._first_start(lo, hi - self.pattern_length + 1) is not None

    def count(self) -> int:
        """How many times the pattern occurs, overlapping ones included.

        Takes the cheaper of two exact routes. The crossing walk visits
        the n variables once, with their derivation multiplicities, and
        sums the crossings of the L variables at least as long as the
        pattern, whose windows hold up to r_p + 2 runs from each side of
        the cut (r_p = pattern run count): about n + 2L(r_p + 2) steps,
        where L leaves out the variables whose crossings an earlier query
        of this set has found, as the walk reads those from `_crossing`.
        The run route reads the text's R runs (`_runs_of`) and counts the
        anchors of one scan over them, in O(R + r_p) steps and O(R)
        memory. It is taken when R is at most MAX_RUNS and at most
        `_RUNS_PER_WALK_STEP` times the walk's steps; R is read from the
        run annotations in O(1), and L from the lengths at C speed less
        the crossings found. A text whose run count grows exponentially
        in n, such as a Fibonacci word, keeps the walk, so a count costs
        about the smaller of the two.
        """
        s = self.text
        pruns = self._pruns
        runs = run_count(s)
        length, lengths = self.pattern_length, s.lengths
        longer = sum(map(length.__le__, lengths))
        longer -= sum(lengths[v - 1] >= length for v in self._crossing)  # found before
        walk = s.n + 2 * (len(pruns) + 2) * longer
        if runs <= MAX_RUNS and runs <= _RUNS_PER_WALK_STEP * walk:
            return self._count_on_runs()
        voc = [0] * (s.n + 1)
        voc[s.n] = 1
        total = 0
        for v in range(s.n, 0, -1):
            m = voc[v]
            if not m:
                continue
            rule = s.rules[v - 1]
            if isinstance(rule, Term):
                if self._term_matches(rule.code):
                    total += m
                continue
            for f, g in self._cross(v):
                total += m * (g - f + 1)
            l, r = rule
            voc[l] += m
            voc[r] += m
        return total

    def _count_on_runs(self) -> int:
        """The count read off the text's own runs: a one-run pattern c^e
        fits x - e + 1 times in each run c^x with x >= e, a longer one once
        at each anchor of `_anchor_fits`."""
        runs = tuple(_runs_of(self.text))  # a built tuple is not copied
        pruns = self._pruns
        if len(pruns) > 1:
            return len(_anchor_fits(pruns, runs))
        (sym, exp), = pruns
        return sum(x - exp + 1 for c, x in runs if c == sym and x >= exp)

    def positions(self) -> list[int]:
        """All absolute starts, by walking the derivation tree. Test-scale
        only; the tree has one node per text position."""
        s = self.text
        out: list[int] = []
        nodes = 0
        stack = [(s.n, 0)]
        while stack:
            v, base = stack.pop()
            nodes += 1
            if nodes > _MAX_TREE_NODES:
                raise BudgetExceededError(nodes, _MAX_TREE_NODES)
            rule = s.rules[v - 1]
            if isinstance(rule, Term):
                if self._term_matches(rule.code):
                    out.append(base + 1)
                continue
            for f, g in self._cross(v):
                out.extend(range(base + f, base + g + 1))
            l, r = rule
            stack.append((r, base + s.lengths[l - 1]))
            stack.append((l, base))
        out.sort()
        return out


def _tuple_route(s: Slp | RleString) -> RunLinkAnnotations | None:
    """The run annotations of s if `_runs_of` builds its runs as one
    tuple, as it does for a program that shares a variable of two or more
    runs and has at most MAX_RUNS runs; else None. O(1) once s is
    annotated."""
    if isinstance(s, RleString):
        return None
    ann = annotate_runs(s)
    return ann if ann.shared and ann.runs[-1] <= MAX_RUNS else None


def _runs_of(s: Slp | RleString) -> Iterable[tuple[int, int]]:
    """The runs of a whole string: an RleString's own, or a program's.
    A program on the `_tuple_route` gets them as one tuple from
    `_program_runs`; any other is streamed, in O(height) memory."""
    if isinstance(s, RleString):
        return s.runs
    ann = _tuple_route(s)
    if ann is not None:
        return _program_runs(s, ann)
    return _iter_runs(s, s.annotations, s.n)


def occurrences(text: Slp, pattern: Slp | RleString) -> OccRepr:
    """The occurrence set of a pattern inside val(text). The pattern is a
    program or its runs.

    Only the pattern side is computed here: its runs, whose count r
    fixes the cap of the set's own `EdgeRuns` store at r + 2. Each text
    variable's crossings are left to the queries, which compute them on
    first use from that store. An empty run list raises
    EmptyInputError.
    """
    runs = list(_runs_of(pattern))
    if not runs:
        raise EmptyInputError("cannot search for the empty pattern")
    return OccRepr(text, runs)


def slp_equals(a: Slp, b: Slp) -> bool:
    """Do two programs derive the same string? Equal lengths and no first
    mismatch."""
    return a is b or a.length == b.length and first_mismatch(a, b) is None


def prefix_match(text: Slp, pos: int, pattern: Slp) -> bool:
    """Does val(pattern) occur in val(text) starting at pos? Compares the
    runs of the text window at pos with the pattern's runs, up to the
    first pair that differ."""
    if pos < 1 or pos + pattern.length - 1 > text.length:
        raise IndexError(f"window [{pos}, {pos + pattern.length - 1}] "
                         f"out of range 1..{text.length}")
    return _first_difference(_window_runs(text, pos, pos + pattern.length - 1),
                             _window_runs(pattern, 1, pattern.length)) is None


def first_mismatch(a: Slp | RleString, b: Slp | RleString) -> int | None:
    """First position where two strings differ, or None if equal. Each
    side is a program or its runs.

    Reads each side's runs as `_runs_of` gives them: an RleString's own
    runs; a program's as one tuple built from its shared variables, in
    O(runs) memory; or, for a program that shares none or has more than
    MAX_RUNS runs, as a stream in O(height) memory. Two tuples are
    compared at C speed. With a stream on either side the runs are read
    side by side up to the first pair that differ, and no stream run past
    it is produced. That pair fixes the position; an empty run list
    differs from any other string at position 1.

    Two programs that would both be built, with k rules between them and
    at least _PREFIX_RUNS_PER_RULE * k runs, first have their first k
    runs streamed side by side, and are built only if those agree. The
    builds of such texts go mostly to copying runs at C speed, so an
    early mismatch costs O(k + height) steps where the builds would cost
    O(runs), and a late one about twice the builds at most.
    """
    ann_a = _tuple_route(a)
    ann_b = None if ann_a is None else _tuple_route(b)
    if ann_b is None:
        d = _first_difference(_runs_of(a), _runs_of(b))
    else:
        runs_a, runs_b = ann_a.runs, ann_b.runs
        k = len(runs_a) + len(runs_b)  # the two programs' rules
        if runs_a[-1] + runs_b[-1] >= _PREFIX_RUNS_PER_RULE * k:
            d = _first_difference(islice(_iter_runs(a, ann_a, a.n), k),
                                  islice(_iter_runs(b, ann_b, b.n), k))
            if d is not None:
                return d + 1
        d = _first_difference(_program_runs(a, ann_a), _program_runs(b, ann_b))
    return None if d is None else d + 1
