"""Primitives over straight line programs that never expand the text.

Occurrence sets are stored per text variable as ranges of starts that
cross the variable's left/right boundary, plus terminal matches for
single-character patterns. Every occurrence of a pattern of length >= 2
crosses exactly one boundary in the derivation tree, so the ranges with
derivation multiplicities cover the set exactly. A variable's ranges
are computed the first time a query needs them. Every leftmost-start
and range query is one walk that stops at its first hit and records the
variables it finds empty, and only counting and listing visit every
variable. The ranges are built from the runs at the inner edges of the
variable's children, which do not depend on the pattern: an `EdgeRuns`
store keeps them per text variable, so a caller that asks many queries
of one text (`slp_to_lz77` does, one per probe) computes each
variable's edge runs once, not once per query.

Every test of whether two stretches of the derived string agree
(`slp_lce`, `membership`, `prefix_match`, `first_mismatch`,
`slp_equals`) walks run streams: a window's runs come from its
O(height) cover pieces, found as the runs are read, and the walk stops
at the first pair of runs that differ. `Fingerprints` only suggest
equality: a window's Karp-Rabin fingerprint folds those of its cover
pieces in O(height), and a caller confirms equal ones on the runs.

All positions are 1-based. Traversals use explicit stacks throughout;
derivation heights can exceed Python's recursion limit.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import zip_longest

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
    """Variables reachable from the start rule, ascending."""
    seen = bytearray(s.n + 1)
    seen[s.n] = 1
    work = [s.n]
    while work:
        rule = s.rules[work.pop() - 1]
        if not isinstance(rule, Term):
            for c in rule:
                if not seen[c]:
                    seen[c] = 1
                    work.append(c)
    return [v for v in range(1, s.n + 1) if seen[v]]


def annotate_runs(s: Slp) -> RunLinkAnnotations:
    """The run annotations of s, computed bottom-up in one pass over the
    rules on the first call and kept on s.annotations for every later
    one."""
    if s.annotations is not None:
        return s.annotations
    rules, lengths = s.rules, s.lengths
    plen, slen, first, last, llink, rlink = ([0] * len(rules) for _ in range(6))
    for idx, rule in enumerate(rules):
        if isinstance(rule, Term):
            plen[idx] = slen[idx] = 1
            first[idx] = last[idx] = rule.code
            llink[idx] = rlink[idx] = idx + 1
            continue
        l, r = rule
        li, ri = l - 1, r - 1
        len_l, len_r = lengths[li], lengths[ri]
        first[idx] = first[li]
        last[idx] = last[ri]
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
    ann = RunLinkAnnotations(tuple(plen), tuple(slen), tuple(first),
                             tuple(last), tuple(llink), tuple(rlink))
    object.__setattr__(s, "annotations", ann)
    return ann


def _cut(s: Slp, i: int, j: int) -> tuple[int, int, int]:
    """The deepest variable v containing positions i..j, and the range's
    positions lo..hi inside val(v)."""
    if not 1 <= i <= j <= s.length:
        raise IndexError(f"substring [{i}, {j}] out of range 1..{s.length}")
    rules, lengths = s.rules, s.lengths
    v, lo, hi = len(rules), i, j
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
    n_chars = s.lengths[top - 1]
    if ann.plen[top - 1] == n_chars:
        yield (ann.first[top - 1], n_chars)
        return
    yield (ann.first[top - 1], ann.plen[top - 1])
    stack: list[int | tuple[int, int]] = [top]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            yield item
            continue
        v = item
        # interior of v equals the interior of the jump target
        while True:
            l, r = s.rules[v - 1]
            if ann.plen[v - 1] > s.lengths[l - 1]:
                v = ann.rlink[v - 1]
                continue
            if ann.slen[v - 1] > s.lengths[r - 1]:
                v = ann.llink[v - 1]
                continue
            break
        l, r = s.rules[v - 1]
        li, ri = l - 1, r - 1
        l_unary = ann.plen[li] == s.lengths[li]
        r_unary = ann.plen[ri] == s.lengths[ri]
        pushes: list[int | tuple[int, int]] = []
        if ann.last[li] == ann.first[ri]:
            # a swallowed child would have delegated above, so neither is unary
            pushes = [l, (ann.last[li], ann.slen[li] + ann.plen[ri]), r]
        else:
            if not l_unary:
                pushes += [l, (ann.last[li], ann.slen[li])]
            if not r_unary:
                pushes += [(ann.first[ri], ann.plen[ri]), r]
        stack.extend(reversed(pushes))
    yield (ann.last[top - 1], ann.slen[top - 1])


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


def _first_difference(xs: Iterable[tuple[int, int]],
                      ys: Iterable[tuple[int, int]]) -> int | None:
    """How many leading symbols two run streams share, or None if they
    are equal. Stops at the first pair of runs that differ, so no run
    past it is produced."""
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
        fp, power, mod = self._fp, self._power, self._mod
        h = 0
        for v in _pieces(self.text, *_cut(self.text, i, j)):
            h = (h * power[v - 1] + fp[v - 1]) % mod
        return h


def slp_lce(s: Slp, i: int, j: int, limit: int) -> int:
    """How many leading symbols of s[i..i+limit-1] and s[j..j+limit-1]
    agree; 0 when limit is 0.

    Walks the two windows' run streams up to the first pair of runs that
    differ: O(height) to cover each window, then one step per run up to
    the first difference. LZ77's driver asks it through the program
    lane's lce; LZ78 reads the runs from the cursor. A binary search over
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
    """The runs nearest each edge of the variables of one text, shared by
    every occurrence query on it.

    A variable's head runs (from its first symbol on) and tail runs (from
    its last symbol backwards) do not depend on the pattern, so one store
    serves any number of queries. Each list is the first `runs` runs of
    the variable from that edge, with true exponents, and a flag for a
    list that covers the whole variable. A query asking for more runs at
    least doubles the bound and starts the lists afresh; a query asking
    for fewer gets the first runs of a stored list. Lists are computed
    along the variables' spines on first use.
    """

    def __init__(self, text: Slp):
        self.text = text
        self.runs = 0
        self._lists: tuple[dict, dict] = ({}, {})

    def edge(self, v: int, outer: int, cap: int) -> list[tuple[int, int]]:
        """The first cap runs of val(v) from its first (outer=0) or last
        (outer=1) symbol, in order away from that edge, with true
        exponents; all of them if val(v) has fewer."""
        if cap > self.runs:
            self.runs = max(cap, 2 * self.runs)
            self._lists = ({}, {})
        memo = self._lists[outer]
        got = memo.get(v)
        if got is None:
            got = self._fill(v, memo, outer)
        return got[0] if cap == self.runs else got[0][:cap]

    def _fill(self, v: int, memo: dict, outer: int) -> tuple[list[tuple[int, int]], bool]:
        """The stored list of v, computing those of the spine below it
        first. The inner child is consulted only when the outer child is
        complete."""
        rules = self.text.rules
        runs = self.runs
        stack = [v]
        while stack:
            u = stack[-1]
            rule = rules[u - 1]
            if isinstance(rule, Term):
                memo[u] = ([(rule.code, 1)], True)
                stack.pop()
                continue
            o = memo.get(rule[outer])
            if o is None:
                stack.append(rule[outer])
                continue
            if not o[1]:
                memo[u] = o
                stack.pop()
                continue
            i = memo.get(rule[1 - outer])
            if i is None:
                stack.append(rule[1 - outer])
                continue
            a, b = o[0], i[0]
            if a[-1][0] == b[0][0]:
                merged = a[:-1] + [(a[-1][0], a[-1][1] + b[0][1])] + b[1:]
            else:
                merged = a + b
            kept = merged[:runs]
            memo[u] = (kept, i[1] and len(kept) == len(merged))
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


class OccRepr:
    """Occurrence starts of one pattern inside one compressed text.

    A text variable's crossings are sorted ranges (lo, hi) of starts,
    relative to the variable's own origin, of occurrences that cross its
    child boundary. They are computed the first time a query needs them,
    from the runs at the inner edges of the two children, which come from
    an `EdgeRuns` store of the text: the caller's, shared with its other
    queries on the same text, or a fresh one. A one-symbol pattern has no
    crossings and matches the terminal variables deriving its symbol.
    `min_start`, `exists_start_in` and `exists_fully_within` are one
    left-to-right walk for the first start in a range, which keeps the
    set of variables found to hold no occurrence (the miss set) for every
    later query; nothing here ever expands the text.
    """

    def __init__(self, text: Slp, pattern_runs: list[tuple[int, int]],
                 edges: EdgeRuns | None = None):
        if edges is None:
            edges = EdgeRuns(text)
        elif edges.text is not text:
            raise ValueError("edge store belongs to another text")
        self.text = text
        self.pattern_length = sum(exp for _, exp in pattern_runs)
        self._pruns = pattern_runs
        self._cap = len(pattern_runs) + 2
        self._edges = edges
        self._crossing: dict[int, tuple[tuple[int, int], ...]] = {}
        self._misses: set[int] = set()

    def _term_matches(self, code: int) -> bool:
        return self.pattern_length == 1 and code == self._pruns[0][0]

    def inherit_misses(self, shorter: OccRepr) -> None:
        """Take over the miss set of shorter's pattern, which must be a
        prefix of this one's on the same text: a variable holding no
        occurrence of it holds none of this pattern either."""
        a, b = shorter._pruns, self._pruns
        k = len(a) - 1
        if (shorter.text is not self.text or k >= len(b) or a[:k] != b[:k]
                or a[k][0] != b[k][0] or a[k][1] > b[k][1]):
            raise ValueError("pattern does not extend the shorter one")
        self._misses |= shorter._misses

    def _cross(self, v: int) -> tuple[tuple[int, int], ...]:
        """Sorted ranges (lo, hi) of the starts in v that cross its child
        boundary.

        Candidate starts are anchored at run boundaries of a window of runs
        around the cut: a crossing occurrence touches at most r_p runs per
        side (r_p = pattern run count), so windows of r_p + 2 true-exponent
        runs per side lose nothing.
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
        edges, cap = self._edges, self._cap
        for sym, exp in edges.edge(l, 1, cap):
            pos -= exp
            window.append((sym, exp, pos))
        window.reverse()
        head_runs = edges.edge(r, 0, cap)
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
        rp = len(pruns)
        first_sym, first_exp = pruns[0]
        last_sym, last_exp = pruns[-1]
        spans: list[tuple[int, int]] = []
        if rp == 1:
            for sym, exp, ws in window:
                if ws <= b and ws + exp - 1 >= b + 1:
                    if sym == first_sym:
                        o_lo = max(ws, b - length + 2)
                        o_hi = min(b, ws + exp - length)
                        if o_lo <= o_hi:
                            spans.append((o_lo, o_hi))
                    break
        else:
            interior = pruns[1:-1]
            pairs = [(sym, exp) for sym, exp, _ in window]
            anchors = _kmp_find_all(interior, pairs) if interior else range(1, len(window))
            for t in anchors:
                tl_idx = t - 1
                tr_idx = t + rp - 2
                if tl_idx < 0 or tr_idx >= len(window):
                    continue
                psym, pexp, _ = window[tl_idx]
                qsym, qexp, _ = window[tr_idx]
                if psym != first_sym or pexp < first_exp:
                    continue
                if qsym != last_sym or qexp < last_exp:
                    continue
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
        s = self.text
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


def occurrences(text: Slp, pattern: Slp | RleString,
                edges: EdgeRuns | None = None) -> OccRepr:
    """The occurrence set of a pattern inside val(text). The pattern is a
    program or its runs.

    Only the pattern side is computed here: its runs, whose count fixes
    the run cap of the edge windows. Each text variable's crossings are
    left to the queries, which compute them on first use from the edge
    runs in `edges`. Pass one store to every query on the same text to
    compute each variable's edge runs once; without one, the set gets a
    store of its own. An empty run list raises EmptyInputError.
    """
    runs = pattern if isinstance(pattern, RleString) else slp_runs(pattern)
    if not runs.runs:
        raise EmptyInputError("cannot search for the empty pattern")
    return OccRepr(text, list(runs.runs), edges)


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


def first_mismatch(a: Slp, b: Slp) -> int | None:
    """First position where the derived strings differ, or None if equal.

    Walks the two run streams side by side: the first pair of runs that
    differ fixes the position, and no run past it is produced.
    """
    d = _first_difference(_window_runs(a, 1, a.length), _window_runs(b, 1, b.length))
    return None if d is None else d + 1
