"""Conversions out of run-length encoded strings.

Only the run structure is ever touched. LZ77 runs its own factor loop:
it finds leftmost window starts from each symbol's record runs and from
three indexes of the run boundaries, built once: a staircase that holds
only the boundaries able to give a record, lists of the boundaries by
the run after them, and chains through those lists by the run after
that. It asks the meta text only for the common extensions of
boundaries whose next three runs all match the cursor's; it is the one
conversion here that builds the meta text, which compares an extension
on the run ranks and builds its LCE index only when one runs past
`suffix._SCAN_RUNS` runs, as on repetitive text. Bisection
pairs the runs' blocks level by level, one dict lookup per run of block
ids, and takes the right spine from the last block of each level.
LZ78 walks its dictionary trie along the runs once, front to back; the
program lane runs the same loop on its run stream. Re-Pair keeps them
in a linked list and updates the pair counts around each replacement,
so no round walks the runs.
Outputs match the reference codecs on the decoded string. The run walks
rely on maximal runs, which every RleString has: its construction
rejects a run of exponent 0 and two adjacent runs of one symbol.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from heapq import heappop, heappush

from .errors import EmptyInputError
from .model import (
    AdmissibleGrammar,
    GrammarItem,
    Literal,
    Lz77Factorization,
    Lz78Factorization,
    Reference,
    RleString,
    Slp,
    Term,
    Var,
)
from .suffix import rank_runs


def rle_to_lz77(r: RleString, self_referential: bool = False) -> Lz77Factorization:
    """Greedy leftmost-longest factorization computed on the runs.

    A factor at cursor pos takes src, the leftmost admissible start of
    its prefix, and grows to src's common extension with pos, capped at
    pos - src without self-references; a source of a longer prefix is
    one of the shorter prefix too, so src stays leftmost. The window one
    symbol longer then has an admissible source exactly when its
    leftmost start is one, which becomes src; otherwise the factor ends.

    Let c^head be the rest of the cursor's run u and (nxt, E) the next
    run. A window c^length (length <= head) starts first at the first
    run of c with exponent >= length, one of the runs beating every
    earlier run of c; it reaches min(exponent, head), or one character
    LCE on a tie. A longer window starts head symbols before a run
    boundary j <= u whose run j-1 is c^(>=head) and whose run j has
    symbol nxt. If run j differs from run u+1, it reaches
    head + min(exps[j], E) from there; if it equals run u+1, at least
    head + E. The prefix maxima of the reach, scored at most once per
    cursor, come from three indexes of the boundaries built once:

    - up to the first boundary whose run equals run u+1, a staircase per
      (c, nxt): the boundaries that no earlier boundary of the pair beats
      in both exps[j-1] and exps[j], the only ones that can hold a record
      there;
    - from it on, a list per (c, rank of run j): only a boundary whose
      run equals run u+1 can reach past head + E. While run j+1 differs
      from run u+2, such a boundary reaches exactly head + E, plus
      min(exps[j+1], exps[u+2]) when the symbols of those runs agree,
      with no LCE; the walk stops at the first boundary whose run j+1
      equals run u+2, as that one reaches at least head + E + exps[u+2],
      which no boundary of the first kind passes;
    - from that boundary on, a chain per (c, rank of run j, rank of run
      j+1) through the list: only these boundaries can set a record now.
      Runs j and j+1 match the cursor's by the chain; each compares its
      run j+2 and, when that matches too, takes one meta LCE from j+3.

    When run u+1 ends the text, every such boundary reaches the end.
    Closed by the cursor itself, the maxima answer each length with a
    bisection.
    """
    runs = r.runs
    meta = rank_runs(r)
    pl = meta.prefix_len
    m, n = meta.m, meta.length
    syms, exps, ranks = [sym for sym, _ in runs], [exp for _, exp in runs], meta.ranks
    records: dict[int, list[tuple[int, int]]] = {}  # (exponent, start), after a (0, 0) floor
    for j, (c, e) in enumerate(runs):
        if e > records.setdefault(c, [(0, 0)])[-1][0]:
            records[c].append((e, pl[j] + 1))
    stairs: dict[tuple[int, int], list[int]] = {}  # boundaries j of (c, nxt), in order
    equal: dict[tuple[int, int], list[int]] = {}  # boundaries j of (c, rank of run j)
    # the boundaries of (c, nxt) beaten by none so far, as (exps[j-1], exps[j])
    # points: the first coordinates ascending, the negated second ones too
    fronts: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
    for j in range(1, m):
        pair = syms[j - 1], syms[j]
        equal.setdefault((pair[0], ranks[j]), []).append(j)
        xs, nys = fronts.setdefault(pair, ([], []))
        x, y = exps[j - 1], exps[j]
        k = bisect_left(xs, x)
        if k < len(xs) and -nys[k] >= y:
            continue  # an earlier boundary reaches as far wherever j does
        hi = k + (k < len(xs) and xs[k] == x)
        lo = bisect_left(nys, -y, 0, hi)  # j beats the points lo..hi-1
        xs[lo:hi], nys[lo:hi] = [x], [-y]
        stairs.setdefault(pair, []).append(j)
    del fronts
    # chain[j]: the next boundary of j's equal list whose run j+1 has the
    # same rank as run j+1; m when there is none
    chain = array("q", [m]) * m
    for same in equal.values():
        after: dict[int, int] = {}  # rank of run j+1 -> its nearest later j
        for j in reversed(same):
            if j + 1 < m:
                chain[j] = after.get(ranks[j + 1], m)
                after[ranks[j + 1]] = j

    def score(pos: int, u: int, head: int) -> list[tuple[int, int]]:
        """Prefix maxima (reach, start) of the windows longer than head."""
        c, nxt, big = syms[u], syms[u + 1], exps[u + 1]
        base, rest = pl[u + 1], n - pos + 1
        best = [(0, 0)]  # a floor; the cursor itself closes the list
        walk = iter(equal[c, ranks[u + 1]])
        for first in walk:  # the first equal-run candidate, u + 1 at the latest
            if exps[first - 1] >= head:
                break
        for j in stairs.get((c, nxt), ()):
            if j >= first or best[-1][0] == head + big:
                break
            if exps[j - 1] >= head and head + min(exps[j], big) > best[-1][0]:
                best.append((head + min(exps[j], big), pl[j] + 1 - head))
        if u + 2 == m:  # run u+1 ends the text: every candidate reaches rest
            if first <= u and best[-1][0] < rest:
                best.append((rest, pl[first] + 1 - head))
            best.append((rest, pos))
            return best
        nr, ns, ne = ranks[u + 2], syms[u + 2], exps[u + 2]
        j = first
        while ranks[j + 1] != nr:  # run j+1 differs from run u+2: no LCE needed
            cand = head + big + (min(exps[j + 1], ne) if syms[j + 1] == ns else 0)
            if cand > best[-1][0]:
                best.append((cand, pl[j] + 1 - head))
            for j in walk:  # u + 1, whose run u+2 matches, stops the walk
                if exps[j - 1] >= head:
                    break
        while j <= u and best[-1][0] < rest:  # nothing reaches past the end
            if exps[j - 1] >= head:
                full = 2  # runs j, j+1 match runs u+1, u+2
                if u + 3 < m and ranks[j + 2] == ranks[u + 3]:
                    full = 3 + meta.meta_lce(j + 4, u + 5)
                cand = head + (pl[u + 1 + full] - base)
                a, b = j + full, u + 1 + full
                if b < m and syms[a] == syms[b]:
                    cand += min(exps[a], exps[b])
                if cand > best[-1][0]:
                    best.append((cand, pl[j] + 1 - head))
            j = chain[j]
        best.append((rest, pos))
        return best

    factors: list[Literal | Reference] = []
    pos = 1
    while pos <= n:
        u = bisect_left(pl, pos) - 1  # the cursor's run
        head = pl[u + 1] - pos + 1
        rem = n - pos + 1
        cap = rem if self_referential and pos > 1 else min(rem, pos - 1)  # no source before pos 1
        src = length = 0
        best = None
        while length < cap:
            want = length + 1
            if want <= head:
                rec = records[syms[u]]
                e, start = rec[bisect_left(rec, (want,))]
            else:
                best = best or score(pos, u, head)
                reach, start = best[bisect_left(best, (want,))]
            if start > (pos - 1 if self_referential else pos - want):
                break
            if want <= head:  # one of the two runs of c ends first, or both do
                reach = min(e, head) if e != head else meta.char_lce(start, pos)
            src = start
            length = min(reach, cap if self_referential else min(cap, pos - src))
        if length:
            factors.append(Reference(src, length))
            pos += length
        else:
            factors.append(Literal(syms[u]))
            pos += 1
    return Lz77Factorization(tuple(factors), self_referential)


def rle_to_lz78(r: RleString) -> Lz78Factorization:
    """Dictionary factorization computed on the runs: `_lz78_of_runs`
    walks its trie one run at a time, reading the runs once, front to
    back, so no index of the runs is built."""
    sigma = max((sym + 1 for sym, _ in r.runs), default=0)
    return _lz78_of_runs(r.length, sigma, r.runs)


def rle_to_repair(r: RleString) -> AdmissibleGrammar:
    """Pairwise grammar compression replayed on run-compressed strings.

    Rounds mirror the reference codec exactly: same counts, same smallest
    pair tie-break, same left-greedy replacement, so the grammars come out
    identical. The working string never leaves run form, and no round
    walks it (Larsson & Moffat's scheme on runs):

    - The runs are a doubly linked list. A pair (x, y), x != y, counts its
      run boundaries; (x, x) counts q // 2 per run x^q.
    - Each pair keeps the nodes where it was seen, in run order and
      checked when used, so a round touches only the occurrences of the
      pair it replaces, left to right, and updates the counts around each
      one. (x, e)(y, f) becomes (x, e-1)(z, 1)(y, f-1), x^q becomes
      z^(q//2) x^(q%2); only adjacent runs of z merge, so a new z joins
      at most the z run on its left. A node is reused only where it
      died, which keeps every list in run order.
    - Only pairs holding z gain count in z's round, so one heap entry
      per pair, pushed at the end of its round, bounds its count; a stale
      top is pushed back with its count, which keeps the tie-break exact.

    Tokens, pairs and heap entries are packed ints ordered like
    item_key: terminals by rank of their code, then variables by index.
    """
    if not r.runs:
        raise EmptyInputError("cannot build a grammar for the empty string")
    codes = sorted({sym for sym, _ in r.runs})
    d = len(codes)
    rank = {c: i for i, c in enumerate(codes)}
    K = d + r.length  # above every token: each round shortens the text by >= 2
    KK = K * K
    m = len(r.runs)
    # nodes 0 and 1 are the head and tail sentinels; dead nodes have token -1
    tok = array("q", [-1, -1])
    tok.extend(rank[sym] for sym, _ in r.runs)
    exp = [0, 0] + [e for _, e in r.runs]  # a list: exponents may pass 2^63
    prv = array("q", [-1, m + 1, 0])
    prv.extend(range(2, m + 1))
    nxt = array("q", [2, -1])
    nxt.extend(range(3, m + 2))
    nxt.append(1)
    cnt: dict[int, int] = {}
    occ: dict[int, list[int]] = {}
    fresh: list[int] = []  # pairs first counted since the last heap push

    def add(pk: int, node: int, k: int = 1) -> None:
        c = cnt.get(pk)
        if c is None:
            cnt[pk] = k
            occ[pk] = [node]
            fresh.append(pk)
        else:
            cnt[pk] = c + k
            occ[pk].append(node)

    def drop(pk: int, k: int = 1) -> None:
        c = cnt[pk] - k
        if c:
            cnt[pk] = c
        else:
            del cnt[pk], occ[pk]

    def link(a: int, b: int) -> None:
        nxt[a] = b
        prv[b] = a

    def new_node() -> int:
        tok.append(-1)
        exp.append(0)
        prv.append(-1)
        nxt.append(-1)
        return len(tok) - 1

    def insert_z(z: int, left: int, right: int, node: int) -> None:
        # one z between left and right, in the dead node given or a new
        # one; no z run lies to the right yet
        if tok[left] == z:
            node = left
            exp[node] += 1
            if exp[node] == 2:
                add(z * K + z, node)
            elif exp[node] % 2 == 0:
                cnt[z * K + z] += 1
        else:
            if node < 0:
                node = new_node()
            tok[node] = z
            exp[node] = 1
            if tok[left] >= 0:
                add(tok[left] * K + z, left)
            link(left, node)
        link(node, right)
        if tok[right] >= 0:
            add(z * K + tok[right], node)

    def replace_pair(z: int, a: int, x: int, y: int) -> None:
        # (x, e)(y, f) -> (x, e-1)(z, 1)(y, f-1)
        b = nxt[a]
        e, f = exp[a], exp[b]
        if e % 2 == 0:
            drop(x * K + x)
        if f % 2 == 0:
            drop(y * K + y)
        dead = -1
        if e > 1:
            exp[a] = e - 1
            left = a
        else:
            left = prv[a]
            if tok[left] >= 0:
                drop(tok[left] * K + x)
            tok[a] = -1
            dead = a
        if f > 1:
            exp[b] = f - 1
            right = b
        else:
            right = nxt[b]
            if tok[right] >= 0:
                drop(y * K + tok[right])
            tok[b] = -1
            dead = b
        insert_z(z, left, right, dead)

    def replace_self(z: int, i: int, x: int) -> None:
        # x^q -> z^(q//2) x^(q%2); no run beside it is x or z
        h, odd = divmod(exp[i], 2)
        p = prv[i]
        if odd:
            node = new_node()
            tok[node] = z
            link(p, node)
            link(node, i)
            exp[i] = 1
            add(z * K + x, node)
        else:
            node = i
            tok[i] = z
            n = tok[nxt[i]]
            if n >= 0:
                drop(x * K + n)
                add(z * K + n, i)
        exp[node] = h
        if tok[p] >= 0:
            drop(tok[p] * K + x)
            add(tok[p] * K + z, p)
        if h >= 2:
            add(z * K + z, node, h // 2)

    def item(t: int) -> GrammarItem:
        return Term(codes[t]) if t < d else Var(t - d + 1)

    for i in range(2, m + 2):
        if exp[i] >= 2:
            add(tok[i] * K + tok[i], i, exp[i] // 2)
        if i < m + 1:
            add(tok[i] * K + tok[i + 1], i)
    heap: list[int] = []  # -count * KK + pair: most frequent, then smallest, first
    rules: dict[int, tuple[GrammarItem, ...]] = {}
    z = d
    while True:
        for pk in fresh:
            c = cnt.get(pk, 0)
            if c >= 2:
                heappush(heap, pk - c * KK)
        fresh.clear()
        while heap:
            top = heappop(heap)
            pk = top % KK
            c = cnt.get(pk, 0)
            if c * KK == pk - top:
                break
            if c >= 2:  # stale: its count fell since the push
                heappush(heap, pk - c * KK)
        else:
            break
        x, y = divmod(pk, K)
        rules[z - d + 1] = (item(x), item(y))
        del cnt[pk]
        if x == y:
            for i in occ.pop(pk):
                if tok[i] == x and exp[i] >= 2:
                    replace_self(z, i, x)
        else:
            for a in occ.pop(pk):
                if tok[a] == x and tok[nxt[a]] == y:
                    replace_pair(z, a, x, y)
        z += 1
    rhs: list[GrammarItem] = []
    i = nxt[0]
    while i != 1:
        rhs.extend([item(tok[i])] * exp[i])
        i = nxt[i]
    start = z - d + 1
    rules[start] = tuple(rhs)
    return AdmissibleGrammar(rules, start)


def rle_to_bisection(r: RleString) -> AdmissibleGrammar:
    """Balanced splitting grammar built level by level from the runs:
    O(m log(N/m) + m) dict lookups for m runs of N symbols, plus one
    step per rule. No span is expanded and no index of the runs is
    built, so exponents of any size cost only their levels."""
    return _bisection_of_runs(r.runs)


def _bisection_of_runs(runs: Sequence[tuple[int, int]]) -> AdmissibleGrammar:
    """Balanced splitting grammar of the text the maximal runs (symbol,
    exponent) spell, equal to the reference codec's variable for
    variable.

    Every span of the balanced tree but the right spine is an aligned
    block of 2^l symbols, so the blocks are built one level at a time
    (Kieffer, Yang, Nelson & Cosman's multilevel pattern matching). Level
    0 is the runs; level l+1 pairs level l's run list of block ids left
    to right: a run x^e gives (pending, x) if a block is left over from
    the run before, (x, x) repeated, and a new pending block if one is
    left. A pair gets its id from one dict per level, and equal
    neighbours merge, so every level holds at most about 2m + 1 runs and
    level l covers the first (N >> l) << l symbols. The spine's block for
    a set bit b of N is the last block of level b.

    Rules are numbered as the reference codec's post-order finishes them:
    the blocks under each spine block, high bit first, left first, each
    id taking a variable the first time it finishes; then the spine
    rules, innermost first.
    """
    if not runs:
        raise EmptyInputError("cannot build a grammar for the empty string")
    dense: dict[int, int] = {}  # symbol -> terminal id, in order of appearance
    # the current level's run list: block ids and their counts, Python
    # ints of any size
    ids = [dense.setdefault(sym, len(dense)) for sym, _ in runs]
    cnts = [e for _, e in runs]
    n = sum(cnts)
    left = [-1] * len(dense)  # the halves of each id; terminals have none
    right = left[:]
    spine = [ids[-1]] if n & 1 else []  # the last block of level b for each set bit b
    for level in range(1, n.bit_length()):
        k = len(left)
        pairs: dict[int, int] = {}
        nids: list[int] = []
        ncnts: list[int] = []
        last = pend = -1
        for x, e in zip(ids, cnts):
            if pend >= 0:
                z = pairs.get(key := pend * k + x)
                if z is None:
                    z = pairs[key] = len(left)
                    left.append(pend)
                    right.append(x)
                if z == last:
                    ncnts[-1] += 1
                else:
                    nids.append(z)
                    ncnts.append(1)
                    last = z
                e -= 1
            if e >= 2:
                z = pairs.get(key := x * k + x)
                if z is None:
                    z = pairs[key] = len(left)
                    left.append(x)
                    right.append(x)
                if z == last:
                    ncnts[-1] += e >> 1
                else:
                    nids.append(z)
                    ncnts.append(e >> 1)
                    last = z
            pend = x if e & 1 else -1
        ids, cnts = nids, ncnts
        if n >> level & 1:
            spine.append(ids[-1])
    item: list[GrammarItem | None] = [Term(c) for c in dense]
    item += [None] * (len(left) - len(dense))
    rules: dict[int, tuple[GrammarItem, ...]] = {}
    for root in reversed(spine):
        stack = [root]  # ids to finish; ~z marks z's halves as finished
        while stack:
            z = stack.pop()
            if z < 0:
                z = ~z
                rules[len(rules) + 1] = (item[left[z]], item[right[z]])
                item[z] = Var(len(rules))
            elif item[z] is None:
                stack += (~z, right[z], left[z])
    top = item[spine[0]]
    for z in spine[1:]:
        rules[len(rules) + 1] = (item[z], top)
        top = Var(len(rules))
    if isinstance(top, Term):
        return AdmissibleGrammar({1: (top,)}, 1)
    return AdmissibleGrammar(rules, top.index)


def _lz78_of_runs(n: int, sigma: int, runs: Iterable[tuple[int, int]]) -> Lz78Factorization:
    """LZ78 factorization of a text of length n over symbols 0..sigma-1.

    runs yields the text's maximal runs (symbol, exponent) in order; it is
    read once, front to back, and never past the run that ends the text.
    The dictionary is prefix closed, so the longest entry at the cursor
    ends one walk down its trie. The trie's edges are runs: ext[(b, c)]
    lists the ids of b·c, b·c², ... for an entry b that does not end in c
    (0 is the empty string), so one lookup matches a whole text run
    (c, e) up to the chain's length, and the walk stops at the first run
    it does not match in full. That run's unread symbols are pending: the
    new entry, the factor plus the next symbol, extends the chain where
    the walk stopped, and the next factor starts on the pending run.
    """
    ext: dict[tuple[int, int], list[int]] = {}
    ids: list[int] = []
    runs = iter(runs)
    c = e = 0  # the pending run: e symbols of c not yet read
    left = n
    while left:
        node = flen = 0
        while True:
            if not e:
                c, e = next(runs)
            chain = ext.get((node, c))
            if chain is None:  # each single symbol is an entry from the start
                chain = ext[node, c] = [] if node else [c + 1]
            k = min(e, len(chain))
            if k:
                node = chain[k - 1]
                flen += k
                e -= k
            if e or flen == left:
                break
        ids.append(node)
        left -= flen
        if left:
            chain.append(sigma + len(ids))
    return Lz78Factorization(tuple(ids), sigma)


def rle_as_slp(r: RleString) -> Slp:
    """Straight-line program deriving the decoded string.

    Each run becomes a power chain of doubling variables, runs then fold
    left to right. Size is O(sum of exponent bit lengths).
    """
    if not r.runs:
        raise EmptyInputError("cannot build a program for the empty string")
    rules: list[Term | tuple[int, int]] = []
    term_of: dict[int, int] = {}

    def term(code: int) -> int:
        if code not in term_of:
            rules.append(Term(code))
            term_of[code] = len(rules)
        return term_of[code]

    run_vars: list[int] = []
    for sym, exp in r.runs:
        powers = [term(sym)]
        while (1 << len(powers)) <= exp:
            rules.append((powers[-1], powers[-1]))
            powers.append(len(rules))
        cur = None
        for bit in range(exp.bit_length()):
            if exp >> bit & 1:
                if cur is None:
                    cur = powers[bit]
                else:
                    rules.append((cur, powers[bit]))
                    cur = len(rules)
        run_vars.append(cur)
    cur = run_vars[0]
    for v in run_vars[1:]:
        rules.append((cur, v))
        cur = len(rules)
    if cur != len(rules):
        # single run ending on a reused variable; restate it on top
        rules.append(rules[cur - 1])
    return Slp.build(tuple(rules))
