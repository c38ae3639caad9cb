"""Conversions out of run-length encoded strings.

Only the run structure is ever touched. LZ77's driver and bisection's
run on the meta text's symbol lookup and character-level LCE queries,
LZ77's also on leftmost window starts found from two indexes of the
run boundaries, built once, that hold only the boundaries able to give
a record; LZ78's driver reads the runs from the cursor on. Re-Pair
keeps them in a linked list and updates the pair counts around each
replacement, so no round walks the runs. Outputs match the reference codecs on the decoded
string. The run walks rely on maximal runs, which every RleString has:
its construction rejects a run of exponent 0 and two adjacent runs of
one symbol.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterator
from heapq import heappop, heappush
from itertools import accumulate

from .drivers import bisection_driver, lz77_driver, lz78_driver
from .errors import EmptyInputError
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
from .suffix import rank_runs


def rle_to_lz77(r: RleString, self_referential: bool = False) -> Lz77Factorization:
    """Greedy leftmost-longest factorization computed on the runs.

    The shared driver reads symbols off the meta text and asks this lane
    for LCEs and leftmost window starts. Let c^head be the rest of the
    cursor's run u and (nxt, E) the next run. A window c^length (length
    <= head) starts first at the first run of c with exponent >= length,
    one of the runs beating every earlier run of c. A longer window
    starts head symbols before a run boundary j <= u whose run j-1 is
    c^(>=head) and whose run j has symbol nxt. If run j differs from run
    u+1, it reaches head + min(exps[j], E) from there; if it equals run
    u+1, at least head + E, by one meta LCE. The prefix maxima of the
    reach, scored once per cursor position, come from two indexes of the
    boundaries built once:

    - up to the first boundary whose run equals run u+1, a staircase per
      (c, nxt): the boundaries that no earlier boundary of the pair beats
      in both exps[j-1] and exps[j], the only ones that can hold a record
      there;
    - from it on, a list per (c, rank of run j): only a boundary whose
      run equals run u+1 can reach past head + E.

    Closed by the cursor itself, the maxima answer each length with a
    bisection. An answer's reach is known, so the LCE the driver asks
    next along it costs no query; other LCEs go to the meta text.
    """
    runs = r.runs
    meta = rank_runs(r)
    pl = meta.prefix_len
    m = meta.m
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
    scored: list = [0, []]  # cursor, prefix maxima (reach, start) of its boundaries
    known: list = [0, 0, 0]  # the last answer: cursor, start, their common extension

    def lce(i: int, j: int, limit: int) -> int:
        pos, start, reach = known
        t = j - pos  # i and j lie t symbols after start and pos: reach - t more agree
        return min(limit, reach - t if i - start == t and 0 <= t <= reach else meta.char_lce(i, j))

    def leftmost(pos: int, length: int) -> int:
        u = bisect_left(pl, pos) - 1
        head = pl[u + 1] - pos + 1
        if length <= head:
            rec = records[syms[u]]
            e, start = rec[bisect_left(rec, (length,))]
            if e != head:  # one of the two runs of c ends first
                known[:] = pos, start, min(e, head)
            return start
        if scored[0] != pos:
            c, nxt, big = syms[u], syms[u + 1], exps[u + 1]
            base, rest = pl[u + 1], meta.length - pos + 1
            best = [(0, 0)]  # a floor; the cursor itself closes the list
            same = equal.get((c, ranks[u + 1]), [])
            same = [j for j in same[:bisect_left(same, u + 1)] if exps[j - 1] >= head]
            first = same[0] if same else u + 1
            for j in stairs.get((c, nxt), ()):
                if j >= first or best[-1][0] == head + big:
                    break
                if exps[j - 1] >= head and head + min(exps[j], big) > best[-1][0]:
                    best.append((head + min(exps[j], big), pl[j] + 1 - head))
            for j in same:
                if best[-1][0] == rest:  # nothing reaches past the end
                    break
                full = meta.meta_lce(j + 1, u + 2)
                cand = head + (pl[u + 1 + full] - base)
                a, b = j + full, u + 1 + full
                if b < m and syms[a] == syms[b]:
                    cand += min(exps[a], exps[b])
                if cand > best[-1][0]:
                    best.append((cand, pl[j] + 1 - head))
            best.append((rest, pos))
            scored[:] = pos, best
        best = scored[1]
        reach, start = best[bisect_left(best, (length,))]
        known[:] = pos, start, reach
        return start

    return lz77_driver(meta.length, self_referential, meta.symbol, lce, leftmost)


def rle_to_lz78(r: RleString) -> Lz78Factorization:
    """Dictionary factorization computed on the runs: the shared driver
    walks its trie one run at a time, reading the runs from the cursor's
    run on, so no index of the runs is built."""
    runs = r.runs
    pl = list(accumulate((exp for _, exp in runs), initial=0))

    def runs_from(pos: int) -> Iterator[tuple[int, int]]:
        u = bisect_left(pl, pos) - 1
        yield runs[u][0], pl[u + 1] - pos + 1
        yield from map(runs.__getitem__, range(u + 1, len(runs)))

    sigma = max((sym + 1 for sym, _ in runs), default=0)
    return lz78_driver(pl[-1], sigma, runs_from)


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
    """Balanced splitting grammar rebuilt from the runs by the shared
    driver: spans are bucketed by MetaText.span_key and compared with at
    most one character-level LCE query, so no span is ever expanded."""
    if not r.runs:
        raise EmptyInputError("cannot build a grammar for the empty string")
    meta = rank_runs(r)
    return bisection_driver(meta.length, meta.symbol, meta.span_key,
                            meta.span_equals)


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
