"""Reference codecs that work on plain text.

These are the simple decompress-and-recompress baselines. The conversion
modules must produce identical output without ever expanding the text, so
everything here favors clarity over speed.
"""

from __future__ import annotations

from .errors import EmptyInputError, InvalidInputError
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
    Text,
    Var,
    item_key,
)


def rle_encode(text: Text) -> RleString:
    runs: list[tuple[int, int]] = []
    for c in text.symbols:
        if runs and runs[-1][0] == c:
            runs[-1] = (c, runs[-1][1] + 1)
        else:
            runs.append((c, 1))
    return RleString(tuple(runs))


def naive_lz77(text: Text, self_referential: bool = False) -> Lz77Factorization:
    """Greedy leftmost-longest factorization.

    A factor starting at position i is the longest prefix of the remainder
    with an earlier occurrence; ties on length pick the leftmost source.
    Without self-references the source occurrence must end before i, with
    them it only has to start before i. A reference is emitted whenever any
    admissible occurrence exists, even of length 1; literals cover only
    first appearances of a symbol.
    """
    syms = text.symbols
    n = len(syms)
    occ: dict[int, list[int]] = {}
    factors: list[Literal | Reference] = []
    i = 0
    while i < n:
        c = syms[i]
        remaining = n - i
        cap_all = remaining if self_referential else min(remaining, i)
        best_len = 0
        best_src = -1
        for j in occ.get(c, ()):
            cap = remaining if self_referential else min(remaining, i - j)
            if cap <= best_len:
                continue
            if best_len and syms[j + best_len] != syms[i + best_len]:
                continue
            ln = 1
            while ln < cap and syms[j + ln] == syms[i + ln]:
                ln += 1
            if ln > best_len:
                best_len, best_src = ln, j
                if best_len >= cap_all:
                    break
        if best_len:
            factors.append(Reference(best_src + 1, best_len))
            step = best_len
        else:
            factors.append(Literal(c))
            step = 1
        for k in range(i, i + step):
            occ.setdefault(syms[k], []).append(k)
        i += step
    return Lz77Factorization(tuple(factors), self_referential)


def naive_lz78(text: Text, alphabet_size: int | None = None) -> Lz78Factorization:
    """Greedy factorization where every factor is a dictionary entry.

    The dictionary starts with all single symbols (ids 1..alphabet_size);
    when no size is given the smallest alphabet covering the text is used.
    After factor k is read, the entry "factor k plus the next input symbol"
    is added with id alphabet_size + k, so entries stay prefix closed and
    can live in a trie.
    """
    syms = text.symbols
    n = len(syms)
    if alphabet_size is None:
        alphabet_size = max(syms) + 1 if n else 0
    children: list[dict[int, int]] = [{}]
    node_id = [0]
    ids: list[int] = []
    entries = 0
    pos = 0
    while pos < n:
        node = 0
        ln = 0
        while pos + ln < n:
            c = syms[pos + ln]
            nxt = children[node].get(c)
            if nxt is None:
                if node:
                    break
                nxt = len(children)
                children.append({})
                node_id.append(c + 1)
                children[0][c] = nxt
            node = nxt
            ln += 1
        ids.append(node_id[node])
        pos += ln
        if pos < n:
            entries += 1
            c = syms[pos]
            # a longer match would exist otherwise, so the slot is free
            assert c not in children[node]
            w = len(children)
            children.append({})
            node_id.append(alphabet_size + entries)
            children[node][c] = w
    return Lz78Factorization(tuple(ids), alphabet_size)


def _count_pairs(seq: list[GrammarItem]) -> dict[tuple[GrammarItem, GrammarItem], int]:
    # left-greedy: a run of q equal items yields q // 2 for the (x, x) pair
    counts: dict[tuple[GrammarItem, GrammarItem], int] = {}
    last: dict[tuple[GrammarItem, GrammarItem], int] = {}
    for i in range(len(seq) - 1):
        pair = (seq[i], seq[i + 1])
        prev = last.get(pair)
        if prev is not None and prev == i - 1:
            continue
        counts[pair] = counts.get(pair, 0) + 1
        last[pair] = i
    return counts


def naive_repair(text: Text) -> AdmissibleGrammar:
    """Pairwise grammar compression.

    Each round replaces the most frequent pair (counted left to right
    without overlaps) with a fresh variable, until no pair occurs twice.
    Ties pick the smallest pair, terminals before variables.
    """
    if len(text) == 0:
        raise EmptyInputError("cannot build a grammar for the empty string")
    seq: list[GrammarItem] = [Term(c) for c in text.symbols]
    rules: dict[int, tuple[GrammarItem, ...]] = {}
    nxt = 1
    while True:
        counts = _count_pairs(seq)
        best_count = 0
        best_pair = None
        for pair, cnt in counts.items():
            if cnt < 2 or cnt < best_count:
                continue
            key = (item_key(pair[0]), item_key(pair[1]))
            if cnt > best_count or key < (item_key(best_pair[0]), item_key(best_pair[1])):
                best_count, best_pair = cnt, pair
        if best_pair is None:
            break
        rules[nxt] = best_pair
        new: list[GrammarItem] = []
        i = 0
        while i < len(seq):
            if i + 1 < len(seq) and (seq[i], seq[i + 1]) == best_pair:
                new.append(Var(nxt))
                i += 2
            else:
                new.append(seq[i])
                i += 1
        seq = new
        nxt += 1
    rules[nxt] = tuple(seq)
    return AdmissibleGrammar(rules, nxt)


def naive_bisection(text: Text) -> AdmissibleGrammar:
    """Balanced grammar built by splitting at the largest power of two.

    Equal substrings map to the same variable, so the rule set stays small
    for repetitive inputs.
    """
    n = len(text)
    if n == 0:
        raise EmptyInputError("cannot build a grammar for the empty string")
    syms = text.symbols
    memo: dict[tuple[int, ...], GrammarItem] = {}
    rules: dict[int, tuple[GrammarItem, ...]] = {}

    def build(lo: int, hi: int) -> GrammarItem:
        # iterative postorder over (lo, hi) spans, 0-based half-open
        out: dict[tuple[int, int], GrammarItem] = {}
        stack: list[tuple[int, int, bool]] = [(lo, hi, False)]
        while stack:
            a, b, ready = stack.pop()
            key = syms[a:b]
            if key in memo:
                out[(a, b)] = memo[key]
                continue
            if b - a == 1:
                item: GrammarItem = Term(syms[a])
                memo[key] = item
                out[(a, b)] = item
                continue
            half = 1
            while half * 2 < b - a:
                half *= 2
            if not ready:
                stack.append((a, b, True))
                stack.append((a + half, b, False))
                stack.append((a, a + half, False))
                continue
            item = Var(len(rules) + 1)
            rules[len(rules) + 1] = (out[(a, a + half)], out[(a + half, b)])
            memo[key] = item
            out[(a, b)] = item
        return out[(lo, hi)]

    top = build(0, n)
    if isinstance(top, Term):
        rules[1] = (top,)
        return AdmissibleGrammar(rules, 1)
    return AdmissibleGrammar(rules, top.index)


def grammar_to_slp(g: AdmissibleGrammar) -> Slp:
    """Binarize a grammar into strict two-symbol rules.

    Terminals get one variable per distinct symbol, longer right-hand
    sides fold left to right, and single-item rules collapse onto their
    target. Variables are numbered so children precede parents: the
    rules are taken in the post-order of `g.lengths`, the grammar's one
    walk, which validating a grammar container has already taken.
    """
    slp_rules: list[Term | tuple[int, int]] = []
    term_var: dict[int, int] = {}
    mapped: dict[int, int] = {}

    def term(code: int) -> int:
        if code not in term_var:
            slp_rules.append(Term(code))
            term_var[code] = len(slp_rules)
        return term_var[code]

    for v in g.lengths:
        ids = [term(it.code) if isinstance(it, Term) else mapped[it.index]
               for it in g.rules[v]]
        cur = ids[0]
        for other in ids[1:]:
            slp_rules.append((cur, other))
            cur = len(slp_rules)
        mapped[v] = cur
    if mapped[g.start] != len(slp_rules):
        # start collapsed onto an earlier variable; restate it on top
        slp_rules.append(slp_rules[mapped[g.start] - 1])
    return Slp.build(tuple(slp_rules))


def compressed_size(text: Text, codec: str, alphabet_size: int) -> int:
    """Item count of the chosen codec on the raw text."""
    if codec == "rle":
        return len(rle_encode(text).runs)
    if codec == "lz77":
        return len(naive_lz77(text).factors)
    if codec == "lz78":
        return len(naive_lz78(text, alphabet_size).factor_ids)
    if codec == "repair":
        return naive_repair(text).size
    if codec == "bisection":
        return naive_bisection(text).size
    raise ValueError(f"unknown codec {codec!r}")


def ncd(c_xy: int, c_x: int, c_y: int) -> float:
    """Normalized compression distance from three compressed sizes.

    The sizes are item counts for the concatenation and the two inputs.
    The result lands in [0, 1] plus codec-dependent slack.
    """
    if c_x <= 0 or c_y <= 0 or c_xy <= 0:
        raise InvalidInputError("zero-size-input",
                                message="NCD needs positive compressed sizes")
    return (c_xy - min(c_x, c_y)) / max(c_x, c_y)


def ncd_bytes(x: bytes, y: bytes, codec: str = "lz78") -> float:
    """Normalized compression distance between two byte strings."""
    cx = compressed_size(Text.from_bytes(x), codec, 256)
    cy = compressed_size(Text.from_bytes(y), codec, 256)
    cxy = compressed_size(Text.from_bytes(x + y), codec, 256)
    return ncd(cxy, cx, cy)
