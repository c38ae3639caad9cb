"""Core text and compressed-representation types.

Positions are 1-based in every public API. Symbols are plain ints
(codes); helper constructors map lowercase letters a..z to codes 0..25
so tests and examples stay readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    BudgetExceededError,
    EmptyInputError,
    InternalError,
    InvalidInputError,
)

DEFAULT_LIMIT = 64 * 1024 * 1024


def _letter(code: int) -> str:
    return chr(ord("a") + code) if 0 <= code < 26 else f"<{code}>"


@dataclass(frozen=True)
class Text:
    """An uncompressed string over an integer alphabet."""

    symbols: tuple[int, ...]

    @classmethod
    def from_str(cls, s: str) -> "Text":
        codes = []
        for ch in s:
            if not "a" <= ch <= "z":
                raise ValueError(f"only lowercase letters map to codes, got {ch!r}")
            codes.append(ord(ch) - ord("a"))
        return cls(tuple(codes))

    @classmethod
    def from_bytes(cls, data: bytes) -> "Text":
        return cls(tuple(data))

    def to_str(self) -> str:
        return "".join(_letter(c) for c in self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def char(self, i: int) -> int:
        if not 1 <= i <= len(self.symbols):
            raise IndexError(f"position {i} out of range 1..{len(self.symbols)}")
        return self.symbols[i - 1]

    def sub(self, i: int, j: int) -> "Text":
        """Substring from position i to j inclusive; empty when j < i."""
        if j < i:
            return Text(())
        return Text(self.symbols[i - 1 : j])


@dataclass(frozen=True)
class Term:
    """A terminal symbol on a grammar right-hand side."""

    code: int


@dataclass(frozen=True)
class Var:
    """A variable reference on a grammar right-hand side."""

    index: int


GrammarItem = Term | Var


def item_key(item: GrammarItem) -> tuple[int, int]:
    """Total order used by Re-Pair tie-breaks: terminals first, then variables."""
    if isinstance(item, Term):
        return (0, item.code)
    return (1, item.index)


@dataclass(frozen=True)
class RleString:
    """Run-length factorization: maximal runs (symbol, exponent).

    Construction raises InvalidInputError on a run of exponent below 1
    ("zero-exponent") and on a run with the symbol of the run before it
    ("adjacent-equal-runs"), naming the first such run by its 1-based
    index ("run 2"). Every RleString therefore has maximal runs.
    """

    runs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prev = None
        for i, (sym, exp) in enumerate(self.runs, start=1):
            if exp < 1:
                raise InvalidInputError("zero-exponent", f"run {i}")
            if sym == prev:
                raise InvalidInputError("adjacent-equal-runs", f"run {i}")
            prev = sym

    @property
    def length(self) -> int:
        return sum(e for _, e in self.runs)

    def __len__(self) -> int:
        return len(self.runs)


@dataclass(frozen=True)
class Literal:
    symbol: int


@dataclass(frozen=True)
class Reference:
    src: int
    length: int


Lz77Factor = Literal | Reference


def factor_length(f: Lz77Factor) -> int:
    return 1 if isinstance(f, Literal) else f.length


@dataclass(frozen=True)
class Lz77Factorization:
    """LZ77 factor sequence; self_referential factors may overlap themselves.

    Construction raises InvalidInputError on a reference of length or
    source below 1 ("bad-reference") and on a source that does not point
    back into the text decoded so far ("dangling-reference"): it must
    start before the factor, and without self-reference also end before
    it. The error names the first such factor by its 1-based index
    ("factor 2").
    """

    factors: tuple[Lz77Factor, ...]
    self_referential: bool

    def __post_init__(self) -> None:
        pos = 1  # where the next factor starts
        for i, f in enumerate(self.factors, start=1):
            if isinstance(f, Literal):
                pos += 1
                continue
            if f.length < 1 or f.src < 1:
                raise InvalidInputError("bad-reference", f"factor {i}")
            if (f.src if self.self_referential else f.src + f.length - 1) >= pos:
                raise InvalidInputError("dangling-reference", f"factor {i}")
            pos += f.length

    @property
    def length(self) -> int:
        return sum(factor_length(f) for f in self.factors)

    def __len__(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class Lz78Factorization:
    """LZ78 factor IDs. IDs 1..alphabet_size are the single symbols; the
    entry created after factor i (factor i extended by the first symbol of
    factor i+1) gets ID alphabet_size + i."""

    factor_ids: tuple[int, ...]
    alphabet_size: int

    def __len__(self) -> int:
        return len(self.factor_ids)


@dataclass(frozen=True)
class AdmissibleGrammar:
    """A context-free grammar with one rule per variable deriving one string."""

    rules: dict[int, tuple[GrammarItem, ...]]
    start: int

    @property
    def size(self) -> int:
        return sum(len(rhs) for rhs in self.rules.values())


@dataclass(frozen=True)
class RunLinkAnnotations:
    """Per-variable run geometry, indexed by variable - 1.

    plen/slen are the maximal equal-symbol run lengths at the prefix and
    suffix of each variable's expansion; first/last are the edge symbols.
    llink is the shallowest descendant on the leftmost path whose suffix
    run does not swallow its whole right child (slen <= |right|); rlink
    is the mirror image on the rightmost path (plen <= |left|). Both are
    the variable itself for terminal rules.
    """
    plen: tuple[int, ...]
    slen: tuple[int, ...]
    first: tuple[int, ...]
    last: tuple[int, ...]
    llink: tuple[int, ...]
    rlink: tuple[int, ...]


@dataclass(frozen=True)
class Slp:
    """Straight-line program: rules[i-1] defines X_i as either a terminal
    (Term) or a pair (l, r) of smaller variable indices. Start is X_n.
    Construction refuses an empty rule list with EmptyInputError and a
    pair rule that refers to no earlier rule with InvalidInputError
    ("forward-reference-in-slp"), and derives lengths in the same pass,
    so every program derives a nonempty string and knows its lengths.

    lengths[i-1] is |val(X_i)|; annotations holds the run annotations once
    crx.slp_ops.annotate_runs has computed them. Neither takes part in
    equality or hashing.
    """

    rules: tuple[Term | tuple[int, int], ...]
    lengths: tuple[int, ...] = field(init=False, compare=False)
    annotations: RunLinkAnnotations | None = field(default=None, init=False, compare=False,
                                                   repr=False)

    def __post_init__(self) -> None:
        if not self.rules:
            raise EmptyInputError("cannot build a program for the empty string")
        lengths: list[int] = []
        for i, rule in enumerate(self.rules, start=1):
            if isinstance(rule, Term):
                lengths.append(1)
            else:
                l, r = rule
                if not (1 <= l < i and 1 <= r < i):
                    raise InvalidInputError("forward-reference-in-slp", f"rule {i}")
                lengths.append(lengths[l - 1] + lengths[r - 1])
        object.__setattr__(self, "lengths", tuple(lengths))

    @classmethod
    def build(cls, rules: list[Term | tuple[int, int]] | tuple) -> "Slp":
        """The program of the rules, given as any sequence; the
        constructor checks them and derives the lengths."""
        return cls(tuple(rules))

    @property
    def n(self) -> int:
        return len(self.rules)

    @property
    def length(self) -> int:
        return self.lengths[-1]

    @property
    def size(self) -> int:
        """Right-hand-side total: 1 per terminal rule, 2 per pair rule."""
        return 2 * len(self.rules) - sum(isinstance(r, Term) for r in self.rules)


def slp_from_grammar_rules(g: AdmissibleGrammar) -> Slp:
    """Reinterpret a grammar already in SLP shape (X->a or X->YZ, refs
    strictly decreasing, variables 1..n) as an Slp. Raises with a code and
    a location only: "missing-variable", "bad-start", "malformed-slp-rule"
    ("rule 2") and the Slp constructor's "forward-reference-in-slp"."""
    n = len(g.rules)
    if set(g.rules) != set(range(1, n + 1)):
        raise InvalidInputError("missing-variable", "rules")
    if g.start != n:
        raise InvalidInputError("bad-start", "header")
    out: list[Term | tuple[int, int]] = []
    for i in range(1, n + 1):
        rhs = g.rules[i]
        if len(rhs) == 1 and isinstance(rhs[0], Term):
            out.append(rhs[0])
        elif len(rhs) == 2 and isinstance(rhs[0], Var) and isinstance(rhs[1], Var):
            out.append((rhs[0].index, rhs[1].index))
        else:
            raise InvalidInputError("malformed-slp-rule", f"rule {i}")
    return Slp.build(out)


def grammar_lengths(g: AdmissibleGrammar) -> dict[int, int]:
    """Derived length of every variable reachable from the start, computed
    without expansion. Each variable enters the dict after the variables on
    its right-hand side.

    Raises on cycles or undefined variables.
    """
    VISITING, DONE = 1, 2
    lengths: dict[int, int] = {}
    state: dict[int, int] = {}
    stack = [g.start]
    while stack:
        v = stack[-1]
        if v not in g.rules:
            raise InvalidInputError("undefined-variable", f"variable {v}")
        if state.get(v) == DONE:
            stack.pop()
            continue
        if state.get(v) != VISITING:
            state[v] = VISITING
            pushed = False
            for item in g.rules[v]:
                if isinstance(item, Var) and state.get(item.index) != DONE:
                    if state.get(item.index) == VISITING:
                        raise InvalidInputError("cyclic-grammar",
                                                f"variable {item.index}")
                    stack.append(item.index)
                    pushed = True
            if pushed:
                continue
        total = 0
        for item in g.rules[v]:
            total += 1 if isinstance(item, Term) else lengths[item.index]
        lengths[v] = total
        state[v] = DONE
        stack.pop()
    return lengths


def canonical_grammar(g: AdmissibleGrammar) -> AdmissibleGrammar:
    """Renumber variables deterministically: first-use order in a leftmost
    derivation, flipped so the start variable gets the highest index."""
    order: list[int] = [g.start]
    seen = {g.start}
    # iterative preorder over rule bodies, left to right
    work = [iter(g.rules[g.start])]
    while work:
        try:
            item = next(work[-1])
        except StopIteration:
            work.pop()
            continue
        if isinstance(item, Var) and item.index not in seen:
            seen.add(item.index)
            order.append(item.index)
            work.append(iter(g.rules[item.index]))
    if len(order) != len(g.rules):
        raise InvalidInputError("unreachable-variable", "rules",
                                "grammar has variables unreachable from start")
    m = len(order)
    remap = {old: m - pos for pos, old in enumerate(order)}
    rules: dict[int, tuple[GrammarItem, ...]] = {}
    for old, rhs in g.rules.items():
        rules[remap[old]] = tuple(
            Var(remap[it.index]) if isinstance(it, Var) else it for it in rhs
        )
    return AdmissibleGrammar(rules, m)


def expand_rle(r: RleString, limit: int = DEFAULT_LIMIT) -> Text:
    n = r.length
    if n > limit:
        raise BudgetExceededError(n, limit)
    out: list[int] = []
    for sym, exp in r.runs:
        out.extend([sym] * exp)
    return Text(tuple(out))


def expand_lz77(f: Lz77Factorization, limit: int = DEFAULT_LIMIT) -> Text:
    n = f.length
    if n > limit:
        raise BudgetExceededError(n, limit)
    out: list[int] = []
    for factor in f.factors:
        if isinstance(factor, Literal):
            out.append(factor.symbol)
            continue
        for t in range(factor.src - 1, factor.src - 1 + factor.length):
            out.append(out[t])
    return Text(tuple(out))


def lz78_factor_lengths(f: Lz78Factorization) -> list[int]:
    """Length of each factor, by replaying dictionary growth."""
    sigma = f.alphabet_size
    lens: list[int] = []
    for i, fid in enumerate(f.factor_ids, start=1):
        if fid < 1 or fid > sigma + i - 1:
            raise InvalidInputError("dangling-reference", f"factor {i}")
        if fid <= sigma:
            lens.append(1)
        else:
            lens.append(lens[fid - sigma - 1] + 1)
    return lens


def expand_lz78(f: Lz78Factorization, limit: int = DEFAULT_LIMIT) -> Text:
    lens = lz78_factor_lengths(f)
    n = sum(lens)
    if n > limit:
        raise BudgetExceededError(n, limit)
    sigma = f.alphabet_size
    out: list[int] = []
    starts: list[int] = []
    for i, fid in enumerate(f.factor_ids, start=1):
        starts.append(len(out))
        if fid <= sigma:
            out.append(fid - 1)
        else:
            k = fid - sigma
            src = starts[k - 1]
            ln = lens[k - 1] + 1
            # entry k ends with the first symbol of factor k+1; when that
            # factor is the one being decoded, the entry closes over itself
            for t in range(ln):
                out.append(out[src + t])
    return Text(tuple(out))


def expand_grammar(g: AdmissibleGrammar, limit: int = DEFAULT_LIMIT) -> Text:
    n = grammar_lengths(g)[g.start]
    if n > limit:
        raise BudgetExceededError(n, limit)
    out: list[int] = []
    stack: list[GrammarItem] = [Var(g.start)]
    while stack:
        item = stack.pop()
        if isinstance(item, Term):
            out.append(item.code)
        else:
            rhs = g.rules[item.index]
            if not rhs:
                raise InvalidInputError("empty-rule", f"variable {item.index}")
            stack.extend(reversed(rhs))
    if len(out) != n:
        raise InternalError(f"expanded {len(out)} symbols, expected {n}")
    return Text(tuple(out))


def expand_slp(s: Slp, limit: int = DEFAULT_LIMIT) -> Text:
    n = s.length
    if n > limit:
        raise BudgetExceededError(n, limit)
    out: list[int] = []
    stack: list[int] = [s.n]
    while stack:
        v = stack.pop()
        rule = s.rules[v - 1]
        if isinstance(rule, Term):
            out.append(rule.code)
        else:
            stack.append(rule[1])
            stack.append(rule[0])
    return Text(tuple(out))
