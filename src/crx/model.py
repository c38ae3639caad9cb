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

    Exponents must be at least 1 and adjacent runs must have distinct
    symbols: the rle_to_* conversions raise InvalidInputError
    ("zero-exponent", "adjacent-equal-runs") otherwise.
    """

    runs: tuple[tuple[int, int], ...]

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
    """LZ77 factor sequence; self_referential factors may overlap themselves."""

    factors: tuple[Lz77Factor, ...]
    self_referential: bool

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AdmissibleGrammar):
            return NotImplemented
        return self.start == other.start and self.rules == other.rules


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

    lengths[i-1] is |val(X_i)|; annotations holds the run annotations once
    crx.slp_ops.annotate_runs has computed them. Neither takes part in
    equality or hashing. build checks the rules and derives the lengths,
    skipping a prefix whose lengths are given as known_lengths: a substring
    program (crx.slp_ops.substring_slp) inherits both for the rules it
    shares with its source, so only its O(height) stitched rules are new.
    """

    rules: tuple[Term | tuple[int, int], ...]
    lengths: tuple[int, ...] = field(compare=False)
    annotations: RunLinkAnnotations | None = field(default=None, compare=False, repr=False)

    @classmethod
    def build(cls, rules: list[Term | tuple[int, int]] | tuple, known_lengths=()) -> "Slp":
        rules = tuple(rules)
        lengths = list(known_lengths)
        for i, rule in enumerate(rules[len(lengths):], start=len(lengths) + 1):
            if isinstance(rule, Term):
                lengths.append(1)
            else:
                l, r = rule
                if not (1 <= l < i and 1 <= r < i):
                    raise InvalidInputError(
                        "forward-reference-in-slp", f"rule {i}",
                        f"rule {i} refers to {l},{r}",
                    )
                lengths.append(lengths[l - 1] + lengths[r - 1])
        return cls(rules, tuple(lengths))

    @property
    def n(self) -> int:
        return len(self.rules)

    @property
    def length(self) -> int:
        return self.lengths[-1] if self.rules else 0

    def to_grammar(self) -> AdmissibleGrammar:
        rules: dict[int, tuple[GrammarItem, ...]] = {}
        for i, rule in enumerate(self.rules, start=1):
            if isinstance(rule, Term):
                rules[i] = (rule,)
            else:
                rules[i] = (Var(rule[0]), Var(rule[1]))
        return AdmissibleGrammar(rules, self.n)


def slp_from_grammar_rules(g: AdmissibleGrammar) -> Slp:
    """Reinterpret a grammar already in SLP shape (X->a or X->YZ, refs
    strictly decreasing, variables 1..n) as an Slp."""
    n = len(g.rules)
    if set(g.rules) != set(range(1, n + 1)):
        raise InvalidInputError("missing-variable", "rules",
                                "variables must be exactly 1..n")
    if g.start != n:
        raise InvalidInputError("bad-start", "header",
                                "SLP start must be the highest variable")
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


def grammar_derived_length(g: AdmissibleGrammar) -> int:
    """Length of the derived string, computed without expansion.

    Raises on cycles or undefined variables.
    """
    return grammar_lengths(g)[g.start]


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
        if exp < 1:
            raise InvalidInputError("zero-exponent", f"run {(sym, exp)}")
        out.extend([sym] * exp)
    return Text(tuple(out))


def expand_lz77(f: Lz77Factorization, limit: int = DEFAULT_LIMIT) -> Text:
    n = f.length
    if n > limit:
        raise BudgetExceededError(n, limit)
    out: list[int] = []
    for idx, factor in enumerate(f.factors, start=1):
        if isinstance(factor, Literal):
            out.append(factor.symbol)
            continue
        src, ln = factor.src, factor.length
        if ln < 1 or src < 1:
            raise InvalidInputError("bad-reference", f"factor {idx}")
        end = src + ln - 1
        if f.self_referential:
            if src > len(out):
                raise InvalidInputError("dangling-reference", f"factor {idx}")
        elif end > len(out):
            raise InvalidInputError("dangling-reference", f"factor {idx}")
        for t in range(ln):
            out.append(out[src - 1 + t])
    return Text(tuple(out))


def lz78_factor_lengths(f: Lz78Factorization) -> list[int]:
    """Length of each factor, by replaying dictionary growth."""
    sigma = f.alphabet_size
    lens: list[int] = []
    for i, fid in enumerate(f.factor_ids, start=1):
        if fid < 1 or fid > sigma + i - 1:
            raise InvalidInputError("dangling-reference", f"factor {i}",
                                    f"id {fid} not yet defined")
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
    n = grammar_derived_length(g)
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
    if not s.rules:
        raise EmptyInputError("SLP has no rules")
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
