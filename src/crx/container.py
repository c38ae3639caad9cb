"""Text container format for compressed strings.

Layout: a header line ``CRX1 <format> <alphabet_size> <N> [selfref]``
followed by one payload line per item. Integers are decimal, fields are
separated by single spaces, lines end with a bare newline.

Payload lines by format:

* ``rle``      -- ``<sym> <exp>``
* ``lz77``     -- ``L <sym>`` or ``R <src> <len>``
* ``lz78``     -- ``<id>``
* ``grammar``  -- ``<var> -> <item>+`` with items ``t<code>`` / ``v<index>``
* ``slp``      -- same as grammar, restricted to ``X -> a`` / ``X -> Y Z``;
  the payload is the program itself, an Slp

Errors come from two places, both as exceptions. `parse` raises
ContainerFormatError on a file it cannot read as this layout, and
InvalidInputError where the rle, lz77 or slp payload breaks its type's
rule (see RleString, Lz77Factorization and `slp_from_grammar_rules`),
with the type's code and location. `validate` raises InvalidInputError
on what needs the header: symbols outside the alphabet and a declared
length the payload does not derive, plus the faults that the LZ78 and
grammar walks and the program's reachable rules show. A grammar with no
rules, which only a library caller can build, raises EmptyInputError in
`make_grammar_container` and `validate`, as an empty Slp does.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContainerFormatError, EmptyInputError, InvalidInputError
from .model import (
    AdmissibleGrammar,
    Literal,
    Lz77Factorization,
    Lz78Factorization,
    Reference,
    RleString,
    Slp,
    Term,
    Var,
    canonical_grammar,
    grammar_lengths,
    lz78_factor_lengths,
    slp_from_grammar_rules,
)
from .slp_ops import reachable_vars

MAGIC = "CRX1"
FORMATS = ("rle", "lz77", "lz78", "grammar", "slp")
_EMPTY_GRAMMAR = "a grammar with no rules derives the empty string"

Payload = RleString | Lz77Factorization | Lz78Factorization | AdmissibleGrammar | Slp


@dataclass(frozen=True)
class CompressedContainer:
    format: str
    alphabet_size: int
    length: int
    payload: Payload

    def payload_size(self) -> int:
        """Item count used as the compressed size: runs, factors, or total
        right-hand-side length for grammars and programs."""
        p = self.payload
        if isinstance(p, RleString):
            return len(p.runs)
        if isinstance(p, Lz77Factorization):
            return len(p.factors)
        if isinstance(p, Lz78Factorization):
            return len(p.factor_ids)
        return p.size


def make_rle_container(r: RleString, alphabet_size: int) -> CompressedContainer:
    return CompressedContainer("rle", alphabet_size, r.length, r)


def make_lz77_container(f: Lz77Factorization, alphabet_size: int) -> CompressedContainer:
    return CompressedContainer("lz77", alphabet_size, f.length, f)


def make_lz78_container(f: Lz78Factorization) -> CompressedContainer:
    n = sum(lz78_factor_lengths(f))
    return CompressedContainer("lz78", f.alphabet_size, n, f)


def make_grammar_container(g: AdmissibleGrammar, alphabet_size: int) -> CompressedContainer:
    if not g.rules:
        raise EmptyInputError(_EMPTY_GRAMMAR)
    if g.start != max(g.rules):
        g = canonical_grammar(g)
    return CompressedContainer("grammar", alphabet_size, grammar_lengths(g)[g.start], g)


def make_slp_container(s: Slp, alphabet_size: int) -> CompressedContainer:
    return CompressedContainer("slp", alphabet_size, s.length, s)


def _item_str(item: Term | Var) -> str:
    return f"t{item.code}" if isinstance(item, Term) else f"v{item.index}"


def serialize(c: CompressedContainer) -> str:
    header = f"{MAGIC} {c.format} {c.alphabet_size} {c.length}"
    if c.format == "lz77" and c.payload.self_referential:
        header += " selfref"
    lines = [header]
    p = c.payload
    if c.format == "rle":
        lines.extend(f"{sym} {exp}" for sym, exp in p.runs)
    elif c.format == "lz77":
        for f in p.factors:
            if isinstance(f, Literal):
                lines.append(f"L {f.symbol}")
            else:
                lines.append(f"R {f.src} {f.length}")
    elif c.format == "lz78":
        lines.extend(str(fid) for fid in p.factor_ids)
    elif c.format == "slp":
        for i, rule in enumerate(p.rules, start=1):
            if isinstance(rule, Term):
                lines.append(f"{i} -> t{rule.code}")
            else:
                lines.append(f"{i} -> v{rule[0]} v{rule[1]}")
    elif c.format == "grammar":
        for var in sorted(p.rules):
            rhs = " ".join(_item_str(it) for it in p.rules[var])
            lines.append(f"{var} -> {rhs}")
    else:
        raise ContainerFormatError(f"unknown format {c.format!r}")
    return "\n".join(lines) + "\n"


def _int(tok: str, where: str) -> int:
    digits = tok[1:] if tok.startswith("-") else tok
    # str.isdigit alone also accepts non-ASCII digits such as "³"
    if not (digits.isascii() and digits.isdigit()):
        raise ContainerFormatError(f"{where}: expected integer, got {tok!r}")
    try:
        return int(tok)
    except ValueError:  # beyond the interpreter's integer string limit
        raise ContainerFormatError(f"{where}: integer has too many digits") from None


def parse(data: str) -> CompressedContainer:
    """Read a container. Raises ContainerFormatError on a malformed file
    and InvalidInputError on an rle, lz77 or slp payload that its type
    rejects; the rest of the checking is left to validate. An slp body
    becomes its program here, through `slp_from_grammar_rules`, so a
    rule of the wrong shape, a missing variable and a forward reference
    raise from parse."""
    lines = data.split("\n")
    del data  # from here on the lines hold the text
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ContainerFormatError("empty container")
    head = lines[0].split(" ")
    if len(head) < 4 or head[0] != MAGIC:
        raise ContainerFormatError(f"bad header {lines[0]!r}")
    fmt = head[1]
    if fmt not in FORMATS:
        raise ContainerFormatError(f"unknown format {fmt!r}")
    alphabet_size = _int(head[2], "header")
    length = _int(head[3], "header")
    self_ref = False
    if len(head) == 5:
        if fmt != "lz77" or head[4] != "selfref":
            raise ContainerFormatError(f"bad header {lines[0]!r}")
        self_ref = True
    elif len(head) != 4:
        raise ContainerFormatError(f"bad header {lines[0]!r}")

    body = lines[1:]
    payload: Payload
    if fmt == "rle":
        runs = []
        for ln, line in enumerate(body, start=2):
            parts = line.split(" ")
            if len(parts) != 2:
                raise ContainerFormatError(f"line {ln}: bad run {line!r}")
            runs.append((_int(parts[0], f"line {ln}"), _int(parts[1], f"line {ln}")))
        payload = RleString(tuple(runs))
    elif fmt == "lz77":
        factors = []
        for ln, line in enumerate(body, start=2):
            parts = line.split(" ")
            if parts[0] == "L" and len(parts) == 2:
                factors.append(Literal(_int(parts[1], f"line {ln}")))
            elif parts[0] == "R" and len(parts) == 3:
                factors.append(Reference(_int(parts[1], f"line {ln}"),
                                         _int(parts[2], f"line {ln}")))
            else:
                raise ContainerFormatError(f"line {ln}: bad factor {line!r}")
        payload = Lz77Factorization(tuple(factors), self_ref)
    elif fmt == "lz78":
        ids = tuple(_int(line, f"line {ln}")
                    for ln, line in enumerate(body, start=2))
        payload = Lz78Factorization(ids, alphabet_size)
    else:
        rules: dict[int, tuple[Term | Var, ...]] = {}
        for ln, line in enumerate(body, start=2):
            parts = line.split(" ")
            if len(parts) < 3 or parts[1] != "->":
                raise ContainerFormatError(f"line {ln}: bad rule {line!r}")
            var = _int(parts[0], f"line {ln}")
            if var in rules:
                raise ContainerFormatError(f"line {ln}: duplicate rule for {var}")
            items: list[Term | Var] = []
            for tok in parts[2:]:
                if tok.startswith("t"):
                    items.append(Term(_int(tok[1:], f"line {ln}")))
                elif tok.startswith("v"):
                    items.append(Var(_int(tok[1:], f"line {ln}")))
                else:
                    raise ContainerFormatError(f"line {ln}: bad item {tok!r}")
            rules[var] = tuple(items)
        if not rules:
            raise ContainerFormatError("grammar container has no rules")
        payload = AdmissibleGrammar(rules, max(rules))
        if fmt == "slp":
            del lines, body  # the text goes before the program is built
            payload = slp_from_grammar_rules(payload)
    return CompressedContainer(fmt, alphabet_size, length, payload)


def validate(c: CompressedContainer) -> int:
    """Check the payload against the header and return the derived length.

    Every symbol must lie inside the alphabet, every rule must be
    reachable from the start and the derived length must equal the
    declared one. LZ78 ids and grammar references are checked on the way
    by the walks that own them; an slp payload is a program whose shape
    parse has checked, so its length and reachable rules are read off it.
    Raises InvalidInputError(code, location) on the first violation
    found; an rle, lz77 or slp payload has checked its own rule when it
    was built. A grammar payload with no rules raises EmptyInputError.
    """
    sigma = c.alphabet_size
    p = c.payload
    if c.format == "rle":
        for i, (sym, _) in enumerate(p.runs, start=1):
            if not 0 <= sym < sigma:
                raise InvalidInputError("symbol-out-of-range", f"run {i}")
        length = p.length
    elif c.format == "lz77":
        for i, f in enumerate(p.factors, start=1):
            if isinstance(f, Literal) and not 0 <= f.symbol < sigma:
                raise InvalidInputError("symbol-out-of-range", f"factor {i}")
        length = p.length
    elif c.format == "lz78":
        length = sum(lz78_factor_lengths(p))
    elif c.format == "slp":
        for i, rule in enumerate(p.rules, start=1):
            if isinstance(rule, Term) and not 0 <= rule.code < sigma:
                raise InvalidInputError("symbol-out-of-range", f"rule {i}")
        if len(reachable_vars(p)) != p.n:
            raise InvalidInputError("unreachable-variable", "rules")
        length = p.length
    else:
        if not p.rules:
            raise EmptyInputError(_EMPTY_GRAMMAR)
        for var in sorted(p.rules):
            rhs = p.rules[var]
            if not rhs:
                raise InvalidInputError("empty-rule", f"rule {var}")
            for it in rhs:
                if isinstance(it, Term):
                    if not 0 <= it.code < sigma:
                        raise InvalidInputError("symbol-out-of-range", f"rule {var}")
                elif it.index not in p.rules:
                    raise InvalidInputError("undefined-variable", f"rule {var}")
        if p.start != max(p.rules):
            raise InvalidInputError("bad-start", "header")
        lengths = grammar_lengths(p)
        if len(lengths) != len(p.rules):
            raise InvalidInputError("unreachable-variable", "rules")
        length = lengths[p.start]
    if length != c.length:
        raise InvalidInputError("length-mismatch", "payload")
    return length
