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

`parse` reads the body in place from the end of the header. An rle
body is read a chunk of lines at a time: one anchored pattern checks a
chunk whole, and str.split reads its integers. The other bodies are read
line by line, with one compiled pattern per format, and each line's
integers go straight into the payload; an slp body goes straight into
the rules of its program. A line a pattern does not accept is described
by the per-field checks, which name its number and its first fault.

Errors come from two places, both as exceptions. `parse` raises
ContainerFormatError on a file it cannot read as this layout, and
InvalidInputError where the rle, lz77 or slp payload breaks its type's
rule (see RleString, Lz77Factorization and Slp), with the type's code
and location; an slp file also needs one rule for each of 1..n
("missing-variable" at "rules"), each of the program's shape
("malformed-slp-rule" at "rule 2"). `validate` raises InvalidInputError
on what needs the header: a negative alphabet size ("bad-alphabet" at
"header", checked first), symbols outside the alphabet and a declared
length the payload does not derive, plus the faults that the LZ78 and
grammar walks and the program's reachable rules show. A grammar with no
rules, which only a library caller can build, raises EmptyInputError in
`make_grammar_container` and `validate`, as an empty Slp does.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterator

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
    lz78_factor_lengths,
)
from .slp_ops import reachable_vars

MAGIC = "CRX1"
FORMATS = ("rle", "lz77", "lz78", "grammar", "slp")
_EMPTY_GRAMMAR = "a grammar with no rules derives the empty string"
_NO_RULES = "grammar container has no rules"

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
        return p.size if self.format in ("grammar", "slp") else len(p)


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
    return CompressedContainer("grammar", alphabet_size, g.lengths[g.start], g)


def make_slp_container(s: Slp, alphabet_size: int) -> CompressedContainer:
    return CompressedContainer("slp", alphabet_size, s.length, s)


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
            rhs = " ".join([f"t{it.code}" if type(it) is Term else f"v{it.index}"
                            for it in p.rules[var]])
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


# One pattern per body format, each a whole line with its newline (the
# last line may lack it) and integers as _int accepts them. Each is
# matched at the start of its line only, so a line that fails costs its
# own length and the body is never searched ahead.
_INT = "(-?[0-9]+)"
_EOL = r"(?:\n|\Z)"
_RUN = re.compile(f"{_INT} {_INT}{_EOL}")
_FACTOR = re.compile(f"(?:L {_INT}|R {_INT} {_INT}){_EOL}")
_ID = re.compile(f"{_INT}{_EOL}")
_RULE = re.compile(f"{_INT} ->((?: [tv]-?[0-9]+)+){_EOL}")
_SLP_RULE = re.compile(f"{_INT} -> (?:t{_INT}|v{_INT} v{_INT}){_EOL}")

_Rule = tuple[int, tuple[Term | Var, ...]]

# An rle body is read a chunk of lines at a time: one anchored match of
# _RUNS, the repeat of _RUN, checks a chunk, and str.split reads its
# integers. The repeat is possessive where the interpreter has it (3.11
# on), so the match keeps no backtracking state; a greedy one holds some
# 400 bytes a line, which the chunk bounds on 3.10. The chunk also
# bounds the token list.
_CHUNK = 1 << 13  # characters, rounded up to the end of a line
_RUNS = re.compile(f"(?:{_RUN.pattern})*{'+' if sys.version_info >= (3, 11) else ''}")


def _body(data: str, pos: int, pattern: re.Pattern, item: Callable[[re.Match], Any],
          read_line: Callable[[str, int], Any], ln: int = 2) -> Iterator[Any]:
    """The item of each body line from pos on, in line order: item(match)
    for a line the pattern accepts. Any other line, and one holding an
    integer past the interpreter's digit limit, goes to read_line(line,
    number), the per-field checks: they raise on the line's first fault,
    or in an slp body give a rule of the wrong shape. ln is the number of
    the line at pos; the body starts on line 2."""
    match = pattern.match
    end = len(data)
    counted = pos
    while pos < end:
        m = match(data, pos)
        if m is not None:
            try:
                yield item(m)
                pos = m.end()
                continue
            except ValueError:  # an integer past the interpreter's digit limit
                pass
        nl = data.find("\n", pos)
        if nl < 0:
            nl = end
        ln += data.count("\n", counted, pos)
        counted = pos
        yield read_line(data[pos:nl], ln)
        pos = nl + 1


def _read_runs(data: str, pos: int) -> tuple[tuple[int, int], ...]:
    """The runs of an rle body from pos on, in line order. From the first
    chunk that _RUNS does not take whole, or that holds an integer past
    the interpreter's digit limit, the body is read line by line by
    _body, so every fault reads as it does there."""
    runs: list[tuple[int, int]] = []
    start, end = pos, len(data)
    while pos < end:
        stop = data.find("\n", pos + _CHUNK) + 1 or end  # or the last line's end
        if _RUNS.match(data, pos, stop).end() == stop:
            kept = len(runs)
            ints = map(int, data[pos:stop].split())
            try:
                runs.extend(zip(ints, ints))
                pos = stop
                continue
            except ValueError:  # an integer past the interpreter's digit limit
                del runs[kept:]
        runs.extend(_body(data, pos, _RUN, _run, _read_run, 2 + data.count("\n", start, pos)))
        break
    return tuple(runs)


def _read_run(line: str, ln: int) -> tuple[int, int]:
    parts = line.split(" ")
    if len(parts) != 2:
        raise ContainerFormatError(f"line {ln}: bad run {line!r}")
    return _int(parts[0], f"line {ln}"), _int(parts[1], f"line {ln}")


def _read_factor(line: str, ln: int) -> Literal | Reference:
    parts = line.split(" ")
    if parts[0] == "L" and len(parts) == 2:
        return Literal(_int(parts[1], f"line {ln}"))
    if parts[0] == "R" and len(parts) == 3:
        return Reference(_int(parts[1], f"line {ln}"), _int(parts[2], f"line {ln}"))
    raise ContainerFormatError(f"line {ln}: bad factor {line!r}")


def _read_id(line: str, ln: int) -> int:
    return _int(line, f"line {ln}")


def _duplicate(var: int, ln: int) -> ContainerFormatError:
    return ContainerFormatError(f"line {ln}: duplicate rule for {var}")


def _read_rule(line: str, ln: int, defined: Callable[[int], bool]) -> _Rule:
    parts = line.split(" ")
    if len(parts) < 3 or parts[1] != "->":
        raise ContainerFormatError(f"line {ln}: bad rule {line!r}")
    var = _int(parts[0], f"line {ln}")
    if defined(var):  # a duplicate is reported before the items
        raise _duplicate(var, ln)
    items: list[Term | Var] = []
    for tok in parts[2:]:
        if tok.startswith("t"):
            items.append(Term(_int(tok[1:], f"line {ln}")))
        elif tok.startswith("v"):
            items.append(Var(_int(tok[1:], f"line {ln}")))
        else:
            raise ContainerFormatError(f"line {ln}: bad item {tok!r}")
    return var, tuple(items)


def _run(m: re.Match) -> tuple[int, int]:
    return int(m[1]), int(m[2])


def _factor(m: re.Match) -> Literal | Reference:
    if m[1] is not None:
        return Literal(int(m[1]))
    return Reference(int(m[2]), int(m[3]))


def _id(m: re.Match) -> int:
    return int(m[1])


def _slp_rule(m: re.Match) -> tuple[int, Term | tuple[int, int]]:
    if m[2] is not None:
        return int(m[1]), Term(int(m[2]))
    return int(m[1]), (int(m[3]), int(m[4]))


def _read_grammar(data: str, pos: int) -> AdmissibleGrammar:
    rules: dict[int, tuple[Term | Var, ...]] = {}
    interned: dict[str, Term | Var] = {}  # one item per token text

    def intern(tok: str) -> Term | Var:
        item = interned[tok] = Term(int(tok[1:])) if tok[0] == "t" else Var(int(tok[1:]))
        return item

    def rule(m: re.Match) -> _Rule:
        return int(m[1]), tuple([interned.get(tok) or intern(tok) for tok in m[2].split()])

    def read_line(line: str, ln: int) -> _Rule:
        return _read_rule(line, ln, rules.__contains__)

    for ln, (var, items) in enumerate(_body(data, pos, _RULE, rule, read_line), start=2):
        if var in rules:
            raise _duplicate(var, ln)
        rules[var] = items
    if not rules:
        raise ContainerFormatError(_NO_RULES)
    return AdmissibleGrammar(rules, max(rules))


def _read_slp(data: str, pos: int) -> Slp:
    # the rules of X_1, X_2, ... while the lines come in that order, then
    # the rest by variable; None marks a rule of the wrong shape
    rules: list[Term | tuple[int, int] | None] = []
    late: dict[int, Term | tuple[int, int] | None] = {}

    def defined(var: int) -> bool:
        return 0 < var <= len(rules) or var in late

    def read_line(line: str, ln: int) -> tuple[int, None]:
        # a line that reads as a rule but not as the pattern's is a rule
        # of the wrong shape, reported once every line is read
        return _read_rule(line, ln, defined)[0], None

    for ln, (var, rule) in enumerate(_body(data, pos, _SLP_RULE, _slp_rule, read_line),
                                     start=2):
        if var == len(rules) + 1 and not late:
            rules.append(rule)
        elif defined(var):
            raise _duplicate(var, ln)
        else:
            late[var] = rule
    if not rules and not late:
        raise ContainerFormatError(_NO_RULES)
    k, n = len(rules), len(rules) + len(late)
    if late and (min(late) <= k or max(late) > n):  # n distinct keys fill k+1..n
        raise InvalidInputError("missing-variable", "rules")
    rules.extend(late[var] for var in range(k + 1, n + 1))
    if None in rules:
        raise InvalidInputError("malformed-slp-rule", f"rule {rules.index(None) + 1}")
    return Slp.build(rules)


def parse(data: str) -> CompressedContainer:
    """Read a container. Raises ContainerFormatError on a malformed file
    and InvalidInputError on an rle, lz77 or slp payload that its type
    rejects; the rest of the checking is left to validate.

    The body is read in place. An rle body is read in chunks of lines,
    each checked whole by one anchored pattern and split into its
    integers; from the first chunk that pattern stops short in, or that
    holds an integer past the interpreter's digit limit, it is read line
    by line. Every other body is read line by line: each line is matched
    by its format's pattern and its integers go straight into the
    payload, an slp body's into the rules of its program, whose lines may
    come in any order. The first line the pattern does not accept is
    described by the per-field checks, by its number and its first
    fault, the same in either reading. Faults
    are reported in this order: the first syntax fault or duplicate rule,
    in line order; a grammar or slp file with no rules; then in an slp
    file "missing-variable", "malformed-slp-rule" in rule order and the
    Slp constructor's checks, and in an rle or lz77 file its type's."""
    if not data:
        raise ContainerFormatError("empty container")
    nl = data.find("\n")
    header, pos = (data, len(data)) if nl < 0 else (data[:nl], nl + 1)
    head = header.split(" ")
    if len(head) < 4 or head[0] != MAGIC:
        raise ContainerFormatError(f"bad header {header!r}")
    fmt = head[1]
    if fmt not in FORMATS:
        raise ContainerFormatError(f"unknown format {fmt!r}")
    alphabet_size = _int(head[2], "header")
    length = _int(head[3], "header")
    self_ref = False
    if len(head) == 5:
        if fmt != "lz77" or head[4] != "selfref":
            raise ContainerFormatError(f"bad header {header!r}")
        self_ref = True
    elif len(head) != 4:
        raise ContainerFormatError(f"bad header {header!r}")

    payload: Payload
    if fmt == "rle":
        payload = RleString(_read_runs(data, pos))
    elif fmt == "lz77":
        factors = tuple(_body(data, pos, _FACTOR, _factor, _read_factor))
        payload = Lz77Factorization(factors, self_ref)
    elif fmt == "lz78":
        payload = Lz78Factorization(tuple(_body(data, pos, _ID, _id, _read_id)),
                                    alphabet_size)
    elif fmt == "grammar":
        payload = _read_grammar(data, pos)
    else:
        payload = _read_slp(data, pos)
    return CompressedContainer(fmt, alphabet_size, length, payload)


def validate(c: CompressedContainer) -> int:
    """Check the payload against the header and return the derived length.

    The alphabet size must not be negative ("bad-alphabet" at
    "header"), every symbol must lie inside the alphabet, every rule
    must be reachable from the start and the derived length must equal
    the declared one. LZ78 ids and grammar references are checked on the way
    by the walks that own them; a grammar's walk is kept on it
    (`AdmissibleGrammar.lengths`), so a conversion that follows reads it
    without walking again. An slp payload is a program whose shape
    parse has checked, so its length and reachable rules are read off it.
    Raises InvalidInputError(code, location) on the first violation
    found; an rle, lz77 or slp payload has checked its own rule when it
    was built. A grammar payload with no rules raises EmptyInputError.
    """
    sigma = c.alphabet_size
    if sigma < 0:
        raise InvalidInputError("bad-alphabet", "header")
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
        lengths = p.lengths
        if len(lengths) != len(p.rules):
            raise InvalidInputError("unreachable-variable", "rules")
        length = lengths[p.start]
    if length != c.length:
        raise InvalidInputError("length-mismatch", "payload")
    return length
