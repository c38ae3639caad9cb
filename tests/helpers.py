"""Shared fixtures for the test suite: small builders and brute oracles."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from crx import (
    AdmissibleGrammar,
    CompressedContainer,
    ContainerFormatError,
    InvalidInputError,
    Literal,
    Lz77Factorization,
    Lz78Factorization,
    Reference,
    RleString,
    Slp,
    Term,
    Text,
    Var,
    grammar_to_slp,
    naive_bisection,
    rle_as_slp,
)


def T(s: str) -> Text:
    return Text.from_str(s)


def sample_slp() -> Slp:
    """Seven rules deriving aababaababaab."""
    return Slp.build((Term(0), Term(1), (1, 2), (1, 3), (3, 4), (4, 5), (6, 5)))


def power_slp(k: int, code: int = 0) -> Slp:
    """k+1 rules deriving a single symbol repeated 2**k times."""
    return Slp.build(tuple([Term(code)] + [(i, i) for i in range(1, k + 1)]))


def fibonacci_slp(k: int) -> Slp:
    """k rules deriving the k-th Fibonacci word: X_1 = b, X_2 = a and
    X_i = X_{i-1} X_{i-2}, so the run count grows as phi**k in k rules."""
    return Slp.build(tuple([Term(1), Term(0)] + [(i - 1, i - 2) for i in range(3, k + 1)]))


def slp_of(text: Text) -> Slp:
    """Some program deriving the given text."""
    return grammar_to_slp(naive_bisection(text))


# one single-fault container per code that validate finds, or that parse
# finds in an slp body of the wrong shape or a negative symbol, with the
# (code, location) it raises
VALIDATE_FAULTS = [
    ("CRX1 rle 2 3\n5 3\n", "symbol-out-of-range", "run 1"),
    ("CRX1 rle 2 1\n-1 1\n", "symbol-out-of-range", "run 1"),
    ("CRX1 rle 2 9\n0 2\n1 2\n", "length-mismatch", "payload"),
    ("CRX1 lz77 2 1\nL 7\n", "symbol-out-of-range", "factor 1"),
    ("CRX1 lz77 2 1\nL -1\n", "symbol-out-of-range", "factor 1"),
    ("CRX1 lz77 2 9\nL 0\nR 1 1\n", "length-mismatch", "payload"),
    ("CRX1 lz78 2 3\n9\n", "dangling-reference", "factor 1"),
    ("CRX1 lz78 2 9\n1\n2\n", "length-mismatch", "payload"),
    ("CRX1 grammar 2 1\n1 -> t9\n", "symbol-out-of-range", "rule 1"),
    ("CRX1 grammar 2 1\n1 -> v5\n", "undefined-variable", "rule 1"),
    ("CRX1 slp 2 3\n1 -> t0\n2 -> v1 t1\n", "malformed-slp-rule", "rule 2"),
    ("CRX1 slp 2 2\n1 -> t0\n2 -> v2 v1\n", "forward-reference-in-slp", "rule 2"),
    ("CRX1 slp 2 4\n1 -> t0\n3 -> v1 v1\n", "missing-variable", "rules"),
    ("CRX1 slp 2 1\n1 -> t9\n", "symbol-out-of-range", "rule 1"),
    ("CRX1 slp 2 1\n1 -> t-1\n", "symbol-out-of-range", "rule 1"),
    # a variable with no rule is a shape fault in an slp file
    ("CRX1 slp 2 1\n1 -> v5\n", "malformed-slp-rule", "rule 1"),
    ("CRX1 slp 2 2\n1 -> t0\n2 -> v1 v9\n", "forward-reference-in-slp", "rule 2"),
    ("CRX1 grammar 2 2\n1 -> v2\n2 -> v1 t0\n", "cyclic-grammar", "variable 2"),
    ("CRX1 grammar 2 3\n1 -> t0\n2 -> t1\n", "unreachable-variable", "rules"),
    ("CRX1 grammar 2 9\n1 -> t0 t1\n", "length-mismatch", "payload"),
    ("CRX1 slp 2 9\n1 -> t0\n", "length-mismatch", "payload"),
    ("CRX1 slp 2 1\n1 -> t0\n2 -> t1\n", "unreachable-variable", "rules"),
    ("CRX1 rle -1 0\n", "bad-alphabet", "header"),
]


def random_slp(rng: random.Random, max_extra: int = 9, sigma: int = 2,
               max_len: int = 4096) -> Slp:
    """Random program with terminals first, then pair rules biased small."""
    while True:
        terms = rng.randint(1, sigma)
        rules: list[Term | tuple[int, int]] = [Term(c) for c in range(terms)]
        for _ in range(rng.randint(1, max_extra)):
            n = len(rules)
            rules.append((rng.randint(1, n), rng.randint(1, n)))
        s = Slp.build(tuple(rules))
        if s.length <= max_len:
            return s


def random_text(rng: random.Random, max_len: int = 40, sigma: int = 3) -> Text:
    n = rng.randint(1, max_len)
    k = rng.randint(1, sigma)
    return Text(tuple(rng.randrange(k) for _ in range(n)))


def random_runs(rng: random.Random, max_runs: int = 8, sigma: int = 3,
                max_exp: int = 6) -> tuple[tuple[int, int], ...]:
    """Run list with distinct adjacent symbols."""
    runs: list[tuple[int, int]] = []
    prev = -1
    for _ in range(rng.randint(1, max_runs)):
        sym = rng.choice([c for c in range(sigma) if c != prev])
        runs.append((sym, rng.randint(1, max_exp)))
        prev = sym
    return tuple(runs)


def short_runs(seed: int, m: int, max_exp: int) -> RleString:
    """m seeded runs over 4 symbols with exponents 1..max_exp."""
    rng = random.Random(seed)
    runs, prev = [], -1
    for _ in range(m):
        sym = rng.choice([c for c in range(4) if c != prev])
        runs.append((sym, rng.randint(1, max_exp)))
        prev = sym
    return RleString(tuple(runs))


@st.composite
def long_run_lists(draw, sigma: int = 3, max_exp: int = 30, min_runs: int = 1,
                   max_runs: int = 8):
    """Run lists of min_runs to max_runs runs over at most sigma symbols
    with exponents up to max_exp; a single run when sigma is 1."""
    runs = []
    prev = -1
    for _ in range(draw(st.integers(min_runs, max_runs) if sigma > 1 else st.just(1))):
        sym = draw(st.sampled_from([c for c in range(sigma) if c != prev]))
        runs.append((sym, draw(st.integers(1, max_exp))))
        prev = sym
    return RleString(tuple(runs))


@st.composite
def slp_programs(draw):
    """Random, bisection, `rle_as_slp` and Fibonacci programs."""
    kind = draw(st.sampled_from(["random", "bisection", "runs", "fibonacci"]))
    if kind == "random":
        rules: list = [Term(c) for c in range(draw(st.integers(1, 3)))]
        for _ in range(draw(st.integers(1, 10))):
            n = len(rules)  # a left child among the last rules, so lengths grow
            rules.append((draw(st.integers(max(1, n - 4), n)),
                          draw(st.integers(1, n))))
        return Slp(rules)
    if kind == "bisection":
        symbols = draw(st.lists(st.integers(0, 2), min_size=1, max_size=300))
        return grammar_to_slp(naive_bisection(Text(tuple(symbols))))
    if kind == "runs":
        return rle_as_slp(draw(st.one_of(long_run_lists(),
                                         long_run_lists(max_exp=2, min_runs=20, max_runs=50))))
    return fibonacci_slp(draw(st.integers(3, 16)))


def record_calls(monkeypatch, name: str, *modules) -> list:
    """Record every later call of the function name made through any of
    the modules' bindings of it."""
    calls = []
    for mod in modules:
        real = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *args, real=real, **kw:
                            calls.append(args) or real(*args, **kw))
    return calls


def brute_occurrences(text: str, pattern: str) -> list[int]:
    """All 1-based starts, overlapping included."""
    out: list[int] = []
    start = 0
    while True:
        k = text.find(pattern, start)
        if k < 0:
            return out
        out.append(k + 1)
        start = k + 1


def _reference_int(tok: str, where: str) -> int:
    digits = tok[1:] if tok.startswith("-") else tok
    # str.isdigit alone also accepts non-ASCII digits such as "³"
    if not (digits.isascii() and digits.isdigit()):
        raise ContainerFormatError(f"{where}: expected integer, got {tok!r}")
    try:
        return int(tok)
    except ValueError:  # beyond the interpreter's integer string limit
        raise ContainerFormatError(f"{where}: integer has too many digits") from None


def reference_parse(data: str) -> CompressedContainer:
    """A line loop over the container: every line split, every token
    checked, an slp body read as a grammar and then checked for the
    program's shape. crx.container.parse must give the same payload, or
    the same exception with the same message, code and location."""
    lines = data.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ContainerFormatError("empty container")
    head = lines[0].split(" ")
    if len(head) < 4 or head[0] != "CRX1":
        raise ContainerFormatError(f"bad header {lines[0]!r}")
    fmt = head[1]
    if fmt not in ("rle", "lz77", "lz78", "grammar", "slp"):
        raise ContainerFormatError(f"unknown format {fmt!r}")
    alphabet_size = _reference_int(head[2], "header")
    length = _reference_int(head[3], "header")
    self_ref = False
    if len(head) == 5:
        if fmt != "lz77" or head[4] != "selfref":
            raise ContainerFormatError(f"bad header {lines[0]!r}")
        self_ref = True
    elif len(head) != 4:
        raise ContainerFormatError(f"bad header {lines[0]!r}")

    body = lines[1:]
    if fmt == "rle":
        runs = []
        for ln, line in enumerate(body, start=2):
            parts = line.split(" ")
            if len(parts) != 2:
                raise ContainerFormatError(f"line {ln}: bad run {line!r}")
            runs.append((_reference_int(parts[0], f"line {ln}"),
                         _reference_int(parts[1], f"line {ln}")))
        return CompressedContainer(fmt, alphabet_size, length, RleString(tuple(runs)))
    if fmt == "lz77":
        factors = []
        for ln, line in enumerate(body, start=2):
            parts = line.split(" ")
            if parts[0] == "L" and len(parts) == 2:
                factors.append(Literal(_reference_int(parts[1], f"line {ln}")))
            elif parts[0] == "R" and len(parts) == 3:
                factors.append(Reference(_reference_int(parts[1], f"line {ln}"),
                                         _reference_int(parts[2], f"line {ln}")))
            else:
                raise ContainerFormatError(f"line {ln}: bad factor {line!r}")
        return CompressedContainer(fmt, alphabet_size, length,
                                   Lz77Factorization(tuple(factors), self_ref))
    if fmt == "lz78":
        ids = tuple(_reference_int(line, f"line {ln}")
                    for ln, line in enumerate(body, start=2))
        return CompressedContainer(fmt, alphabet_size, length,
                                   Lz78Factorization(ids, alphabet_size))
    rules: dict[int, tuple[Term | Var, ...]] = {}
    for ln, line in enumerate(body, start=2):
        parts = line.split(" ")
        if len(parts) < 3 or parts[1] != "->":
            raise ContainerFormatError(f"line {ln}: bad rule {line!r}")
        var = _reference_int(parts[0], f"line {ln}")
        if var in rules:
            raise ContainerFormatError(f"line {ln}: duplicate rule for {var}")
        items: list[Term | Var] = []
        for tok in parts[2:]:
            if tok.startswith("t"):
                items.append(Term(_reference_int(tok[1:], f"line {ln}")))
            elif tok.startswith("v"):
                items.append(Var(_reference_int(tok[1:], f"line {ln}")))
            else:
                raise ContainerFormatError(f"line {ln}: bad item {tok!r}")
        rules[var] = tuple(items)
    if not rules:
        raise ContainerFormatError("grammar container has no rules")
    if fmt == "grammar":
        return CompressedContainer(fmt, alphabet_size, length,
                                   AdmissibleGrammar(rules, max(rules)))
    n = len(rules)
    if set(rules) != set(range(1, n + 1)):
        raise InvalidInputError("missing-variable", "rules")
    program: list[Term | tuple[int, int]] = []
    for i in range(1, n + 1):
        rhs = rules[i]
        if len(rhs) == 1 and isinstance(rhs[0], Term):
            program.append(rhs[0])
        elif len(rhs) == 2 and isinstance(rhs[0], Var) and isinstance(rhs[1], Var):
            program.append((rhs[0].index, rhs[1].index))
        else:
            raise InvalidInputError("malformed-slp-rule", f"rule {i}")
    return CompressedContainer(fmt, alphabet_size, length, Slp.build(program))
