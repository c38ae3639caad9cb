"""Shared fixtures for the test suite: small builders and brute oracles."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from crx import RleString, Slp, Term, Text, grammar_to_slp, naive_bisection


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
