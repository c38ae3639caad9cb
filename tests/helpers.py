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


def slp_of(text: Text) -> Slp:
    """Some program deriving the given text."""
    return grammar_to_slp(naive_bisection(text))


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
def long_run_lists(draw, sigma: int = 3, max_exp: int = 30):
    """Run lists over at most sigma symbols with exponents up to max_exp;
    a single run when sigma is 1."""
    runs = []
    prev = -1
    for _ in range(draw(st.integers(1, 8 if sigma > 1 else 1))):
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
