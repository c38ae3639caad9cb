"""Seeded input generators.

Everything here is plain Python data built from a ``random.Random``: run
sequences as tuples of ``(symbol, exponent)`` and texts as tuples of
symbol codes. The same seed gives the same data, so the same inputs,
programs and container files.
"""

from __future__ import annotations

import random

SIGMA = 4


def run_sequence(rng: random.Random, m: int, emin: int, emax: int,
                 sigma: int = SIGMA) -> tuple[tuple[int, int], ...]:
    """m maximal runs: neighbouring symbols differ, exponents uniform in
    [emin, emax]."""
    runs: list[tuple[int, int]] = []
    prev = -1
    for _ in range(m):
        if prev < 0:
            sym = rng.randrange(sigma)
        else:
            sym = rng.randrange(sigma - 1)
            if sym >= prev:
                sym += 1
        runs.append((sym, rng.randint(emin, emax)))
        prev = sym
    return tuple(runs)


def random_text(rng: random.Random, length: int,
                sigma: int = SIGMA) -> tuple[int, ...]:
    return tuple(rng.randrange(sigma) for _ in range(length))


def block_text(rng: random.Random, length: int, sigma: int = SIGMA,
               pool: int = 4, block: int = 16,
               mutate: float = 0.3) -> tuple[int, ...]:
    """Concatenated copies of a few random blocks; a copy has one symbol
    changed with probability ``mutate``. The block length is a power of
    two, so bisection spans line up with copies and the ratio of its
    grammar stays steady from seed to seed (about 9 at 256 rules)."""
    blocks = [random_text(rng, block, sigma) for _ in range(pool)]
    out: list[int] = []
    while len(out) < length:
        b = list(rng.choice(blocks))
        if rng.random() < mutate:
            b[rng.randrange(len(b))] = rng.randrange(sigma)
        out.extend(b)
    return tuple(out[:length])


def expand_runs(runs: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    out: list[int] = []
    for sym, exp in runs:
        out.extend([sym] * exp)
    return tuple(out)


def mutate_text(text: tuple[int, ...], pos: int,
                sigma: int = SIGMA) -> tuple[int, ...]:
    """text with the symbol at 1-based position pos replaced."""
    old = text[pos - 1]
    return text[:pos - 1] + ((old + 1) % sigma,) + text[pos:]


def mutate_runs(runs: tuple[tuple[int, int], ...], pos: int,
                sigma: int = SIGMA) -> tuple[tuple[int, int], ...]:
    """Maximal runs of the text with the symbol at 1-based position pos
    replaced by one that differs from it and from both neighbours."""
    start = 0
    for idx, (sym, exp) in enumerate(runs):
        if pos <= start + exp:
            break
        start += exp
    off = pos - start
    left = runs[idx - 1][0] if off == 1 and idx > 0 else sym
    right = runs[idx + 1][0] if off == exp and idx + 1 < len(runs) else sym
    new = next(c for c in range(sigma) if c not in (sym, left, right))
    pieces = [(sym, off - 1), (new, 1), (sym, exp - off)]
    return runs[:idx] + tuple(p for p in pieces if p[1]) + runs[idx + 1:]


def count_occurrences(text: tuple[int, ...], pattern: tuple[int, ...]) -> int:
    """Overlapping occurrences of pattern in text, by direct search."""
    k = len(pattern)
    first = pattern[0]
    return sum(1 for i in range(len(text) - k + 1)
               if text[i] == first and text[i:i + k] == pattern)
