"""Acceptance gate: one test per shipping criterion.

Each test records a single CRITERION verdict line; conftest prints them in
a terminal summary section after the run. Time and memory pins are
asserted, not just reported.
"""

import functools
import random
import time
import tracemalloc

from crx import (
    LceIndex,
    RleString,
    Text,
    compressed_size,
    expand_slp,
    lcp_array,
    naive_bisection,
    naive_lz77,
    naive_lz78,
    naive_repair,
    ncd,
    occurrences,
    rank_runs,
    rle_encode,
    rle_to_bisection,
    rle_to_lz77,
    rle_to_lz78,
    rle_to_repair,
    slp_to_bisection,
    slp_to_lz77,
    slp_to_lz78,
    slp_to_rle,
    suffix_array,
)
from helpers import brute_occurrences, sample_slp, power_slp, random_slp, slp_of

MIB = 1024 * 1024

# one verdict line per criterion, printed by conftest's terminal summary
RESULTS: list[str] = []


def criterion(num: int):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            t0 = time.perf_counter()
            try:
                msg = fn()
            except BaseException as exc:
                RESULTS.append(
                    f"CRITERION {num} FAIL: {type(exc).__name__}: {exc}")
                raise
            dt = time.perf_counter() - t0
            RESULTS.append(f"CRITERION {num} PASS: {msg} [{dt:.1f}s]")
        return wrapper
    return deco


def _all_strings(sigma, max_len):
    for n in range(1, max_len + 1):
        for v in range(sigma ** n):
            syms = []
            x = v
            for _ in range(n):
                syms.append(x % sigma)
                x //= sigma
            yield Text(tuple(syms))


def _timed_peak(fn):
    """(result, wall seconds, peak traced bytes) for one call."""
    tracemalloc.start()
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return out, dt, peak


@criterion(1)
def test_criterion_1_exhaustive_rle_conversions():
    """Every binary string to length 12 and ternary string to length 9:
    the four run-length conversions match the reference codecs exactly."""
    deadline = time.perf_counter() + 600
    count = 0
    for t in _all_strings(2, 12):
        _check_rle_lane(t)
        count += 1
    for t in _all_strings(3, 9):
        _check_rle_lane(t)
        count += 1
    assert time.perf_counter() < deadline, "exhaustive sweep exceeded 10 minutes"
    return f"{count} strings, all four conversions agree with reference codecs"


def _check_rle_lane(t: Text):
    r = rle_encode(t)
    assert rle_to_lz77(r).factors == naive_lz77(t).factors
    assert (rle_to_lz77(r, self_referential=True).factors
            == naive_lz77(t, self_referential=True).factors)
    f, nf = rle_to_lz78(r), naive_lz78(t)
    assert f.factor_ids == nf.factor_ids
    assert f.alphabet_size == nf.alphabet_size
    assert rle_to_repair(r) == naive_repair(t)
    assert rle_to_bisection(r) == naive_bisection(t)


@criterion(2)
def test_criterion_2_random_slp_conversions():
    """500 random programs (up to 12 rules, up to 4096 characters): all
    five program conversions match the reference codecs exactly."""
    rng = random.Random(2026)
    for _ in range(500):
        s = random_slp(rng, max_extra=10, sigma=3, max_len=4096)
        assert s.n <= 13 and s.length <= 4096
        t = expand_slp(s)
        assert slp_to_rle(s) == rle_encode(t)
        assert slp_to_lz77(s).factors == naive_lz77(t).factors
        assert (slp_to_lz77(s, self_referential=True).factors
                == naive_lz77(t, self_referential=True).factors)
        f, nf = slp_to_lz78(s), naive_lz78(t)
        assert f.factor_ids == nf.factor_ids
        assert f.alphabet_size == nf.alphabet_size
        assert slp_to_bisection(s) == naive_bisection(t)
    return "500 random programs, all five conversions agree"


@criterion(3)
def test_criterion_3_compressed_domain_speed():
    """A billion-character input stays in the compressed domain: run
    extraction and the run-to-LZ conversion finish in under 100 ms using
    under 16 MiB of working memory."""
    s = power_slp(30)
    assert s.n == 31 and s.length == 2**30
    r, dt1, peak1 = _timed_peak(lambda: slp_to_rle(s))
    assert r == RleString(((0, 2**30),))
    assert dt1 < 0.1, f"slp_to_rle took {dt1:.3f}s"
    assert peak1 < 16 * MIB, f"slp_to_rle peaked at {peak1} bytes"

    big = RleString(((0, 2**30), (1, 2**30)))
    f, dt2, peak2 = _timed_peak(lambda: rle_to_lz77(big))
    assert len(f.factors) == 62
    assert dt2 < 0.1, f"rle_to_lz77 took {dt2:.3f}s"
    assert peak2 < 16 * MIB, f"rle_to_lz77 peaked at {peak2} bytes"
    return (f"2^30 chars: slp_to_rle {dt1 * 1000:.1f}ms/"
            f"{peak1 / MIB:.2f}MiB, rle_to_lz77 {dt2 * 1000:.1f}ms/"
            f"{peak2 / MIB:.2f}MiB")


@criterion(4)
def test_criterion_4_lz78_on_giant_run():
    """Factorizing a single run of 2^20 equal characters yields exactly
    1448 factors and finishes in under 30 seconds."""
    t0 = time.perf_counter()
    f = slp_to_lz78(power_slp(20))
    dt = time.perf_counter() - t0
    assert len(f.factor_ids) == 1448
    assert dt < 30, f"took {dt:.1f}s"
    return f"1448 factors in {dt * 1000:.0f}ms"


@criterion(5)
def test_criterion_5_worked_example():
    """The 13-character worked example: 10 runs, 6 LZ factors without
    self-references, 8 dictionary factors, everything equal to the
    reference codecs."""
    s = sample_slp()
    t = expand_slp(s)
    assert t.to_str() == "aababaababaab"
    r = slp_to_rle(s)
    assert len(r.runs) == 10
    assert r == rle_encode(t)
    z = slp_to_lz77(s)
    assert len(z.factors) == 6
    assert z.factors == naive_lz77(t).factors
    f = slp_to_lz78(s)
    assert len(f.factor_ids) == 8
    assert f.factor_ids == naive_lz78(t).factor_ids
    return "worked example: 10 runs, 6 LZ77 factors, 8 LZ78 factors"


@criterion(6)
def test_criterion_6_occurrence_queries():
    """1000 random text/pattern program pairs with expansions up to 2048
    characters: every occurrence query agrees with string search."""
    rng = random.Random(606)
    for _ in range(1000):
        s = random_slp(rng, max_extra=9, sigma=2, max_len=2048)
        text = expand_slp(s).to_str()
        p = random_slp(rng, max_extra=4, sigma=2, max_len=24)
        pat = expand_slp(p).to_str()
        occ = occurrences(s, p)
        want = brute_occurrences(text, pat)
        assert occ.count() == len(want)
        assert occ.min_start() == (want[0] if want else None)
        for _ in range(5):
            q = rng.randint(1, len(text))
            assert occ.membership(q) == (q in want)
        lo = rng.randint(1, len(text))
        hi = rng.randint(lo, len(text))
        assert occ.exists_start_in(lo, hi) == any(lo <= w <= hi for w in want)
        L = len(pat)
        assert occ.exists_fully_within(lo, hi) == any(
            lo <= w and w + L - 1 <= hi for w in want)
    return "1000 pattern queries agree with direct string search"


@criterion(7)
def test_criterion_7_ncd_sanity():
    """Dictionary-codec compression distance over 50 random byte strings
    of 2 to 8 KiB: self distance is strictly the smallest in each row and
    every value stays within [0, 1.1]."""
    rng = random.Random(99)
    strings = [bytes(rng.randrange(256) for _ in range(rng.randint(2048, 8192)))
               for _ in range(50)]
    sizes = [compressed_size(Text.from_bytes(b), "lz78", 256) for b in strings]

    def dist(i, j):
        cxy = compressed_size(Text.from_bytes(strings[i] + strings[j]),
                              "lz78", 256)
        return ncd(cxy, sizes[i], sizes[j])

    for i in range(50):
        self_d = dist(i, i)
        assert 0.0 <= self_d <= 1.1
        for j in range(50):
            if j == i:
                continue
            d = dist(i, j)
            assert 0.0 <= d <= 1.1
            assert self_d < d, (i, j, self_d, d)
    return "50x50 distance matrix: self distance smallest, values in [0, 1.1]"


@criterion(8)
def test_criterion_8_meta_suffix_structures():
    """10000 random run sequences of up to 64 runs: suffix array, LCP
    array and LCE answers on the rank sequence match brute force."""
    rng = random.Random(2468)

    def brute_sa(seq):
        return sorted(range(1, len(seq) + 1), key=lambda i: tuple(seq[i - 1:]))

    def brute_lcp(seq, sa):
        out = [0]
        for a, b in zip(sa, sa[1:]):
            x, y = seq[a - 1:], seq[b - 1:]
            k = 0
            while k < min(len(x), len(y)) and x[k] == y[k]:
                k += 1
            out.append(k)
        return out

    for _ in range(10000):
        n_runs = rng.randint(1, 64)
        prev = -1
        runs = []
        for _ in range(n_runs):
            sym = rng.choice([c for c in range(4) if c != prev])
            runs.append((sym, rng.randint(1, 8)))
            prev = sym
        m = rank_runs(RleString(tuple(runs)))
        sa = suffix_array(m.ranks)
        assert sa == brute_sa(m.ranks)
        assert lcp_array(m.ranks, sa) == brute_lcp(m.ranks, sa)
        idx = LceIndex(m.ranks)
        for _ in range(4):
            i, j = rng.randint(1, m.m), rng.randint(1, m.m)
            x, y = m.ranks[i - 1:], m.ranks[j - 1:]
            k = 0
            while k < min(len(x), len(y)) and x[k] == y[k]:
                k += 1
            assert idx.lce(i, j) == k
    return "10000 run sequences: SA, LCP and LCE match brute force"
