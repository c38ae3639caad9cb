"""Conversions that start from a straight-line program."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crx.from_slp
import crx.slp_ops
from crx import (
    InternalError,
    Literal,
    Reference,
    RleString,
    Slp,
    Term,
    Text,
    expand_rle,
    expand_slp,
    grammar_to_slp,
    naive_bisection,
    naive_lz77,
    naive_lz78,
    rle_as_slp,
    rle_encode,
    rle_to_lz77,
    slp_to_bisection,
    slp_to_lz77,
    slp_to_lz78,
    slp_to_rle,
)
from helpers import (
    T,
    fibonacci_slp,
    long_run_lists,
    power_slp,
    random_runs,
    random_slp,
    record_calls,
    sample_slp,
    slp_of,
)

SAMPLE = "aababaababaab"


def test_rle_of_sample():
    r = slp_to_rle(sample_slp())
    assert len(r.runs) == 10
    assert r == rle_encode(expand_slp(sample_slp()))


def test_rle_of_power():
    assert slp_to_rle(power_slp(30)) == RleString(((0, 2**30),))


def test_lz77_of_sample_frozen():
    f = slp_to_lz77(sample_slp())
    assert f.factors == (
        Literal(0), Reference(1, 1), Literal(1),
        Reference(2, 2), Reference(1, 5), Reference(1, 3),
    )
    assert f.factors == naive_lz77(expand_slp(sample_slp())).factors


def test_lz77_of_sample_self_ref():
    f = slp_to_lz77(sample_slp(), self_referential=True)
    assert f.factors == naive_lz77(expand_slp(sample_slp()),
                                   self_referential=True).factors


def test_lz77_of_power():
    f = slp_to_lz77(power_slp(30), self_referential=True)
    assert f.factors == (Literal(0), Reference(1, 2**30 - 1))


def test_lz77_source_switch_frozen():
    # the leftmost source of "ab" is 1, but only the copy at 4 extends to
    # "aby": the factor at 7 must move its source on the longer window
    t = T("abxabyaby")
    for self_ref in (False, True):
        f = slp_to_lz77(slp_of(t), self_referential=self_ref)
        assert f.factors[-1] == Reference(4, 3)
        assert f.factors == naive_lz77(t, self_referential=self_ref).factors


@settings(max_examples=200, deadline=None)
@given(st.one_of(long_run_lists(),
                 # records and giant first runs inside one run
                 long_run_lists(sigma=1, max_exp=1000), long_run_lists(sigma=2, max_exp=1000),
                 # many run boundaries to score at each cursor position
                 long_run_lists(max_exp=2, min_runs=30, max_runs=60)),
       st.booleans())
def test_lz77_agrees_with_run_lane_and_reference(r, self_ref):
    want = naive_lz77(expand_rle(r), self_ref)
    assert rle_to_lz77(r, self_ref) == want
    assert slp_to_lz77(rle_as_slp(r), self_ref) == want


@pytest.mark.parametrize("self_ref", [False, True])
def test_lz77_of_empty_runs_and_one_symbol_program(self_ref):
    assert rle_to_lz77(RleString(()), self_ref).factors == ()
    f = slp_to_lz77(Slp.build((Term(3),)), self_ref)
    assert f.factors == (Literal(3),) and f == naive_lz77(Text((3,)), self_ref)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=200), st.booleans())
def test_lz77_of_bisection_program_matches_reference(symbols, self_ref):
    t = Text(tuple(symbols))
    s = grammar_to_slp(naive_bisection(t))
    assert slp_to_lz77(s, self_ref) == naive_lz77(t, self_ref)


def test_lz77_of_doubling_program_frozen():
    # 15 rules: a, b, ab, then twelve doublings deriving (ab)^(2^12)
    s = Slp.build((Term(0), Term(1), (1, 2)) + tuple((v, v) for v in range(3, 15)))
    assert s.n == 15 and s.length == 2**13
    t = expand_slp(s)
    plain = slp_to_lz77(s)
    assert plain.factors == (Literal(0), Literal(1)) + tuple(
        Reference(1, 2**k) for k in range(1, 13))
    assert plain == naive_lz77(t)
    self_ref = slp_to_lz77(s, True)
    assert self_ref.factors == (Literal(0), Literal(1), Reference(1, 2**13 - 2))
    assert self_ref == naive_lz77(t, True)


def record_builds(monkeypatch) -> list:
    """Record every later Slp.build call; programs built before are not
    seen."""
    built = []
    real = Slp.build
    monkeypatch.setattr(Slp, "build", staticmethod(
        lambda *args, **kw: built.append(args) or real(*args, **kw)))
    return built


def test_lz77_builds_no_substring_program(monkeypatch):
    # the occurrence queries read the window's runs, not a program of it
    rng = random.Random(107)
    programs = [sample_slp(), power_slp(12), slp_of(T("abxabyaby"))]
    programs += [random_slp(rng, max_extra=9, sigma=3, max_len=800) for _ in range(20)]
    texts = [expand_slp(s) for s in programs]
    built = record_builds(monkeypatch)
    for s, t in zip(programs, texts):
        for self_ref in (False, True):
            assert slp_to_lz77(s, self_ref) == naive_lz77(t, self_ref)
    assert built == []


@pytest.mark.parametrize("fake_min_start", [
    lambda self: None,                    # no occurrence of the window at all
    lambda self: self.text.length + 1,    # a start after the window's own
    lambda self: 1,                       # aab... holds no ab at 1
])
def test_lz77_source_search_checks_itself(monkeypatch, fake_min_start):
    monkeypatch.setattr(crx.slp_ops.OccRepr, "min_start", fake_min_start)
    for self_ref in (False, True):
        with pytest.raises(InternalError):
            slp_to_lz77(sample_slp(), self_ref)


def test_lz78_of_sample_frozen():
    f = slp_to_lz78(sample_slp())
    assert f.factor_ids == (1, 1, 2, 4, 3, 5, 5, 4)
    assert f.alphabet_size == 2
    n = naive_lz78(expand_slp(sample_slp()))
    assert f.factor_ids == n.factor_ids


def test_lz78_of_power_run():
    f = slp_to_lz78(power_slp(20))
    assert len(f.factor_ids) == 1448
    assert f.factor_ids == naive_lz78(expand_slp(power_slp(20))).factor_ids


def test_lz78_builds_no_substring_program(monkeypatch):
    rng = random.Random(97)
    programs = [sample_slp(), power_slp(12)]
    programs += [random_slp(rng, max_extra=9, sigma=3, max_len=800) for _ in range(20)]
    texts = [expand_slp(s) for s in programs]
    built = record_builds(monkeypatch)
    for s, t in zip(programs, texts):
        assert slp_to_lz78(s).factor_ids == naive_lz78(t).factor_ids
    assert built == []


def test_lz78_asks_no_slp_lce(monkeypatch):
    # the trie walk reads the text's runs; no entry is compared at the cursor
    rng = random.Random(113)
    programs = [sample_slp(), power_slp(12), slp_of(T("abababab" * 9 + "b"))]
    programs += [random_slp(rng, max_extra=9, sigma=3, max_len=800) for _ in range(20)]
    programs += [rle_as_slp(RleString(((0, 3), (1, 2)) * 20 + ((2, 5),)))]
    texts = [expand_slp(s) for s in programs]
    calls = record_calls(monkeypatch, "slp_lce", crx.slp_ops, crx.from_slp)
    for s, t in zip(programs, texts):
        assert slp_to_lz78(s) == naive_lz78(t)
    assert calls == []


def test_bisection_of_sample_rule_for_rule():
    assert slp_to_bisection(sample_slp()) == naive_bisection(expand_slp(sample_slp()))


def test_bisection_and_rle_build_no_program(monkeypatch):
    # equal span keys are confirmed on the text, runs come from annotations
    rng = random.Random(109)
    programs = [sample_slp(), power_slp(12), slp_of(T("abababab" * 9 + "b"))]
    programs += [random_slp(rng, max_extra=9, sigma=3, max_len=800) for _ in range(20)]
    programs += [rle_as_slp(RleString(((0, 3), (1, 2)) * 20 + ((2, 5),)))]
    texts = [expand_slp(s) for s in programs]
    built = record_builds(monkeypatch)
    for s, t in zip(programs, texts):
        assert slp_to_bisection(s) == naive_bisection(t)
        assert slp_to_rle(s) == rle_encode(t)
    assert built == []


def test_bisection_of_fibonacci_words():
    # n = k rules derive a word of about phi**k runs
    for k in range(5, 21):
        s = fibonacci_slp(k)
        assert slp_to_bisection(s) == naive_bisection(expand_slp(s)), k


def record_memberships(monkeypatch) -> list:
    """Record the answer of every later OccRepr.membership call."""
    answers = []
    real = crx.slp_ops.OccRepr.membership
    monkeypatch.setattr(crx.slp_ops.OccRepr, "membership", lambda occ, k:
                        answers.append(real(occ, k)) or answers[-1])
    return answers


def test_bisection_rejects_fingerprint_collisions(monkeypatch):
    # spans of equal length and unequal text collide often modulo 3; the
    # confirmation on the text must reject each such key
    rng = random.Random(113)
    programs = [random_slp(rng, max_extra=9, sigma=3, max_len=800) for _ in range(20)]
    programs += [rle_as_slp(RleString(random_runs(rng, max_runs=30))) for _ in range(10)]
    programs += [fibonacci_slp(k) for k in range(5, 15)]
    texts = [expand_slp(s) for s in programs]
    built = record_builds(monkeypatch)
    answers = record_memberships(monkeypatch)
    for s, t in zip(programs, texts):
        assert slp_to_bisection(s) == naive_bisection(t)
    assert answers and all(answers)  # no collision modulo 2**61 - 1
    monkeypatch.setattr(crx.slp_ops, "_FP_MOD", 3)
    answers.clear()
    for s, t in zip(programs, texts):
        assert slp_to_bisection(s) == naive_bisection(t)
    assert False in answers
    assert built == []


def test_all_conversions_random_vs_naive():
    rng = random.Random(67)
    for _ in range(100):
        s = random_slp(rng, max_extra=9, sigma=3, max_len=800)
        t = expand_slp(s)
        assert slp_to_rle(s) == rle_encode(t)
        assert slp_to_lz77(s).factors == naive_lz77(t).factors
        assert (slp_to_lz77(s, self_referential=True).factors
                == naive_lz77(t, self_referential=True).factors)
        f = slp_to_lz78(s)
        n78 = naive_lz78(t)
        assert f.factor_ids == n78.factor_ids
        assert f.alphabet_size == n78.alphabet_size
        assert slp_to_bisection(s) == naive_bisection(t)


def test_rle_output_well_formed():
    rng = random.Random(71)
    for _ in range(80):
        s = random_slp(rng, max_extra=10, sigma=3, max_len=2000)
        r = slp_to_rle(s)
        assert all(e >= 1 for _, e in r.runs)
        assert all(a[0] != b[0] for a, b in zip(r.runs, r.runs[1:]))
        assert sum(e for _, e in r.runs) == s.length
