"""Conversions that start from a straight-line program."""

import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crx.from_slp
import crx.slp_ops
from crx import (
    Literal,
    Reference,
    RleString,
    Slp,
    Term,
    Text,
    expand_rle,
    expand_slp,
    first_mismatch,
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
    slp_runs,
    slp_to_rle,
)
from crx.from_rle import _bisection_of_runs
from crx.slp_ops import annotate_runs, run_count
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
    slp_programs,
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


@pytest.mark.parametrize("programs", [
    # binary texts, where a window's nearest runs often recur in places
    # where the window itself does not
    lambda rng: [random_slp(rng, max_extra=30, sigma=2, max_len=3000) for _ in range(20)],
    lambda rng: [rle_as_slp(RleString(random_runs(rng, max_runs=80, sigma=2, max_exp=2)))
                 for _ in range(10)],
    lambda rng: [fibonacci_slp(k) for k in range(5, 16)],
])
def test_lz77_source_search_checks_itself(programs):
    # every source must still be the leftmost one, in both modes
    for s in programs(random.Random(127)):
        t = expand_slp(s)
        for self_ref in (False, True):
            assert slp_to_lz77(s, self_ref) == naive_lz77(t, self_ref)


@settings(max_examples=300, deadline=None)
@given(slp_programs(), st.booleans())
def test_lz77_matches_reference_on_programs(s, self_ref):
    assert slp_to_lz77(s, self_ref) == naive_lz77(expand_slp(s), self_ref)


@settings(max_examples=300, deadline=None)
@given(slp_programs(), st.data())
def test_run_walks_match_reference_on_programs(s, data):
    # every route through the program's run walk, on the Fibonacci words'
    # rlink/llink jumps too; bisection also through the run lane's levels
    t = expand_slp(s)
    r = rle_encode(t)
    assert slp_to_rle(s) == r
    assert slp_to_lz78(s) == naive_lz78(t)
    assert slp_to_bisection(s) == naive_bisection(t)
    assert _bisection_of_runs(r.runs) == naive_bisection(t)
    assert first_mismatch(s, r) is None
    i = data.draw(st.integers(1, s.length))
    j = data.draw(st.integers(i, s.length))
    assert slp_runs(s, i, j) == rle_encode(Text(t.symbols[i - 1:j]))


def test_lz77_asks_no_occurrence_set(monkeypatch):
    # LZ77 takes the run lane on the program's runs: no occurrence set,
    # fingerprint table or edge-run store is built, and no slp_lce is asked
    rng = random.Random(131)
    programs = [sample_slp(), power_slp(12), slp_of(T("abxabyaby")), fibonacci_slp(12)]
    programs += [random_slp(rng, max_extra=9, sigma=3, max_len=800) for _ in range(20)]
    programs += [rle_as_slp(RleString(random_runs(rng, max_runs=30))) for _ in range(5)]
    texts = [expand_slp(s) for s in programs]
    calls = record_calls(monkeypatch, "occurrences", crx.slp_ops, crx.from_slp)
    lces = record_calls(monkeypatch, "slp_lce", crx.slp_ops)
    built = []
    for cls in (crx.slp_ops.OccRepr, crx.slp_ops.Fingerprints, crx.slp_ops.EdgeRuns):
        monkeypatch.setattr(cls, "__init__", lambda *args: built.append(args))
    for s, t in zip(programs, texts):
        for self_ref in (False, True):
            assert slp_to_lz77(s, self_ref) == naive_lz77(t, self_ref)
    assert calls == lces == built == []


def test_lz77_of_fibonacci_word_peak_memory():
    # X_24, 35,423 runs: the LCE index keeps its rank and sparse-table
    # rows as 8-byte array entries; as lists of ints they peaked at 15.9 MiB
    s = fibonacci_slp(24)
    gc.collect()
    tracemalloc.start()
    try:
        f = slp_to_lz77(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(f.factors) == 23
    assert peak < 10 * 2**20


@settings(max_examples=300, deadline=None)
@given(slp_programs())
def test_run_count_counts_the_runs(s):
    assert run_count(s) == len(slp_to_rle(s).runs)


def test_run_count_of_large_fibonacci_words():
    # the run counts of words far too long to hold as runs, from 40 and 90 rules
    assert run_count(fibonacci_slp(40)) == 78_176_339
    assert run_count(fibonacci_slp(90)) == 2_200_175_556_732_203_863


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
    calls = record_calls(monkeypatch, "slp_lce", crx.slp_ops)
    for s, t in zip(programs, texts):
        assert slp_to_lz78(s) == naive_lz78(t)
    assert calls == []


def test_lz78_streams_the_runs_once(monkeypatch):
    # one walk of the whole text's runs per conversion, never one per
    # factor: the tuple builder for a program that shares a variable of two
    # or more runs, else one stream
    rng = random.Random(131)
    programs = [sample_slp(), power_slp(12), fibonacci_slp(14)]
    programs += [random_slp(rng, max_extra=9, sigma=3, max_len=800) for _ in range(20)]
    texts = [expand_slp(s) for s in programs]
    streams = record_calls(monkeypatch, "_iter_runs", crx.slp_ops)
    builds = record_calls(monkeypatch, "_program_runs", crx.slp_ops)
    routes = []
    for s, t in zip(programs, texts):
        del streams[:], builds[:]
        assert slp_to_lz78(s) == naive_lz78(t)
        routes.append(bool(s.annotations.shared))
        if routes[-1]:
            assert (streams, builds) == ([], [(s, s.annotations)])
        else:
            assert (streams, builds) == ([(s, s.annotations, s.n)], [])
    # the sample and Fibonacci programs share variables, a power does not
    assert routes[:3] == [True, False, True] and routes.count(True) > 2


def test_run_walks_past_the_cap_stream(monkeypatch):
    # a program of more runs than the cap is streamed whatever it shares,
    # so a library call past the cap holds O(height) memory
    programs = [fibonacci_slp(14), slp_of(T("abxabyaby" * 3)),
                Slp.build((Term(0), Term(1), (1, 2)) + tuple((v, v) for v in range(3, 9)))]
    rles = [slp_to_rle(s) for s in programs]
    wants = [slp_to_lz78(s) for s in programs]
    monkeypatch.setattr(crx.slp_ops, "MAX_RUNS", 2)
    streams = record_calls(monkeypatch, "_iter_runs", crx.slp_ops)
    builds = record_calls(monkeypatch, "_program_runs", crx.slp_ops)
    for s, r, want in zip(programs, rles, wants):
        assert annotate_runs(s).shared and run_count(s) > 2
        whole = (s, s.annotations, s.n)  # one stream from the start rule
        del streams[:]
        assert slp_to_lz78(s) == want
        assert streams == [whole]
        del streams[:]
        assert first_mismatch(s, r) is None
        assert streams == [whole]
        assert slp_to_rle(s) == r
    assert builds == []


def test_lz78_of_fibonacci_word_peak_memory():
    # X_24, 35,423 runs: the tuple builder holds each shared variable's
    # runs once, and the start's, as one pointer per run
    s = fibonacci_slp(24)
    gc.collect()
    tracemalloc.start()
    try:
        f = slp_to_lz78(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f == naive_lz78(expand_slp(s))
    assert peak < 10 * 2**20


def test_first_mismatch_of_fibonacci_words_peak_memory():
    # two X_24 programs: each side's runs are built as one tuple
    a, b = fibonacci_slp(24), fibonacci_slp(24)
    gc.collect()
    tracemalloc.start()
    try:
        d = first_mismatch(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d is None
    assert peak < 10 * 2**20


def test_lz78_builds_no_run_list(monkeypatch):
    # the run stream holds O(height) memory: no RleString of the runs
    rng = random.Random(137)
    programs = [sample_slp(), power_slp(20), fibonacci_slp(16)]
    programs += [random_slp(rng, max_extra=9, sigma=3, max_len=800) for _ in range(20)]
    programs += [rle_as_slp(RleString(((0, 3), (1, 2)) * 20 + ((2, 5),)))]
    want = [naive_lz78(expand_slp(s)) for s in programs]

    def refuse(*args):
        raise AssertionError("a run list was built")

    monkeypatch.setattr(crx.from_slp, "slp_to_rle", refuse)
    monkeypatch.setattr(RleString, "__post_init__", refuse)
    for s, w in zip(programs, want):
        assert slp_to_lz78(s) == w


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


def block_text(rng: random.Random, length: int) -> Text:
    """A text of blocks drawn from a few random ones, cut to length."""
    blocks = [[rng.randrange(4) for _ in range(rng.randint(5, 40))] for _ in range(6)]
    symbols: list[int] = []
    while len(symbols) < length:
        symbols += rng.choice(blocks)
    return Text(tuple(symbols[:length]))


def test_bisection_walks_runs_only_for_spans_under_other_variables(monkeypatch):
    # a bisection program's equal spans are the same positions of the
    # same variable, so every reuse is proven by the spans' covers; in
    # run chains and Fibonacci words equal spans lie under different
    # variables and are still confirmed on the runs
    rng = random.Random(131)
    texts = [block_text(rng, 4000), Text(tuple(rng.randrange(4) for _ in range(2000)))]
    texts += [block_text(rng, rng.randint(1, 600)) for _ in range(10)]
    bisected = [grammar_to_slp(naive_bisection(t)) for t in texts]
    others = [rle_as_slp(RleString(random_runs(rng, max_runs=30))) for _ in range(10)]
    others += [rle_as_slp(RleString(((0, 3), (1, 2)) * 20 + ((2, 5),)))]
    others += [fibonacci_slp(k) for k in range(6, 15)]
    answers = record_memberships(monkeypatch)
    for s, t in zip(bisected, texts):
        assert slp_to_bisection(s) == naive_bisection(t)
    assert answers == []
    for s in others:
        assert slp_to_bisection(s) == naive_bisection(expand_slp(s))
        assert answers and all(answers), s
        answers.clear()


def test_all_conversions_random_vs_naive():
    rng = random.Random(67)
    for _ in range(100):
        s = random_slp(rng, max_extra=9, sigma=3, max_len=800)
        t = expand_slp(s)
        r = slp_to_rle(s)
        assert r == rle_encode(t)
        assert len({id(run) for run in r.runs}) == len(set(r.runs))  # equal runs share a tuple
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
