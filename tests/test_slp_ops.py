"""Operations that work on straight-line programs without expanding them."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crx.slp_ops
from crx import (
    BudgetExceededError,
    EmptyInputError,
    RleString,
    Slp,
    Term,
    Text,
    char_at,
    expand_slp,
    first_mismatch,
    grammar_to_slp,
    naive_bisection,
    occurrences,
    prefix_match,
    rle_as_slp,
    rle_encode,
    slp_equals,
    slp_lce,
    slp_runs,
    substring_slp,
)
from crx.slp_ops import EdgeRuns, Fingerprints, _cut, _pieces, annotate_runs
from helpers import (
    brute_occurrences,
    long_run_lists,
    power_slp,
    random_runs,
    random_slp,
    random_text,
    sample_slp,
    slp_of,
)

SAMPLE = "aababaababaab"


def test_char_at_full_scan():
    s = sample_slp()
    assert "".join("ab"[char_at(s, i)] for i in range(1, 14)) == SAMPLE
    with pytest.raises(IndexError):
        char_at(s, 0)
    with pytest.raises(IndexError):
        char_at(s, 14)


def test_char_at_huge_position():
    s = power_slp(40)
    assert s.length == 2**40
    assert char_at(s, 2**40) == 0


def test_annotate_runs_sample():
    ann = annotate_runs(sample_slp())
    root = 7 - 1
    assert ann.plen[root] == 2
    assert ann.slen[root] == 1
    assert ann.first[root] == 0
    assert ann.last[root] == 1


def test_window_runs_sample():
    s = sample_slp()
    # SAMPLE = aa b a b aa b a b aa b; the last run of 6..12 and the run
    # of 5..7 each straddle two cover pieces
    assert slp_runs(s, 6, 12).runs == ((0, 2), (1, 1), (0, 1), (1, 1), (0, 2))
    assert slp_runs(s, 5, 7).runs == ((1, 1), (0, 2))
    # the first run of the window from pos to the end
    for pos, first in ((1, (0, 2)), (2, (0, 1)), (3, (1, 1)), (6, (0, 2)), (13, (1, 1))):
        assert slp_runs(s, pos).runs[0] == first


def test_window_runs_random():
    rng = random.Random(31)
    for _ in range(60):
        s = random_slp(rng, max_extra=8, sigma=3, max_len=300)
        text = expand_slp(s).symbols
        n = len(text)
        for _ in range(15):
            i = rng.randint(1, n)
            j = n if rng.random() < 0.3 else rng.randint(i, n)
            assert slp_runs(s, i, j) == rle_encode(Text(text[i - 1:j])), (i, j)


def test_slp_runs_equals_rle_of_expansion():
    s = sample_slp()
    assert slp_runs(s).runs == rle_encode(expand_slp(s)).runs
    assert len(slp_runs(s).runs) == 10


def test_slp_runs_random():
    rng = random.Random(37)
    for _ in range(120):
        s = random_slp(rng, max_extra=9, sigma=3, max_len=1000)
        assert slp_runs(s) == rle_encode(expand_slp(s))


def test_slp_runs_power():
    s = power_slp(30)
    assert slp_runs(s) == RleString(((0, 2**30),))


def test_substring_frozen():
    s = sample_slp()
    assert expand_slp(substring_slp(s, 3, 6)).to_str() == "baba"


def test_substring_all_spans_and_size_bound():
    s = sample_slp()
    n = s.n
    for i in range(1, 14):
        for j in range(i, 14):
            e = substring_slp(s, i, j)
            assert expand_slp(e).to_str() == SAMPLE[i - 1:j]
            assert e.n <= 4 * n


def test_substring_random():
    rng = random.Random(41)
    for _ in range(80):
        s = random_slp(rng, max_extra=8, sigma=3, max_len=400)
        text = expand_slp(s).to_str()
        i = rng.randint(1, len(text))
        j = rng.randint(i, len(text))
        e = substring_slp(s, i, j)
        assert expand_slp(e).to_str() == text[i - 1:j]
        assert e.n <= 4 * s.n


def _assert_window_as_if_built(s: Slp, i: int, j: int, text: str) -> None:
    e = substring_slp(s, i, j)
    fresh = Slp.build(e.rules)
    assert e == fresh
    assert e.lengths == fresh.lengths
    assert annotate_runs(e) == annotate_runs(fresh)
    assert expand_slp(e).to_str() == text[i - 1:j]


def test_substring_windows_match_a_fresh_build():
    # every window of small programs (whole variables, prefixes and
    # single symbols among them) has the lengths and annotations that
    # building and annotating its rules from scratch gives
    rng = random.Random(67)
    for k in range(60):
        if k % 3 == 0:
            s = random_slp(rng, max_extra=7, sigma=3, max_len=40)
        elif k % 3 == 1:
            s = slp_of(random_text(rng, max_len=40))
        else:
            s = rle_as_slp(RleString(random_runs(rng, max_runs=10, sigma=3)))
        text = expand_slp(s).to_str()
        for i in range(1, len(text) + 1):
            for j in range(i, len(text) + 1):
                _assert_window_as_if_built(s, i, j, text)
    for _ in range(60):
        s = random_slp(rng, max_extra=12, sigma=2, max_len=3000)
        text = expand_slp(s).to_str()
        spans = [(1, len(text))]
        v, base = s.n, 0  # whole variables on a random root-to-leaf path
        while not isinstance(s.rules[v - 1], Term):
            l, r = s.rules[v - 1]
            if rng.random() < 0.5:
                v = l
            else:
                base, v = base + s.lengths[l - 1], r
            spans.append((base + 1, base + s.lengths[v - 1]))
        for _ in range(20):
            spans.append((1, rng.randint(1, len(text))))  # prefixes
            i = rng.randint(1, len(text))
            spans += [(i, rng.randint(i, len(text))), (i, i)]
        for i, j in spans:
            _assert_window_as_if_built(s, i, j, text)
    # a window of a window
    s = random_slp(random.Random(71), max_extra=12, sigma=2, max_len=3000)
    text = expand_slp(s).to_str()
    w = substring_slp(s, 2, len(text) - 1)
    _assert_window_as_if_built(w, 2, len(text) - 3, text[1:])


def test_annotation_leaves_equality_and_hash_alone():
    rng = random.Random(73)
    for _ in range(30):
        s = random_slp(rng, max_extra=9, sigma=3, max_len=500)
        h = hash(s)
        assert s.annotations is None
        ann = annotate_runs(s)
        assert annotate_runs(s) is ann and s.annotations is ann
        assert s == Slp.build(s.rules)
        assert hash(s) == h == hash(Slp.build(s.rules))
        assert "annotations" not in repr(s)


def test_first_mismatch_streams_runs():
    # comparing two programs of a 2,000-run text holds O(height) pending
    # runs per side, not the per-level run lists of a root crossing
    rng = random.Random(79)
    runs: list[tuple[int, int]] = []
    while len(runs) < 2000:
        for sym, exp in random_runs(rng, max_runs=50, sigma=3, max_exp=8):
            if not runs or runs[-1][0] != sym:
                runs.append((sym, exp))
    r = RleString(tuple(runs[:2000]))
    a = rle_as_slp(r)
    text = expand_slp(a)
    b = grammar_to_slp(naive_bisection(text))
    tracemalloc.start()
    try:
        got = first_mismatch(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got is None
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    k = 3 * len(text) // 4
    other = list(text.symbols)
    other[k - 1] = (other[k - 1] + 1) % 3
    c = grammar_to_slp(naive_bisection(Text(tuple(other))))
    assert first_mismatch(a, c) == first_mismatch(c, a) == k
    assert not slp_equals(a, c)


def test_substring_bad_range():
    with pytest.raises(IndexError):
        substring_slp(sample_slp(), 5, 3)
    with pytest.raises(IndexError):
        substring_slp(sample_slp(), 0, 3)
    with pytest.raises(IndexError):
        substring_slp(sample_slp(), 1, 99)


def test_occurrences_sample_frozen():
    occ = occurrences(sample_slp(), slp_of_str("ab"))
    assert occ.count() == 5
    assert occ.min_start() == 2
    assert sorted(occ.positions()) == [2, 4, 7, 9, 12]
    assert occ.membership(7)
    assert not occ.membership(3)
    assert occ.exists_start_in(10, 13)
    assert not occ.exists_start_in(10, 11)
    assert occ.exists_fully_within(1, 3)
    assert not occ.exists_fully_within(1, 2)


def slp_of_str(s: str):
    from crx import Text
    return slp_of(Text.from_str(s))


def test_occurrences_absent_pattern():
    occ = occurrences(sample_slp(), slp_of_str("bb"))
    assert occ.count() == 0
    assert occ.min_start() is None
    assert not occ.membership(1)
    assert not occ.exists_start_in(1, 13)


def test_occurrences_pattern_longer_than_text():
    occ = occurrences(slp_of_str("ab"), slp_of_str("ababab"))
    assert occ.count() == 0


def test_occurrences_refuses_empty_run_pattern():
    with pytest.raises(EmptyInputError):
        occurrences(sample_slp(), RleString(()))


def test_occurrences_random_vs_brute():
    rng = random.Random(43)
    for _ in range(150):
        s = random_slp(rng, max_extra=8, sigma=2, max_len=600)
        text = expand_slp(s).to_str()
        p = random_slp(rng, max_extra=4, sigma=2, max_len=20)
        pat = expand_slp(p).to_str()
        occ = occurrences(s, p)
        want = brute_occurrences(text, pat)
        assert occ.count() == len(want)
        assert occ.min_start() == (want[0] if want else None)
        assert sorted(occ.positions()) == want
        for _ in range(6):
            q = rng.randint(1, len(text))
            assert occ.membership(q) == (q in want)
        lo = rng.randint(1, len(text))
        hi = rng.randint(lo, len(text))
        assert occ.exists_start_in(lo, hi) == any(lo <= w <= hi for w in want)
        L = len(pat)
        assert occ.exists_fully_within(lo, hi) == any(
            lo <= w and w + L - 1 <= hi for w in want)


def test_occurrences_unary_pattern_in_power_text():
    # a^(2^20) contains 2^20 - 2 occurrences of aaa without materializing them
    occ = occurrences(power_slp(20), slp_of_str("aaa"))
    assert occ.count() == 2**20 - 2
    assert occ.min_start() == 1
    assert occ.membership(2**20 - 2)
    assert not occ.membership(2**20 - 1)


def test_occurrence_starts_form_ap_per_anchor():
    # positions of a periodic pattern inside one crossing bucket step by
    # the period; the public check is that membership agrees with the list
    s = slp_of_str("abababababab")
    p = slp_of_str("abab")
    occ = occurrences(s, p)
    pos = sorted(occ.positions())
    assert pos == [1, 3, 5, 7, 9]
    steps = {b - a for a, b in zip(pos, pos[1:])}
    assert steps == {2}


def test_slp_equals():
    a = slp_of_str("abab")
    b = slp_of_str("abab")
    c = slp_of_str("abba")
    d = slp_of_str("ababa")
    assert slp_equals(a, b)
    assert not slp_equals(a, c)
    assert not slp_equals(a, d)
    # same string, structurally different programs
    e = Slp.build((Term(0), Term(1), (1, 2), (3, 3)))
    assert slp_equals(a, e)


def test_prefix_match_frozen():
    s = sample_slp()
    assert prefix_match(s, 4, slp_of_str("ab"))
    assert not prefix_match(s, 1, slp_of_str("b"))
    assert prefix_match(s, 1, slp_of_str("aabab"))
    with pytest.raises(IndexError):
        prefix_match(s, 13, slp_of_str("bb"))


def test_prefix_match_random():
    rng = random.Random(47)
    for _ in range(100):
        s = random_slp(rng, max_extra=7, sigma=2, max_len=300)
        text = expand_slp(s).to_str()
        p = random_slp(rng, max_extra=3, sigma=2, max_len=12)
        pat = expand_slp(p).to_str()
        if len(pat) > len(text):
            continue
        pos = rng.randint(1, len(text) - len(pat) + 1)
        assert prefix_match(s, pos, p) == text[pos - 1:].startswith(pat)


def brute_lce(text: tuple, i: int, j: int, limit: int) -> int:
    k = 0
    while k < limit and text[i - 1 + k] == text[j - 1 + k]:
        k += 1
    return k


def test_slp_lce_sample_and_bounds():
    s = sample_slp()
    # SAMPLE = aababaababaab: 1..8 and 6..13 agree, 2..13 and 1..12 do not
    assert slp_lce(s, 1, 6, 8) == 8
    assert slp_lce(s, 6, 1, 8) == 8
    assert slp_lce(s, 2, 1, 12) == 1
    assert slp_lce(s, 3, 5, 9) == 2
    assert slp_lce(s, 13, 3, 1) == 1
    assert slp_lce(s, 13, 1, 1) == 0
    assert slp_lce(s, 4, 4, 10) == 10
    assert slp_lce(s, 14, 1, 0) == 0
    for i, j, limit in ((0, 1, 1), (1, 0, 1), (13, 1, 2), (1, 13, 2), (14, 1, 1),
                        (1, 2, -1), (1, 1, 14)):
        with pytest.raises(IndexError):
            slp_lce(s, i, j, limit)


def test_slp_lce_matches_brute_force():
    rng = random.Random(83)
    programs = []
    for _ in range(40):
        programs.append(random_slp(rng, max_extra=9, sigma=3, max_len=400))
        programs.append(slp_of(random_text(rng, max_len=200, sigma=2)))
        programs.append(rle_as_slp(RleString(random_runs(rng, max_runs=12, max_exp=9))))
    for s in programs:
        text = expand_slp(s).symbols
        n = len(text)
        if n <= 16:
            pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        else:
            pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(40)]
            # overlapping windows: the second starts inside the first
            pairs += [(i, i + rng.randint(1, 3)) for i in rng.sample(range(1, n - 2), 10)]
        for i, j in pairs:
            room = n - max(i, j) + 1
            for limit in {1, room, rng.randint(1, room)}:
                assert slp_lce(s, i, j, limit) == brute_lce(text, i, j, limit), (i, j, limit)
        assert slp_lce(s, 1, 1, n) == n


def test_slp_lce_across_many_cover_pieces():
    rng = random.Random(89)
    for _ in range(20):
        block = [rng.randrange(2) for _ in range(rng.randint(3, 40))]
        text = (block * (1200 // len(block) + 1))[:1200]
        k = rng.randint(600, 1200)
        text[k - 1] ^= 1
        text = tuple(text)
        for s in (slp_of(Text(text)), rle_as_slp(rle_encode(Text(text)))):
            i, j = rng.randint(2, 50), rng.randint(51, 100)
            limit = len(text) - j + 1
            assert len(list(_pieces(s, *_cut(s, i, i + limit - 1)))) >= 8
            assert slp_lce(s, i, j, limit) == brute_lce(text, i, j, limit)
            assert slp_lce(s, j, i, limit) == brute_lce(text, i, j, limit)
    # a periodic text against its own shift: every run agrees
    s = Slp.build((Term(0), Term(1), (1, 2)) + tuple((v, v) for v in range(3, 15)))
    assert slp_lce(s, 1, 3, s.length - 2) == s.length - 2
    assert slp_lce(s, 2, 3, s.length - 2) == 0


def test_first_mismatch():
    assert first_mismatch(power_slp(2), slp_of_str("aaaa")) is None
    # equal prefix, one longer: mismatch at the first extra position
    assert first_mismatch(power_slp(2), slp_of_str("aaaaa")) == 5
    assert first_mismatch(slp_of_str("abcabc"), slp_of_str("abcxbc")) == 4
    assert first_mismatch(slp_of_str("x"), slp_of_str("y")) == 1


def test_first_mismatch_random():
    rng = random.Random(53)
    for _ in range(80):
        a = random_slp(rng, max_extra=7, sigma=2, max_len=400)
        b = random_slp(rng, max_extra=7, sigma=2, max_len=400)
        x, y = expand_slp(a).to_str(), expand_slp(b).to_str()
        got = first_mismatch(a, b)
        k = 0
        while k < min(len(x), len(y)) and x[k] == y[k]:
            k += 1
        want = None if x == y else k + 1
        assert got == want


def _check_fresh_sets(rng, s, p):
    text = expand_slp(s).to_str()
    pat = expand_slp(p).to_str()
    L = len(pat)
    want = brute_occurrences(text, pat)
    assert occurrences(s, p).min_start() == (want[0] if want else None)
    q = rng.choice(want) if want and rng.random() < 0.5 else rng.randint(1, len(text))
    assert occurrences(s, p).membership(q) == (q in want)
    lo = rng.randint(1, len(text))
    hi = rng.randint(lo, len(text))
    assert occurrences(s, p).exists_start_in(lo, hi) == any(
        lo <= w <= hi for w in want)
    assert occurrences(s, p).exists_start_in(1, hi) == any(w <= hi for w in want)
    assert occurrences(s, p).exists_fully_within(lo, hi) == any(
        lo <= w and w + L - 1 <= hi for w in want)
    assert occurrences(s, p).count() == len(want)
    assert occurrences(s, p).positions() == want


def test_occurrence_queries_each_on_fresh_set():
    # each query gets its own occurrence set, so no query's memos hide
    # the lazy crossings, edge runs and first-hit tests of another
    rng = random.Random(59)
    for _ in range(120):
        s = random_slp(rng, max_extra=10, sigma=2, max_len=600)
        n = s.length
        if rng.random() < 0.5:
            i = rng.randint(1, n)
            j = min(n, i + rng.randint(0, 12))
            p = substring_slp(s, i, j)
        else:
            p = random_slp(rng, max_extra=4, sigma=2, max_len=20)
        _check_fresh_sets(rng, s, p)
    # periodic texts: one variable holds many crossing starts, a period
    # apart, of a pattern with one run or with several
    for unit in ("ab", "aab", "abb", "a"):
        for k in (5, 16, 33):
            t = Text.from_str(unit * k + unit[0])
            for s in (slp_of(t), rle_as_slp(rle_encode(t))):
                for plen in (1, 2, len(unit) + 1, 2 * len(unit), 3 * len(unit) + 1):
                    i = rng.randint(1, len(t) - plen + 1)
                    _check_fresh_sets(rng, s, slp_of(Text(t.symbols[i - 1:i - 1 + plen])))


def test_interleaved_queries_share_one_set():
    # one set answers every query in turn, so a variable that one range
    # query wrongly records as empty, or a start found out of order,
    # shows up in a later answer
    rng = random.Random(107)
    for k in range(90):
        if k % 3 == 0:
            s = random_slp(rng, max_extra=10, sigma=2, max_len=600)
        elif k % 3 == 1:
            s = slp_of(random_text(rng, max_len=300, sigma=2))
        else:
            s = rle_as_slp(RleString(random_runs(rng, max_runs=30, sigma=2, max_exp=9)))
        text = expand_slp(s).to_str()
        n = len(text)
        if rng.random() < 0.8:
            i = rng.randint(1, n)
            pat = text[i - 1:min(n, i + rng.randint(0, 8))]
        else:
            pat = "".join(rng.choice("ab") for _ in range(rng.randint(1, 5)))
        want = brute_occurrences(text, pat)
        queries = [("min", 0, 0)]
        # ranges ending just before or starting just after an occurrence
        # cut the variables holding it
        for w in rng.sample(want, min(4, len(want))):
            queries += [("start", rng.randint(1, w), w - 1),
                        ("start", w + 1, rng.randint(w + 1, n + 1)),
                        ("start", w, w), ("fully", rng.randint(1, w), w + len(pat) - 2)]
        for _ in range(4):
            lo = rng.randint(1, n)
            hi = rng.randint(lo, n)
            queries += [("start", lo, hi), ("start", lo, lo - 1), ("start", lo, lo),
                        ("fully", lo, hi)]
        orders = [queries, queries[::-1], queries[1:] + queries[:1]]
        orders += [rng.sample(queries, len(queries)) for _ in range(2)]
        for order in orders:
            occ = occurrences(s, slp_of_str(pat))
            for kind, lo, hi in order:
                if kind == "min":
                    assert occ.min_start() == (want[0] if want else None), pat
                elif kind == "start":
                    assert occ.exists_start_in(lo, hi) == any(
                        lo <= w <= hi for w in want), (pat, lo, hi)
                else:
                    assert occ.exists_fully_within(lo, hi) == any(
                        lo <= w and w + len(pat) - 1 <= hi for w in want), (pat, lo, hi)


def _answers(occ, lo, hi):
    return occ.min_start(), occ.exists_start_in(lo, hi), occ.count(), occ.positions()


def test_shared_edge_store_matches_fresh_sets():
    # one store of edge runs serves a sequence of patterns on one text:
    # short then long (the bound grows and the lists start afresh), long
    # then short (stored lists are cut down), many runs after one run;
    # runs of up to 10**3 with patterns of 1-3 runs make the run-capped
    # edge windows reach far past the pattern, so the crossing filter
    # must drop every start that does not cross
    rng = random.Random(101)
    for k in range(200):
        if k % 4 == 0:
            s = random_slp(rng, max_extra=10, sigma=3, max_len=600)
        elif k % 4 == 1:
            s = slp_of(random_text(rng, max_len=300, sigma=2))
        elif k % 4 == 2:
            s = rle_as_slp(RleString(random_runs(rng, max_runs=30, max_exp=9)))
        else:
            s = rle_as_slp(RleString(random_runs(rng, max_runs=8, sigma=2, max_exp=10**3)))
        text = expand_slp(s).to_str()
        n = len(text)

        def window(length):
            length = max(1, min(n, length))
            i = rng.randint(1, n - length + 1)
            return text[i - 1:i - 1 + length]

        def few_runs():
            # 1-3 runs of the text, the outer two cut short at random
            runs = slp_runs(s).runs
            i = rng.randrange(len(runs))
            j = min(len(runs), i + rng.randint(1, 3))
            parts = [chr(ord("a") + c) * e for c, e in runs[i:j]]
            parts[0] = parts[0][:rng.randint(1, len(parts[0]))]
            parts[-1] = parts[-1][-rng.randint(1, len(parts[-1])):]
            return "".join(parts)

        letters = sorted(set(text)) + ["c"]
        patterns = [window(2), window(rng.randint(n // 3, n)), window(3),
                    rng.choice(letters) * rng.randint(1, 4),
                    window(rng.randint(n // 4, n // 2)),
                    "".join(rng.choice(letters) for _ in range(rng.randint(2, 6)))]
        if k % 4 == 3:
            patterns += [few_runs() for _ in range(3)]
        edges = EdgeRuns(s)
        for pat in patterns:
            t = Text.from_str(pat)
            p = rle_encode(t) if rng.random() < 0.5 else slp_of(t)
            want = brute_occurrences(text, pat)
            lo = rng.randint(1, n)
            hi = rng.randint(lo, n)
            expected = (want[0] if want else None, any(lo <= w <= hi for w in want),
                        len(want), want)
            assert _answers(occurrences(s, p, edges), lo, hi) == expected, pat
            assert _answers(occurrences(s, p), lo, hi) == expected, pat
        if len(patterns[1]) > 1:  # count() crossed the root
            assert edges.runs >= len(rle_encode(Text.from_str(patterns[1])).runs) + 2


@st.composite
def edge_programs(draw):
    """Random programs, run lists as left folds, and bisection programs."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        rules: list = [Term(c) for c in range(draw(st.integers(1, 3)))]
        for _ in range(draw(st.integers(1, 10))):
            rules.append((draw(st.integers(1, len(rules))), draw(st.integers(1, len(rules)))))
        return Slp.build(tuple(rules))
    if kind == 1:
        return rle_as_slp(draw(long_run_lists(max_runs=12, max_exp=20)))
    return slp_of(Text(tuple(draw(st.lists(st.integers(0, 2), min_size=1, max_size=60)))))


@settings(max_examples=150, deadline=None)
@given(edge_programs())
def test_edge_lists_are_first_runs_from_each_edge(s):
    # every list is the first cap runs of the variable from that edge with
    # true exponents, whether the store was first asked for more or not
    larger = EdgeRuns(s)
    for outer in (0, 1):
        larger.edge(s.n, outer, 13)
    for v in range(1, s.n + 1):
        runs = rle_encode(expand_slp(Slp.build(s.rules[:v]))).runs
        for outer, from_edge in ((0, runs), (1, runs[::-1])):
            for cap in range(1, 9):
                want = list(from_edge[:cap])
                assert EdgeRuns(s).edge(v, outer, cap) == want, (v, outer, cap)
                assert larger.edge(v, outer, cap) == want, (v, outer, cap)
    assert larger.runs == 13


@settings(max_examples=150, deadline=None)
@given(edge_programs(), st.data())
def test_equal_windows_get_equal_fingerprints(s, data):
    # the fingerprint is a function of the string alone: every window and
    # variable of s deriving it, and other programs of other shapes
    # deriving it, all get the polynomial value of its symbols
    text = expand_slp(s).symbols
    i = data.draw(st.integers(1, s.length))
    j = data.draw(st.integers(i, min(s.length, i + 40)))
    window = text[i - 1:j]
    want = 0
    for c in window:
        want = (want * crx.slp_ops._FP_BASE + c + 1) % crx.slp_ops._FP_MOD
    fps = Fingerprints(s)
    assert fps.span(i, j) == want
    m = j - i + 1
    for k in range(1, s.length - m + 2):
        if text[k - 1:k - 1 + m] == window:
            assert fps.span(k, k + m - 1) == want, k
    for v in range(1, s.n + 1):
        if s.lengths[v - 1] == m:
            prefix = Slp.build(s.rules[:v])
            if expand_slp(prefix).symbols == window:
                assert Fingerprints(prefix).span(1, m) == want, v
    for other in (slp_of(Text(window)), rle_as_slp(rle_encode(Text(window)))):
        assert Fingerprints(other).span(1, m) == want


def test_fingerprints_bad_span():
    fps = Fingerprints(sample_slp())
    for i, j in ((0, 3), (4, 3), (1, len(SAMPLE) + 1)):
        with pytest.raises(IndexError):
            fps.span(i, j)


def test_positions_walk_is_bounded(monkeypatch):
    # power_slp(10)'s derivation tree has 2**11 - 1 nodes
    occ = occurrences(power_slp(10), slp_of_str("aa"))
    monkeypatch.setattr(crx.slp_ops, "_MAX_TREE_NODES", 2**11 - 1)
    assert occ.positions() == list(range(1, 2**10))
    monkeypatch.setattr(crx.slp_ops, "_MAX_TREE_NODES", 2**11 - 2)
    with pytest.raises(BudgetExceededError):
        occ.positions()


def test_longer_pattern_inherits_misses():
    # windows growing at one start: each set takes over the variables the
    # previous one found empty, and still answers like a fresh set
    rng = random.Random(103)
    for k in range(60):
        if k % 2:
            s = random_slp(rng, max_extra=10, sigma=2, max_len=400)
        else:
            s = rle_as_slp(RleString(random_runs(rng, max_runs=20, sigma=2, max_exp=5)))
        text = expand_slp(s).to_str()
        n = len(text)
        pos = rng.randint(1, n)
        edges = EdgeRuns(s)
        shorter = None
        for length in range(1, n - pos + 2):
            occ = occurrences(s, slp_runs(s, pos, pos + length - 1), edges)
            if shorter is not None:
                occ.inherit_misses(shorter)
            want = brute_occurrences(text, text[pos - 1:pos - 1 + length])
            assert occ.min_start() == want[0]
            assert occ.exists_start_in(1, pos - 1) == (want[0] < pos)
            shorter = occ
    # not an extension: another pattern, a longer one, another text
    s = sample_slp()
    ab, aa = occurrences(s, slp_of_str("ab")), occurrences(s, slp_of_str("aa"))
    for longer, short in ((ab, aa), (aa, ab), (ab, occurrences(s, slp_of_str("aab"))),
                          (ab, occurrences(sample_slp(), slp_of_str("a")))):
        with pytest.raises(ValueError):
            longer.inherit_misses(short)
    occurrences(s, slp_of_str("aab")).inherit_misses(occurrences(s, slp_of_str("aa")))
    with pytest.raises(ValueError):
        occurrences(s, slp_of_str("ab"), EdgeRuns(sample_slp()))


def test_equality_and_mismatch_deep_in_right_half():
    # equal-length programs of different shape that differ at one position
    # deep in the right half: the root crossing alone must tell them apart
    rng = random.Random(61)
    for _ in range(40):
        text = "".join(rng.choice("ab") for _ in range(rng.randint(40, 300)))
        k = rng.randint(3 * len(text) // 4, len(text))
        other = text[:k - 1] + ("b" if text[k - 1] == "a" else "a") + text[k:]
        a, b, c = slp_of_str(text), slp_of_str(other), slp_of_str(text[::-1])
        assert slp_equals(a, a) and slp_equals(a, slp_of_str(text))
        assert not slp_equals(a, b)
        assert first_mismatch(a, b) == k
        assert first_mismatch(b, a) == k
        assert first_mismatch(a, slp_of_str(text)) is None
        assert slp_equals(c, slp_of_str(text[::-1]))
    # a balanced program against a right-deep chain of the same length:
    # equal, then one symbol changed near the end of the chain
    n = 2**9
    for k in (n // 2 + 1, 3 * n // 4, n - 1):
        text = "a" * (k - 1) + "b" + "a" * (n - k)
        assert slp_equals(power_slp(9), right_deep_slp("a" * n))
        assert not slp_equals(power_slp(9), right_deep_slp(text))
        assert first_mismatch(power_slp(9), right_deep_slp(text)) == k
        assert first_mismatch(right_deep_slp(text), slp_of_str(text)) is None


def right_deep_slp(text: str) -> Slp:
    """X -> c X' chains, one rule per symbol: height equals the length."""
    rules: list = [Term(0), Term(1)]
    cur = "ab".index(text[-1]) + 1
    for ch in reversed(text[:-1]):
        rules.append(("ab".index(ch) + 1, cur))
        cur = len(rules)
    return Slp.build(rules)
