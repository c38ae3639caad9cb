"""Reference codecs on plain text, plus the compression-distance helpers."""

import random

import pytest

from crx import (
    AdmissibleGrammar,
    InvalidInputError,
    Literal,
    Reference,
    Term,
    Text,
    Var,
    compressed_size,
    expand_grammar,
    expand_lz77,
    expand_lz78,
    expand_slp,
    grammar_to_slp,
    naive_bisection,
    naive_lz77,
    naive_lz78,
    naive_repair,
    ncd,
    ncd_bytes,
    rle_encode,
)
from helpers import T, random_text

SAMPLE = "aababaababaab"


def test_lz77_frozen_values():
    assert naive_lz77(T(SAMPLE)).factors == (
        Literal(0), Reference(1, 1), Literal(1),
        Reference(2, 2), Reference(1, 5), Reference(1, 3),
    )
    assert naive_lz77(T("aaabbaaa")).factors == (
        Literal(0), Reference(1, 1), Reference(1, 1),
        Literal(1), Reference(4, 1), Reference(1, 3),
    )
    assert naive_lz77(T("aaabbaaa"), self_referential=True).factors == (
        Literal(0), Reference(1, 2), Literal(1),
        Reference(4, 1), Reference(1, 3),
    )


def test_lz77_single_symbol_run_self_ref():
    f = naive_lz77(T("a" * 8), self_referential=True)
    assert f.factors == (Literal(0), Reference(1, 7))


def test_lz78_frozen_values():
    f = naive_lz78(T(SAMPLE))
    assert f.factor_ids == (1, 1, 2, 4, 3, 5, 5, 4)
    assert f.alphabet_size == 2
    g = naive_lz78(T("aaaa"))
    assert g.factor_ids == (1, 2, 1)
    assert g.alphabet_size == 1


def test_lz78_explicit_alphabet_shifts_entry_ids():
    # seeds occupy 1..sigma, so a larger alphabet shifts entry ids up
    f = naive_lz78(T("aaaa"), alphabet_size=256)
    assert f.factor_ids == (1, 257, 1)
    assert expand_lz78(f).to_str() == "aaaa"


def test_repair_frozen():
    g = naive_repair(T("aabaab"))
    assert g.rules == {
        1: (Term(0), Term(0)),
        2: (Var(1), Term(1)),
        3: (Var(2), Var(2)),
    }
    assert g.start == 3
    assert expand_grammar(g).to_str() == "aabaab"


def test_repair_no_pairs_left():
    # "ab" has no repeated pair: the start rule is just the text
    g = naive_repair(T("ab"))
    assert g.rules == {1: (Term(0), Term(1))}
    assert g.start == 1


def test_repair_run_counting():
    # aaaa: (a,a) counts floor(4/2)=2 non-overlapping occurrences
    g = naive_repair(T("aaaa"))
    assert expand_grammar(g).to_str() == "aaaa"
    assert g.rules[1] == (Term(0), Term(0))


def test_repair_trace_replay():
    rng = random.Random(7)
    for _ in range(40):
        t = random_text(rng, max_len=30, sigma=2)
        g = naive_repair(t)
        # rules 1..start-1 are the replaced pairs in creation order and the
        # start rule is the sequence left at the end; replaying the pair
        # substitutions on the text must reproduce that sequence
        seq: list = [Term(c) for c in t.symbols]
        for v in range(1, g.start):
            a, b = g.rules[v]
            out = []
            i = 0
            while i < len(seq):
                if i + 1 < len(seq) and seq[i] == a and seq[i + 1] == b:
                    out.append(Var(v))
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            seq = out
        assert tuple(seq) == g.rules[g.start]
        # the final string contains no pair twice (left-greedy, non-overlapping)
        counts: dict = {}
        i = 0
        while i + 1 < len(seq):
            p = (seq[i], seq[i + 1])
            if counts.get(p):
                i += 1
                continue
            # count non-overlapping occurrences of p
            c = 0
            j = 0
            while j + 1 < len(seq):
                if (seq[j], seq[j + 1]) == p:
                    c += 1
                    j += 2
                else:
                    j += 1
            counts[p] = c
            assert c < 2
            i += 1


def test_bisection_frozen():
    g = naive_bisection(T("aaaaaa"))
    assert g.rules == {
        1: (Term(0), Term(0)),
        2: (Var(1), Var(1)),
        3: (Var(2), Var(1)),
    }
    assert g.start == 3


def test_bisection_single_char():
    g = naive_bisection(T("b"))
    assert g.rules == {1: (Term(1),)}
    assert g.start == 1


def test_bisection_splits_at_power_of_two():
    # |x| = 6 splits 4+2; shared halves reuse variables
    g = naive_bisection(T("abobab"))
    assert expand_grammar(g).to_str() == "abobab"


def test_grammar_to_slp():
    g = AdmissibleGrammar({1: (Term(0), Term(1), Term(2))}, start=1)
    s = grammar_to_slp(g)
    assert expand_slp(s).to_str() == "abc"
    # left-associative binarization of a 3-item body adds one pair rule
    assert s.n == 5


def test_grammar_to_slp_numbering_with_shared_children():
    # variables fold in the order grammar_lengths completes them; the
    # numbering is part of the container output, so it is pinned
    g = AdmissibleGrammar({1: (Term(0), Term(1)), 2: (Var(1), Term(2), Var(1)),
                           3: (Term(1),), 4: (Var(2), Var(3), Var(1), Var(2))},
                          start=4)
    s = grammar_to_slp(g)
    assert s.rules == (Term(0), Term(1), (1, 2), Term(2), (3, 4), (5, 3),
                       (6, 2), (7, 3), (8, 6))
    assert expand_slp(s).to_str() == "abcabbababcab"


@pytest.mark.parametrize("rules, code", [
    ({1: (Var(2),), 2: (Var(1),)}, "cyclic-grammar"),
    ({1: (Var(7),)}, "undefined-variable"),
])
def test_grammar_to_slp_rejects_broken_grammar(rules, code):
    with pytest.raises(InvalidInputError) as ei:
        grammar_to_slp(AdmissibleGrammar(rules, start=1))
    assert ei.value.code == code


def test_grammar_to_slp_preserves_long_random():
    rng = random.Random(11)
    for _ in range(30):
        t = random_text(rng, max_len=60, sigma=3)
        g = naive_repair(t)
        s = grammar_to_slp(g)
        assert expand_slp(s) == t
        assert s.length == len(t)


def test_self_ref_never_longer():
    rng = random.Random(13)
    for _ in range(60):
        t = random_text(rng, max_len=50, sigma=2)
        plain = naive_lz77(t)
        self_ref = naive_lz77(t, self_referential=True)
        assert len(self_ref.factors) <= len(plain.factors)
        assert expand_lz77(plain) == t
        assert expand_lz77(self_ref) == t


def test_codecs_invert_exhaustively():
    # every binary string up to length 9 survives a round trip in all codecs
    for n in range(1, 10):
        for bits in range(1 << n):
            t = Text(tuple((bits >> i) & 1 for i in range(n)))
            assert expand_lz77(naive_lz77(t)) == t
            assert expand_lz77(naive_lz77(t, self_referential=True)) == t
            assert expand_lz78(naive_lz78(t)) == t
            assert expand_grammar(naive_repair(t)) == t
            assert expand_grammar(naive_bisection(t)) == t


def test_ncd_values():
    assert ncd(26, 17, 17) == pytest.approx(0.5294117647058824)
    assert ncd(10, 10, 10) == 0.0
    with pytest.raises(InvalidInputError) as ei:
        ncd(0, 3, 4)
    assert ei.value.code == "zero-size-input"


def test_ncd_bytes_self_vs_other():
    x = b"the quick brown fox jumps over the lazy dog" * 8
    y = bytes(random.Random(5).randrange(256) for _ in range(len(x)))
    assert ncd_bytes(x, x) < ncd_bytes(x, y)
    assert 0.0 <= ncd_bytes(x, x) <= 1.1


def test_compressed_size():
    assert compressed_size(T("aabaab"), "lz78", 2) == 5
    assert compressed_size(T("abab"), "rle", 2) == 4
    assert compressed_size(T("abab"), "lz77", 2) == 3
    with pytest.raises(ValueError):
        compressed_size(T("ab"), "zip", 2)


def test_rle_round_trip_random():
    rng = random.Random(3)
    for _ in range(50):
        t = random_text(rng, max_len=80, sigma=4)
        r = rle_encode(t)
        assert all(e >= 1 for _, e in r.runs)
        assert all(a[0] != b[0] for a, b in zip(r.runs, r.runs[1:]))
        assert r.length == len(t)
