"""Core value types and the plain expanders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crx import (
    AdmissibleGrammar,
    BudgetExceededError,
    EmptyInputError,
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
    expand_grammar,
    expand_lz77,
    expand_lz78,
    expand_rle,
    expand_slp,
    parse,
    rle_encode,
    rle_to_lz77,
    rle_to_lz78,
    slp_to_rle,
    validate,
)
from crx.model import canonical_grammar, grammar_lengths, lz78_factor_lengths
from helpers import T, sample_slp, power_slp


def test_text_round_trips():
    t = T("abbaaacaa")
    assert t.to_str() == "abbaaacaa"
    assert len(t) == 9
    assert t.sub(2, 4).to_str() == "bba"
    assert Text.from_bytes(b"xyz").symbols == (120, 121, 122)


def test_text_char_is_one_based():
    t = T("abc")
    assert [t.char(i) for i in (1, 2, 3)] == list(t.symbols)
    with pytest.raises(IndexError):
        t.char(0)
    with pytest.raises(IndexError):
        t.char(4)


def test_expand_rle():
    r = RleString(((0, 2), (1, 1), (0, 3)))
    assert r.length == 6
    assert expand_rle(r).to_str() == "aabaaa"


def _raised_location(build, runs):
    with pytest.raises(InvalidInputError) as ei:
        build(runs)
    return ei.value.code, ei.value.location


def _container_wire(runs):
    return "CRX1 rle 2 5\n" + "".join(f"{sym} {exp}\n" for sym, exp in runs)


@pytest.mark.parametrize("build", [
    lambda runs: expand_rle(RleString(runs)),
    lambda runs: rle_to_lz77(RleString(runs)),
    lambda runs: validate(parse(_container_wire(runs))),
], ids=["expand_rle", "rle_to_lz77", "validate"])
def test_zero_exponent_location_is_the_run_index(build):
    # every route to an entry point builds an RleString, which names the
    # run by its 1-based index; a container file is refused by parse
    assert _raised_location(build, ((0, 2), (1, 0), (0, 3))) == ("zero-exponent", "run 2")


def test_negative_symbol_codes_are_refused():
    # LZ78 numbers symbol c as entry c + 1, which is no entry for c = -1:
    # rle_to_lz78 would give ids that expand_lz78 refuses, so neither
    # kind of program holds a negative code, and each names the first one
    with pytest.raises(InvalidInputError) as ei:
        rle_to_lz78(RleString(((-1, 1), (0, 1), (-1, 2))))
    assert (ei.value.code, ei.value.location) == ("symbol-out-of-range", "run 1")
    with pytest.raises(InvalidInputError) as ei:
        Slp((Term(0), Term(-1), (1, 2), Term(-2)))
    assert (ei.value.code, ei.value.location) == ("symbol-out-of-range", "rule 2")
    # nor does a text or an LZ77 literal, so no naive codec gets one
    with pytest.raises(InvalidInputError) as ei:
        Text((0, 1, -1, 0, -1))
    assert (ei.value.code, ei.value.location) == ("symbol-out-of-range", "position 3")
    with pytest.raises(InvalidInputError) as ei:
        Lz77Factorization((Literal(0), Reference(1, 1), Literal(-1), Literal(-2)), False)
    assert (ei.value.code, ei.value.location) == ("symbol-out-of-range", "factor 3")


def _brute_run_fault(runs):
    for i, (sym, exp) in enumerate(runs):
        if exp < 1:
            return "zero-exponent", f"run {i + 1}"
        if sym < 0:
            return "symbol-out-of-range", f"run {i + 1}"
        if i and runs[i - 1][0] == sym:
            return "adjacent-equal-runs", f"run {i + 1}"
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-1, 3), st.integers(-2, 6)), max_size=8))
def test_rle_string_rejects_exactly_the_runs_that_are_not_maximal(runs):
    runs = tuple(runs)
    fault = _brute_run_fault(runs)
    if fault is not None:
        assert _raised_location(RleString, runs) == fault
    else:
        assert len(expand_rle(RleString(runs))) == sum(exp for _, exp in runs)


def _brute_lz77_decode(factors, self_referential):
    """The decoded symbols, or the (code, location) of the first factor
    that is a negative literal or cannot be copied one symbol at a time
    from what precedes it."""
    out = []
    for i, f in enumerate(factors, start=1):
        if isinstance(f, Literal):
            if f.symbol < 0:
                return "symbol-out-of-range", f"factor {i}"
            out.append(f.symbol)
            continue
        if f.src < 1 or f.length < 1:
            return "bad-reference", f"factor {i}"
        start = len(out)
        for t in range(f.length):
            read = f.src - 1 + t
            if read >= (len(out) if self_referential else start):
                return "dangling-reference", f"factor {i}"
            out.append(out[read])
    return out


lz77_factor_lists = st.lists(st.one_of(
    st.builds(Literal, st.integers(-1, 3)),
    st.builds(Reference, st.integers(-1, 8), st.integers(-1, 8))), max_size=8)


@settings(max_examples=300, deadline=None)
@given(lz77_factor_lists, st.booleans())
def test_lz77_factorization_rejects_exactly_what_cannot_decode(factors, self_referential):
    factors = tuple(factors)
    decoded = _brute_lz77_decode(factors, self_referential)
    if isinstance(decoded, tuple):
        with pytest.raises(InvalidInputError) as ei:
            Lz77Factorization(factors, self_referential)
        assert (ei.value.code, ei.value.location) == decoded
    else:
        f = Lz77Factorization(factors, self_referential)
        assert list(expand_lz77(f).symbols) == decoded


def test_expand_rle_budget():
    r = RleString(((0, 10**9),))
    with pytest.raises(BudgetExceededError) as ei:
        expand_rle(r, limit=100)
    assert ei.value.needed == 10**9
    assert ei.value.limit == 100


def test_expand_lz77_non_self():
    f = Lz77Factorization(
        (Literal(0), Literal(1), Reference(1, 2), Reference(2, 3)),
        self_referential=False,
    )
    assert expand_lz77(f).to_str() == "ababbab"


def test_expand_lz77_self_referential():
    f = Lz77Factorization((Literal(0), Reference(1, 7)), self_referential=True)
    assert expand_lz77(f).to_str() == "a" * 8


def test_expand_lz78_basic():
    # seeds for sigma=2 are ids 1,2; entry ids start at 3
    f = Lz78Factorization((1, 1, 2, 4, 3, 5, 5, 4), alphabet_size=2)
    assert expand_lz78(f).to_str() == "aababaababaab"


def test_expand_lz78_self_extending():
    # id 2 names the entry being built: KwK case
    f = Lz78Factorization((1, 2), alphabet_size=1)
    assert expand_lz78(f).to_str() == "aaa"


def test_lz78_factor_lengths_errors():
    with pytest.raises(InvalidInputError) as ei:
        lz78_factor_lengths(Lz78Factorization((5,), alphabet_size=2))
    assert ei.value.code == "dangling-reference"
    with pytest.raises(InvalidInputError) as ei:
        lz78_factor_lengths(Lz78Factorization((0,), alphabet_size=2))
    assert ei.value.code == "dangling-reference"


def test_expand_grammar():
    g = AdmissibleGrammar({1: (Term(0),), 2: (Var(1), Term(1), Var(1))}, start=2)
    assert expand_grammar(g).to_str() == "aba"
    assert g.size == 4


def test_grammar_lengths_children_first():
    # variable 5 is unreachable; 1 is shared by 2 and 4
    g = AdmissibleGrammar({1: (Term(0), Term(1)), 2: (Var(1), Term(2), Var(1)),
                           3: (Term(1),), 4: (Var(2), Var(3), Var(1), Var(2)),
                           5: (Var(4),)}, start=4)
    lengths = grammar_lengths(g)
    assert lengths == {1: 2, 2: 5, 3: 1, 4: 13}
    assert list(lengths) == [1, 2, 3, 4]


def test_grammar_lengths_cycle():
    g = AdmissibleGrammar({1: (Var(2),), 2: (Var(1),)}, start=1)
    with pytest.raises(InvalidInputError) as ei:
        grammar_lengths(g)
    assert ei.value.code == "cyclic-grammar"


def test_grammar_lengths_undefined_var():
    g = AdmissibleGrammar({1: (Var(7),)}, start=1)
    with pytest.raises(InvalidInputError) as ei:
        grammar_lengths(g)
    assert ei.value.code == "undefined-variable"


def test_canonical_grammar_renumbers():
    g = AdmissibleGrammar({5: (Term(0), Var(9)), 9: (Term(1),)}, start=5)
    c = canonical_grammar(g)
    assert sorted(c.rules) == [1, 2]
    assert c.start == 2
    assert expand_grammar(c).to_str() == "ab"


def test_canonical_grammar_rejects_unreachable():
    g = AdmissibleGrammar(
        {5: (Term(0), Var(9)), 9: (Term(1),), 3: (Term(2), Term(2))},
        start=5,
    )
    with pytest.raises(InvalidInputError) as ei:
        canonical_grammar(g)
    assert ei.value.code == "unreachable-variable"


def test_slp_build_and_length():
    s = power_slp(4)
    assert s.n == 5
    assert s.length == 16
    assert expand_slp(s).to_str() == "a" * 16


def test_slp_forward_reference_rejected():
    with pytest.raises(InvalidInputError) as ei:
        Slp.build((Term(0), (1, 3), (1, 1)))
    assert ei.value.code == "forward-reference-in-slp"


def test_slp_build_rejects_self_reference():
    s = sample_slp()
    with pytest.raises(InvalidInputError) as ei:
        Slp.build(s.rules + ((1, s.n + 1),))  # refers to itself
    assert (ei.value.code, ei.value.location) == ("forward-reference-in-slp",
                                                  f"rule {s.n + 1}")


def test_slp_empty_rejected():
    with pytest.raises(EmptyInputError, match="cannot build a program"):
        Slp.build(())


def test_slp_constructor_refuses_empty_program():
    # the check lives in the constructor, so Slp.build cannot be bypassed
    with pytest.raises(EmptyInputError, match="cannot build a program"):
        Slp(())


def test_slp_constructor_refuses_forward_reference():
    # the constructor checks the references, so no program reaches a
    # conversion with one
    with pytest.raises(InvalidInputError) as ei:
        Slp((Term(0), (1, 5)))
    assert (ei.value.code, ei.value.location) == ("forward-reference-in-slp", "rule 2")


def test_slp_constructor_keeps_rules_as_a_tuple():
    # a list of rules makes the same program as the tuple, and a hashable one
    s = Slp([Term(0), (1, 1)])
    assert isinstance(s.rules, tuple)
    assert s == Slp((Term(0), (1, 1))) == Slp.build([Term(0), (1, 1)])
    assert hash(s) == hash(Slp((Term(0), (1, 1))))
    assert len({s, Slp((Term(0), (1, 1))), Slp(iter([Term(0)]))}) == 2
    with pytest.raises(EmptyInputError):
        Slp(iter(()))


def test_slp_constructor_derives_lengths():
    # lengths are derived, never given, so none can be wrong
    with pytest.raises(TypeError):
        Slp((Term(0), (1, 1)), (1, 7))
    s = Slp((Term(0), (1, 1)))
    assert s.lengths == (1, 2)
    assert slp_to_rle(s).runs == ((0, 2),)


def test_expand_slp_budget():
    s = power_slp(30)
    assert s.length == 2**30
    with pytest.raises(BudgetExceededError):
        expand_slp(s, limit=2**20)


def test_empty_text_rle_encode():
    assert rle_encode(T("")).runs == ()
    assert expand_rle(RleString(())).to_str() == ""


def test_rle_encode_frozen():
    assert rle_encode(T("abbaaacaa")).runs == (
        (0, 1), (1, 2), (0, 3), (2, 1), (0, 2),
    )
