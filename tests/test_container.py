"""Wire format: serialize/parse round trips and validation codes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crx import (
    AdmissibleGrammar,
    CompressedContainer,
    ContainerFormatError,
    EmptyInputError,
    InvalidInputError,
    Literal,
    Lz77Factorization,
    Lz78Factorization,
    Reference,
    RleString,
    Term,
    Var,
    make_grammar_container,
    make_lz77_container,
    make_lz78_container,
    make_rle_container,
    make_slp_container,
    parse,
    rle_as_slp,
    serialize,
    validate,
)
from helpers import (
    VALIDATE_FAULTS,
    fibonacci_slp,
    random_runs,
    random_slp,
    sample_slp,
)


def round_trip(c: CompressedContainer) -> CompressedContainer:
    wire = serialize(c)
    assert wire.endswith("\n")
    back = parse(wire)
    assert serialize(back) == wire
    return back


def test_rle_wire():
    c = make_rle_container(RleString(((0, 1), (1, 2), (0, 3))), 256)
    wire = serialize(c)
    assert wire == "CRX1 rle 256 6\n0 1\n1 2\n0 3\n"
    back = round_trip(c)
    assert back == c
    assert validate(back) == 6


def test_lz77_wire_selfref_flag():
    f = Lz77Factorization((Literal(0), Reference(1, 7)), self_referential=True)
    c = make_lz77_container(f, 2)
    wire = serialize(c)
    assert wire.splitlines()[0] == "CRX1 lz77 2 8 selfref"
    assert wire.splitlines()[1:] == ["L 0", "R 1 7"]
    back = round_trip(c)
    assert back.payload.self_referential
    assert validate(back) == 8


def test_lz77_wire_non_selfref():
    f = Lz77Factorization((Literal(0), Literal(1), Reference(1, 2)),
                          self_referential=False)
    c = make_lz77_container(f, 2)
    assert serialize(c).splitlines()[0] == "CRX1 lz77 2 4"
    assert not round_trip(c).payload.self_referential


def test_lz78_wire():
    f = Lz78Factorization((1, 1, 2, 4, 3, 5, 5, 4), alphabet_size=2)
    c = make_lz78_container(f)
    assert c.length == 13
    wire = serialize(c)
    assert wire.splitlines()[0] == "CRX1 lz78 2 13"
    assert wire.splitlines()[1:] == ["1", "1", "2", "4", "3", "5", "5", "4"]
    assert validate(round_trip(c)) == 13


def test_grammar_wire_sorted_rules():
    g = AdmissibleGrammar({1: (Term(0),), 2: (Var(1), Term(1), Var(1))}, start=2)
    c = make_grammar_container(g, 2)
    wire = serialize(c)
    assert wire == "CRX1 grammar 2 3\n1 -> t0\n2 -> v1 t1 v1\n"
    assert validate(round_trip(c)) == 3


def test_grammar_container_canonicalizes_start():
    g = AdmissibleGrammar({3: (Term(0),), 1: (Var(3), Term(1))}, start=1)
    c = make_grammar_container(g, 2)
    assert c.payload.start == max(c.payload.rules)
    assert validate(c) == 2


def test_slp_wire_and_to_slp():
    c = make_slp_container(sample_slp(), 2)
    assert c.format == "slp"
    assert c.length == 13
    back = round_trip(c)
    assert validate(back) == 13
    assert back.payload == sample_slp()
    assert back.payload.n == 7
    assert back.payload.length == 13


@st.composite
def programs(draw):
    """A random program, a Fibonacci program or an rle_as_slp program."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    family = draw(st.sampled_from(("random", "fibonacci", "runs")))
    if family == "random":
        return random_slp(rng, max_extra=30, sigma=3)
    if family == "fibonacci":
        return fibonacci_slp(rng.randint(3, 25))
    return rle_as_slp(RleString(random_runs(rng, max_runs=20, max_exp=1000)))


@settings(max_examples=150, deadline=None)
@given(programs(), st.integers(3, 300))
def test_slp_container_round_trip(s, sigma):
    # the program comes back as it went out, and the wire as it was read
    wire = serialize(make_slp_container(s, sigma))
    back = parse(wire)
    assert back.payload == s
    assert back.payload.lengths == s.lengths
    assert serialize(back) == wire


def test_payload_size():
    assert make_rle_container(RleString(((0, 2), (1, 1))), 2).payload_size() == 2
    f = Lz77Factorization((Literal(0), Reference(1, 3)), self_referential=True)
    assert make_lz77_container(f, 2).payload_size() == 2
    assert make_lz78_container(
        Lz78Factorization((1, 2), alphabet_size=1)).payload_size() == 2
    assert make_slp_container(sample_slp(), 2).payload_size() == 12


@pytest.mark.parametrize("bad", [
    "",
    "NOPE rle 2 3\n0 3\n",
    "CRX1 rle 2\n",
    "CRX1 zip 2 3\n",
    "CRX1 rle 2 3 selfref\n0 3\n",
    "CRX1 lz77 2 3 wrong\nL 0\n",
    "CRX1 rle 2 x\n",
    "CRX1 rle 2 3\n0\n",
    "CRX1 rle 2 3\n0 1 2\n",
    "CRX1 rle 2 3\n0 \u00b3\n",
    "CRX1 rle 2 3\n0 " + "9" * 5000 + "\n",
    "CRX1 lz77 2 3\nQ 0\n",
    "CRX1 lz77 2 3\nL 0 5\n",
    "CRX1 lz78 2 3\nnope\n",
    "CRX1 grammar 2 3\n1 t0\n",
    "CRX1 grammar 2 3\n1 -> x0\n",
    "CRX1 grammar 2 3\n1 -> t0\n1 -> t1\n",
    "CRX1 grammar 2 3\n",
])
def test_parse_rejects(bad):
    with pytest.raises(ContainerFormatError):
        parse(bad)


def _raised(c: str | CompressedContainer) -> tuple[str, str]:
    # a wire is parsed inside the check: parse raises on slp shape faults
    with pytest.raises(InvalidInputError) as ei:
        validate(parse(c) if isinstance(c, str) else c)
    return ei.value.code, ei.value.location


@pytest.mark.parametrize("wire,code,location", [
    pytest.param(*row, id=f"{row[0]}-{row[1]}") for row in VALIDATE_FAULTS])
def test_validate_codes(wire, code, location):
    assert _raised(wire) == (code, location)


@pytest.mark.parametrize("wire,code,location", [
    ("CRX1 rle 2 3\n0 0\n0 3\n", "zero-exponent", "run 1"),
    ("CRX1 rle 2 4\n0 2\n0 2\n", "adjacent-equal-runs", "run 2"),
    ("CRX1 lz77 2 2\nL 0\nR 0 1\n", "bad-reference", "factor 2"),
    ("CRX1 lz77 2 2\nL 0\nR 1 0\n", "bad-reference", "factor 2"),
    ("CRX1 lz77 2 3\nL 0\nR 2 2\n", "dangling-reference", "factor 2"),
    ("CRX1 lz77 2 3\nL 0\nR 1 2\n", "dangling-reference", "factor 2"),
])
def test_parse_rejects_payload_its_type_refuses(wire, code, location):
    with pytest.raises(InvalidInputError) as ei:
        parse(wire)
    assert (ei.value.code, ei.value.location) == (code, location)


def test_validate_ok_reports_length():
    assert validate(parse("CRX1 rle 2 5\n0 2\n1 3\n")) == 5


def test_validate_empty_rule_direct():
    # the parser cannot produce an empty right-hand side, so build one by hand
    g = AdmissibleGrammar({1: ()}, start=1)
    assert _raised(CompressedContainer("grammar", 2, 0, g)) == ("empty-rule", "rule 1")


def test_grammar_with_no_rules_refused():
    # only a library caller can build it: parse refuses a file with no rules
    g = AdmissibleGrammar({}, 0)
    with pytest.raises(EmptyInputError, match="no rules"):
        make_grammar_container(g, 2)
    with pytest.raises(EmptyInputError, match="no rules"):
        validate(CompressedContainer("grammar", 2, 0, g))


def test_validate_bad_start_direct():
    g = AdmissibleGrammar({1: (Term(0),), 2: (Var(1), Var(1))}, start=1)
    assert _raised(CompressedContainer("grammar", 2, 1, g)) == ("bad-start", "header")
