"""Wire format: serialize/parse round trips and validation codes."""

import gc
import random
import tracemalloc

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
    Text,
    Var,
    make_grammar_container,
    make_lz77_container,
    make_lz78_container,
    make_rle_container,
    make_slp_container,
    naive_bisection,
    naive_lz77,
    naive_lz78,
    naive_repair,
    parse,
    rle_as_slp,
    rle_encode,
    rle_to_bisection,
    rle_to_repair,
    serialize,
    slp_to_bisection,
    validate,
)
from helpers import (
    VALIDATE_FAULTS,
    fibonacci_slp,
    random_runs,
    random_slp,
    random_text,
    reference_parse,
    sample_slp,
    short_runs,
    slp_of,
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


def test_grammar_parse_shares_equal_items():
    # one item per token text and parse: a wide grammar file builds each
    # Term and Var once, however many rules name it
    g = parse("CRX1 grammar 2 5\n1 -> t0\n2 -> v1 t1 v1\n3 -> t1 v2 v1\n").payload
    assert g.rules == {1: (Term(0),), 2: (Var(1), Term(1), Var(1)), 3: (Term(1), Var(2), Var(1))}
    assert g.rules[2][0] is g.rules[2][2] is g.rules[3][2]
    assert g.rules[2][1] is g.rules[3][0]


def test_grammar_container_canonicalizes_start():
    g = AdmissibleGrammar({3: (Term(0),), 1: (Var(3), Term(1))}, start=1)
    c = make_grammar_container(g, 2)
    assert c.payload.start == max(c.payload.rules)
    assert validate(c) == 2


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=60))
def test_emitted_grammars_need_no_renumbering(symbols):
    # the CLI writes an emitted grammar under its source's header with no
    # canonical_grammar pass, so every emitter numbers its start highest
    text = Text(tuple(symbols))
    runs = rle_encode(text)
    for g in (rle_to_repair(runs), rle_to_bisection(runs), slp_to_bisection(slp_of(text)),
              naive_repair(text), naive_bisection(text)):
        assert g.start == max(g.rules)
        assert make_grammar_container(g, 3).payload is g


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


# each wire parse refuses, with the message it raises
PARSE_FAULTS = {
    "": "empty container",
    "NOPE rle 2 3\n0 3\n": "bad header 'NOPE rle 2 3'",
    "CRX1 rle 2\n": "bad header 'CRX1 rle 2'",
    "CRX1 zip 2 3\n": "unknown format 'zip'",
    "CRX1 rle 2 3 selfref\n0 3\n": "bad header 'CRX1 rle 2 3 selfref'",
    "CRX1 lz77 2 3 wrong\nL 0\n": "bad header 'CRX1 lz77 2 3 wrong'",
    "CRX1 rle 2 x\n": "header: expected integer, got 'x'",
    "CRX1 rle 2 3\n0\n": "line 2: bad run '0'",
    "CRX1 rle 2 3\n0 1 2\n": "line 2: bad run '0 1 2'",
    "CRX1 rle 2 3\n0 \u00b3\n": "line 2: expected integer, got '\u00b3'",
    "CRX1 rle 2 3\n0 " + "9" * 5000 + "\n": "line 2: integer has too many digits",
    "CRX1 lz77 2 3\nQ 0\n": "line 2: bad factor 'Q 0'",
    "CRX1 lz77 2 3\nL 0 5\n": "line 2: bad factor 'L 0 5'",
    "CRX1 lz78 2 3\nnope\n": "line 2: expected integer, got 'nope'",
    "CRX1 grammar 2 3\n1 t0\n": "line 2: bad rule '1 t0'",
    "CRX1 grammar 2 3\n1 -> x0\n": "line 2: bad item 'x0'",
    "CRX1 grammar 2 3\n1 -> t0\n1 -> t1\n": "line 3: duplicate rule for 1",
    "CRX1 grammar 2 3\n": "grammar container has no rules",
    # a blank line is a line of its own, and "\r" stays in its token
    "CRX1 rle 2 3\n0 1\n\n1 2\n": "line 3: bad run ''",
    "CRX1 rle 2 3\n0 1\r\n1 2\n": "line 2: expected integer, got '1\\r'",
    # the first fault in line order wins, a duplicate as much as a syntax
    # fault, and a duplicate is found before its line's items are read
    "CRX1 slp 2 3\n1 -> t0\n1 -> t1\n2 -> x0\n": "line 3: duplicate rule for 1",
    "CRX1 slp 2 3\n1 -> t0\n1 -> x0\n": "line 3: duplicate rule for 1",
    "CRX1 slp 2 3\n1 -> t0\n2 -> v1 t1\n3 -> x\n": "line 4: bad item 'x'",
}



@pytest.mark.parametrize("bad", list(PARSE_FAULTS))
def test_parse_rejects(bad):
    with pytest.raises(ContainerFormatError) as ei:
        parse(bad)
    assert str(ei.value) == PARSE_FAULTS[bad]


def _long_rle_wire(fault: str | None = None, at: int = 0) -> str:
    # 6,000 short runs; the fault, if any, replaces body line `at` (the
    # body starts on line 2), far past the first chunk the bulk read takes
    lines = serialize(make_rle_container(short_runs(6000, 6000, 3), 4)).split("\n")
    if fault is not None:
        lines[at - 1] = fault
    return "\n".join(lines)


@pytest.mark.parametrize("fault,message", [
    ("0 1 2", "line 5000: bad run '0 1 2'"),
    ("0 " + "9" * 5000, "line 5000: integer has too many digits"),
    ("", "line 5000: bad run ''"),
])
def test_parse_names_a_late_fault_in_a_long_rle_body(fault, message):
    # the bulk read hands the chunk that holds the fault to the per-line
    # checks, which name the same line and fault as a line loop does
    wire = _long_rle_wire(fault, 5000)
    with pytest.raises(ContainerFormatError) as ei:
        parse(wire)
    assert str(ei.value) == message
    assert _outcome(parse, wire) == _outcome(reference_parse, wire)


def test_long_rle_body_reads_as_its_lines():
    wire = _long_rle_wire()
    assert parse(wire) == reference_parse(wire)
    assert parse(wire.rstrip("\n")) == reference_parse(wire)  # no last newline


@pytest.mark.parametrize("wire,same_as", [
    # the last line may lack its newline
    ("CRX1 rle 2 3\n0 1\n1 2", "CRX1 rle 2 3\n0 1\n1 2\n"),
    ("CRX1 slp 2 2\n1 -> t0\n2 -> v1 v1", "CRX1 slp 2 2\n1 -> t0\n2 -> v1 v1\n"),
    # the rule lines of a program may come in any order
    ("CRX1 slp 2 5\n4 -> v3 v2\n1 -> t0\n3 -> v1 v2\n2 -> t1\n",
     "CRX1 slp 2 5\n1 -> t0\n2 -> t1\n3 -> v1 v2\n4 -> v3 v2\n"),
    ("CRX1 slp 2 5\n1 -> t0\n4 -> v3 v2\n2 -> t1\n3 -> v1 v2\n",
     "CRX1 slp 2 5\n1 -> t0\n2 -> t1\n3 -> v1 v2\n4 -> v3 v2\n"),
])
def test_parse_accepts(wire, same_as):
    assert parse(wire) == parse(same_as)
    assert serialize(parse(wire)) == same_as


def _lines_of(c: CompressedContainer) -> list[str]:
    return serialize(c).split("\n")[:-1]


@st.composite
def containers(draw):
    """The lines of a valid container of any of the five formats."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    fmt = draw(st.sampled_from(("rle", "lz77", "lz78", "grammar", "slp")))
    text = random_text(rng, max_len=30, sigma=3)
    if fmt == "rle":
        return _lines_of(make_rle_container(rle_encode(text), 3))
    if fmt == "lz77":
        return _lines_of(make_lz77_container(naive_lz77(text, rng.random() < 0.5), 3))
    if fmt == "lz78":
        return _lines_of(make_lz78_container(naive_lz78(text, 3)))
    if fmt == "grammar":
        codec = naive_repair if rng.random() < 0.5 else naive_bisection
        return _lines_of(make_grammar_container(codec(text), 3))
    return _lines_of(make_slp_container(draw(programs()), 3))


@st.composite
def mutated_wires(draw):
    """A valid wire, or one with a few of its lines mutated."""
    lines = draw(containers())
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        kind = draw(st.sampled_from((
            "truncate", "double-space", "sign", "digits", "permute", "duplicate",
            "drop", "blank", "carriage-return", "extra-token")))
        if kind == "truncate":
            lines[i] = line[:draw(st.integers(0, len(line)))]
        elif kind == "double-space" and " " in line:
            k = draw(st.sampled_from([j for j, ch in enumerate(line) if ch == " "]))
            lines[i] = line[:k] + " " + line[k:]
        elif kind == "sign":
            k = draw(st.integers(0, len(line)))
            lines[i] = line[:k] + draw(st.sampled_from("-+")) + line[k:]
        elif kind == "digits":
            tokens = line.split(" ")
            k = draw(st.integers(0, len(tokens) - 1))
            tokens[k] = tokens[k][:1] + draw(st.sampled_from(("1" * 5000, "0" * 5000)))
            lines[i] = " ".join(tokens)
        elif kind == "permute" and len(lines) > 2:
            body = lines[1:]
            lines[1:] = draw(st.permutations(body))
        elif kind == "duplicate":
            lines.insert(draw(st.integers(1, len(lines))), line)
        elif kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "blank":
            lines.insert(draw(st.integers(1, len(lines))), "")
        elif kind == "carriage-return":
            lines[i] = line + "\r"
        elif kind == "extra-token":
            lines[i] = line + draw(st.sampled_from((" t0", " v1", " 1", " x")))
    wire = "\n".join(lines)
    return wire if draw(st.booleans()) else wire + "\n"


def _outcome(read, wire: str):
    try:
        return "ok", read(wire)
    except (ContainerFormatError, InvalidInputError, EmptyInputError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "code", None),
                getattr(exc, "location", None))


@settings(max_examples=400, deadline=None)
@given(mutated_wires())
def test_parse_matches_line_loop_reference(wire):
    # the same payload, or the same exception with the same message, code
    # and location, as a loop that splits and checks every line
    assert _outcome(parse, wire) == _outcome(reference_parse, wire)


@settings(max_examples=100, deadline=None)
@given(containers())
def test_valid_wire_round_trips(lines):
    wire = "\n".join(lines) + "\n"
    assert serialize(parse(wire)) == wire


def test_slp_parse_peak_memory():
    # the rules go straight into the program: no grammar of Term and Var
    # objects is built first, and no pattern backtracks over the body
    rng = random.Random(2000)
    runs, prev = [], -1
    for _ in range(2000):
        sym = rng.choice([c for c in range(4) if c != prev])
        runs.append((sym, rng.randint(1, 8)))
        prev = sym
    wire = serialize(make_slp_container(rle_as_slp(RleString(tuple(runs))), 4))
    gc.collect()
    tracemalloc.start()
    try:
        c = parse(wire)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.payload.n > 6000
    assert peak < 1.5 * 2**20


def test_rle_parse_peak_memory():
    # the body is checked and read a chunk at a time, with a repeat that
    # keeps no backtracking state: a greedy pattern over the whole body
    # peaks near 16 MiB here, the runs themselves need about 2.5
    r = short_runs(40000, 40000, 3)
    wire = serialize(make_rle_container(r, 4))
    gc.collect()
    tracemalloc.start()
    try:
        c = parse(wire)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.payload == r
    assert peak < 4 * 2**20


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
