"""Command line driver: every subcommand through main() on temp files."""

import contextlib
import io
import os
import random
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crx import (
    AdmissibleGrammar,
    Lz77Factorization,
    Lz78Factorization,
    RleString,
    Slp,
    Term,
    Text,
    expand_slp,
    grammar_to_slp,
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
    serialize,
)
import crx.cli
import crx.codecs
import crx.container
import crx.from_slp
import crx.model
from crx.cli import TARGETS, build_parser, main
from helpers import (
    VALIDATE_FAULTS,
    fibonacci_slp,
    record_calls,
    sample_slp,
    short_runs,
)


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write(path, data: bytes):
    path.write_bytes(data)
    return str(path)


def test_encode_decode_round_trip_all_codecs(tmp_path, capsys):
    raw = write(tmp_path / "in.bin", b"abbaaacaa" * 3)
    for codec in ("rle", "lz77", "lz78", "repair", "bisection"):
        out = str(tmp_path / f"c.{codec}")
        back = str(tmp_path / f"d.{codec}")
        code, _, err = run(capsys, "encode", "--codec", codec, raw, out)
        assert code == 0, err
        code, _, err = run(capsys, "decode", out, back)
        assert code == 0, err
        assert (tmp_path / f"d.{codec}").read_bytes() == b"abbaaacaa" * 3


def test_encode_rle_wire(tmp_path, capsys):
    raw = write(tmp_path / "in.bin", b"abbaaacaa")
    out = tmp_path / "out.rle"
    code, _, _ = run(capsys, "encode", "--codec", "rle", raw, str(out))
    assert code == 0
    assert out.read_text() == (
        "CRX1 rle 256 9\n97 1\n98 2\n97 3\n99 1\n97 2\n")


def test_encode_lz78_byte_alphabet_ids(tmp_path, capsys):
    raw = write(tmp_path / "in.bin", b"abbaaacaa")
    out = tmp_path / "out.lz78"
    run(capsys, "encode", "--codec", "lz78", raw, str(out))
    c = parse(out.read_text())
    assert c.alphabet_size == 256
    assert c.payload.factor_ids == (98, 99, 99, 98, 260, 100, 260)


def test_encode_self_ref_flag(tmp_path, capsys):
    raw = write(tmp_path / "in.bin", b"a" * 64)
    out = tmp_path / "out.lz77"
    code, _, _ = run(capsys, "encode", "--codec", "lz77", "--self-ref",
                     raw, str(out))
    assert code == 0
    c = parse(out.read_text())
    assert c.payload.self_referential
    assert len(c.payload.factors) == 2


def test_convert_direct_rle_to_lz77(tmp_path, capsys):
    raw = write(tmp_path / "in.bin", b"aaabbaaa")
    r = str(tmp_path / "x.rle")
    z = str(tmp_path / "x.lz77")
    run(capsys, "encode", "--codec", "rle", raw, r)
    code, _, err = run(capsys, "convert", "--to", "lz77", r, z)
    assert code == 0, err
    c = parse((tmp_path / "x.lz77").read_text())
    assert c.format == "lz77"
    assert c.alphabet_size == 256
    assert c.length == 8
    back = str(tmp_path / "back.bin")
    run(capsys, "decode", z, back)
    assert (tmp_path / "back.bin").read_bytes() == b"aaabbaaa"


def test_convert_rle_to_slp_and_back(tmp_path, capsys):
    # directly (a zero budget shows nothing is expanded) and through a
    # grammar codec
    raw = write(tmp_path / "in.bin", b"aaabbaaa")
    r = str(tmp_path / "x.rle")
    g = str(tmp_path / "x.grammar")
    s = str(tmp_path / "x.slp")
    r2 = str(tmp_path / "x2.rle")
    run(capsys, "encode", "--codec", "rle", raw, r)
    code, _, err = run(capsys, "convert", "--to", "slp", "--max-output", "0", r, s)
    assert code == 0, err
    assert parse((tmp_path / "x.slp").read_text()).format == "slp"
    assert run(capsys, "convert", "--to", "rle", s, r2)[0] == 0
    assert (tmp_path / "x.rle").read_bytes() == (tmp_path / "x2.rle").read_bytes()
    code, out, _ = run(capsys, "verify", r, s)
    assert (code, out.strip()) == (0, "equal")
    assert run(capsys, "convert", "--to", "bisection", r, g)[0] == 0
    assert run(capsys, "convert", "--to", "slp", g, s)[0] == 0
    assert run(capsys, "convert", "--to", "rle", s, r2)[0] == 0
    assert (tmp_path / "x.rle").read_text() == (tmp_path / "x2.rle").read_text()


def test_convert_lz77_source_needs_via_expand(tmp_path, capsys):
    raw = write(tmp_path / "in.bin", b"abcabc")
    z = str(tmp_path / "x.lz77")
    r = str(tmp_path / "x.rle")
    s = str(tmp_path / "x.slp")
    run(capsys, "encode", "--codec", "lz77", raw, z)
    code, _, err = run(capsys, "convert", "--to", "rle", z, r)
    assert code == 2
    assert "--via-expand" in err
    code, _, err = run(capsys, "convert", "--to", "rle", "--via-expand", z, r)
    assert code == 0, err
    # slp too (see test_convert_via_expand_to_slp)
    code, _, err = run(capsys, "convert", "--to", "slp", z, s)
    assert code == 2
    assert "--via-expand" in err


def test_convert_via_expand_to_slp(tmp_path, capsys):
    # the bisection grammar of the decoded text, as a program
    raw = write(tmp_path / "in.bin", b"abcabc")
    z = str(tmp_path / "x.lz77")
    s = str(tmp_path / "x.slp")
    g = str(tmp_path / "x.grammar")
    s2 = str(tmp_path / "x2.slp")
    run(capsys, "encode", "--codec", "lz77", raw, z)
    code, _, err = run(capsys, "convert", "--to", "slp", "--via-expand", z, s)
    assert code == 0, err
    code, out, _ = run(capsys, "verify", z, s)
    assert (code, out.strip()) == (0, "equal")
    run(capsys, "encode", "--codec", "bisection", raw, g)
    run(capsys, "convert", "--to", "slp", g, s2)
    assert (tmp_path / "x.slp").read_bytes() == (tmp_path / "x2.slp").read_bytes()


def test_convert_lz78_relabels_to_container_alphabet(tmp_path, capsys):
    # a two-letter rle converted to lz78 keeps the byte alphabet, so entry
    # ids line up with encoding the raw bytes directly
    raw = write(tmp_path / "in.bin", b"aababaababaab")
    r = str(tmp_path / "x.rle")
    l_direct = str(tmp_path / "direct.lz78")
    l_conv = str(tmp_path / "conv.lz78")
    run(capsys, "encode", "--codec", "rle", raw, r)
    run(capsys, "encode", "--codec", "lz78", raw, l_direct)
    assert run(capsys, "convert", "--to", "lz78", r, l_conv)[0] == 0
    assert ((tmp_path / "direct.lz78").read_text()
            == (tmp_path / "conv.lz78").read_text())


def test_verify_equal_and_differ(tmp_path, capsys):
    a = tmp_path / "a.crx"
    b = tmp_path / "b.crx"
    c = tmp_path / "c.crx"
    a.write_text("CRX1 rle 256 8\n97 3\n98 2\n97 3\n")
    b.write_text("CRX1 rle 256 8\n97 3\n98 2\n97 3\n")
    code, out, _ = run(capsys, "verify", str(a), str(b))
    assert code == 0
    assert out.strip() == "equal"
    c.write_text("CRX1 rle 256 8\n97 3\n98 1\n97 4\n")
    code, out, _ = run(capsys, "verify", str(a), str(c))
    assert code == 1
    assert out.strip() == "differ 5"


def test_verify_giant_containers_without_expansion(tmp_path, capsys):
    p = 2**30
    a = tmp_path / "a.crx"
    b = tmp_path / "b.crx"
    a.write_text(f"CRX1 rle 256 {2 * p}\n97 {p}\n98 {p}\n")
    b.write_text(f"CRX1 rle 256 {2 * p}\n97 {p + 1}\n98 {p - 1}\n")
    code, out, _ = run(capsys, "verify", str(a), str(b))
    assert code == 1
    assert out.strip() == f"differ {p + 1}"


def test_bisection_of_giant_file_agrees_across_lanes(tmp_path, capsys):
    # 2^66 + 3 symbols: the run lane on the file's own runs and on the
    # runs of the program --to slp wrote gives the same grammar file, which
    # no expansion could check
    src = write(tmp_path / "big.rle",
                f"CRX1 rle 2 {2**66 + 3}\n0 {2**66}\n1 3\n".encode())
    direct, slp, via = (str(tmp_path / name) for name in ("direct", "big.slp", "via"))
    assert run(capsys, "convert", "--to", "bisection", src, direct)[0] == 0
    assert run(capsys, "convert", "--to", "slp", src, slp)[0] == 0
    assert run(capsys, "convert", "--to", "bisection", slp, via)[0] == 0
    with open(direct) as a, open(via) as b:
        got = a.read()
        assert got == b.read()
    assert got.startswith(f"CRX1 grammar 2 {2**66 + 3}\n1 -> t0 t0\n")


def test_verify_mixed_formats(tmp_path, capsys):
    raw = write(tmp_path / "in.bin", b"aababaababaab")
    r = str(tmp_path / "x.rle")
    g = str(tmp_path / "x.grammar")
    s = str(tmp_path / "x.slp")
    run(capsys, "encode", "--codec", "rle", raw, r)
    run(capsys, "convert", "--to", "bisection", r, g)
    run(capsys, "convert", "--to", "slp", g, s)
    code, out, _ = run(capsys, "verify", r, s)
    assert code == 0
    assert out.strip() == "equal"
    code, out, _ = run(capsys, "verify", r, g)
    assert code == 0
    assert out.strip() == "equal"


def test_verify_reads_both_files_before_expanding(tmp_path, capsys):
    # the lz77 file derives 100 symbols, past a budget of 10, yet the
    # second file's fault is what verify reports: both are read first
    big = write(tmp_path / "big.lz77", b"CRX1 lz77 256 100 selfref\nL 97\nR 1 99\n")
    bad = write(tmp_path / "bad.rle", b"CRX1 rle 256 3\n97 3 4\n")
    good = write(tmp_path / "good.rle", b"CRX1 rle 256 3\n97 3\n")
    assert run(capsys, "verify", "--max-output", "10", big, bad) == (
        1, "", "error: line 2: bad run '97 3 4'\n")
    assert run(capsys, "verify", "--max-output", "10", big, good)[:2] == (3, "")


def test_decode_budget_exit_code(tmp_path, capsys):
    a = tmp_path / "a.crx"
    a.write_text(f"CRX1 rle 256 {2**40}\n97 {2**40}\n")
    out = str(tmp_path / "out.bin")
    code, _, err = run(capsys, "decode", str(a), out)
    assert code == 3
    assert "budget" in err


def test_decode_budget_flag_and_env(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.crx"
    a.write_text("CRX1 rle 256 1000\n97 1000\n")
    out = str(tmp_path / "out.bin")
    code, _, _ = run(capsys, "decode", "--max-output", "100", str(a), out)
    assert code == 3
    monkeypatch.setenv("CRX_MAX_OUTPUT", "100")
    code, _, _ = run(capsys, "decode", str(a), out)
    assert code == 3
    # the flag wins over the environment
    code, _, _ = run(capsys, "decode", "--max-output", "2000", str(a), out)
    assert code == 0
    monkeypatch.setenv("CRX_MAX_OUTPUT", "badnumber")
    code, _, err = run(capsys, "decode", str(a), out)
    assert code == 1
    assert "not an integer: 'badnumber' at CRX_MAX_OUTPUT" in err
    # a command that never expands never reads the variable
    code, out_text, err = run(capsys, "info", str(a))
    assert code == 0, err
    assert out_text.startswith("format rle")


def test_negative_budget_is_invalid_input(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.crx"
    a.write_text("CRX1 rle 256 4\n97 4\n")
    out = str(tmp_path / "out.bin")
    code, _, err = run(capsys, "decode", "--max-output", "-1", str(a), out)
    assert code == 1
    assert "negative budget: -1 at --max-output" in err
    monkeypatch.setenv("CRX_MAX_OUTPUT", "-3")
    code, _, err = run(capsys, "decode", str(a), out)
    assert code == 1
    assert "negative budget: -3 at CRX_MAX_OUTPUT" in err
    # zero is a budget, not an error: it refuses any non-empty expansion
    code, _, _ = run(capsys, "decode", "--max-output", "0", str(a), out)
    assert code == 3


def test_program_with_too_many_runs_exits_3_at_once(tmp_path, capsys):
    # 549 bytes, 40 rules, a Fibonacci word of 78,176,339 runs: converting it
    # through its runs would hold gigabytes and walking them takes minutes,
    # so the run count, taken from the rules alone, refuses it before any
    # run is built
    k = 40
    n = [1, 1]
    for _ in range(k - 2):
        n.append(n[-1] + n[-2])
    wire = f"CRX1 slp 256 {n[-1]}\n1 -> t98\n2 -> t97\n" + "".join(
        f"{i} -> v{i - 1} v{i - 2}\n" for i in range(3, k + 1))
    src = write(tmp_path / "fib40.slp", wire.encode())
    out = str(tmp_path / "out")
    argvs = [("convert", "--to", to, src, out)
             for to in ("lz77", "rle", "lz78", "bisection", "repair")]
    argvs += [("convert", "--to", "lz77", "--self-ref", src, out),
              ("verify", src, src)]  # the walk would read every run of both
    for argv in argvs:
        start = time.perf_counter()
        code, stdout, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert (code, stdout) == (3, ""), argv
        # the line names the command's own work
        what = "verify" if argv[0] == "verify" else "conversion"
        assert err == f"error: {what} needs 78176339 runs, budget is 1048576\n"
    assert not (tmp_path / "out").exists()



def test_verify_against_an_lz77_file_finds_the_last_symbol(tmp_path, capsys):
    # an lz side decodes both texts; of 2^20 symbols they differ at the last
    n = 2**20
    z = write(tmp_path / "a.lz77", f"CRX1 lz77 256 {n} selfref\nL 97\nR 1 {n - 2}\nL 98\n".encode())
    r = write(tmp_path / "b.rle", f"CRX1 rle 256 {n}\n97 {n}\n".encode())
    assert run(capsys, "verify", z, r) == (1, f"differ {n}\n", "")
    assert run(capsys, "verify", r, z) == (1, f"differ {n}\n", "")


def _program_files(tmp_path) -> list[tuple[str, str]]:
    """Program files of four shapes, each with the rle file of its text: a
    Fibonacci word, a 400-run `rle_as_slp` chain, and a Re-Pair and a
    bisection grammar of one 2,000-symbol text."""
    rng = random.Random(39)
    text = Text(tuple(rng.choice((0, 0, 1, 2)) for _ in range(2000)))
    fib, chain = fibonacci_slp(20), rle_as_slp(short_runs(39, 400, 9))
    shapes = {"fib.slp": (make_slp_container(fib, 2), expand_slp(fib)),
              "chain.slp": (make_slp_container(chain, 4), expand_slp(chain)),
              "text.repair": (make_grammar_container(naive_repair(text), 3), text),
              "text.bisection": (make_grammar_container(naive_bisection(text), 3), text)}
    files = []
    for name, (c, t) in shapes.items():
        rle = make_rle_container(rle_encode(t), c.alphabet_size)
        files.append((write(tmp_path / name, serialize(c).encode()),
                      write(tmp_path / f"{name}.rle", serialize(rle).encode())))
    return files


# every direct target but slp, lz77 with and without --self-ref
RUN_LANE = [(to,) for to in ("rle", "lz77", "lz78", "repair", "bisection")] + [
    ("lz77", "--self-ref")]


def test_program_files_convert_as_their_rle_files(tmp_path, capsys):
    # a program reaches every target but slp through its runs, so it
    # writes the bytes its text's rle file converts to
    got, want = tmp_path / "got", tmp_path / "want"
    for src, rle in _program_files(tmp_path):
        for to, *flags in RUN_LANE:
            argv = ("convert", "--to", to, "--max-output", "0", *flags)
            assert run(capsys, *argv, src, str(got))[0] == 0, (src, to, flags)
            assert run(capsys, *argv, rle, str(want))[0] == 0, (rle, to, flags)
            assert got.read_bytes() == want.read_bytes(), (src, to, flags)


def test_program_files_convert_through_one_run_walk(tmp_path, capsys, monkeypatch):
    # slp and grammar files take one slp_to_rle to every target but slp:
    # never the split walk, its occurrence queries or its fingerprints
    def watch(name):
        modules = [m for m in (crx.cli, crx.from_slp) if hasattr(m, name)]
        return record_calls(monkeypatch, name, *modules)

    walks = watch("slp_to_rle")
    avoided = {name: watch(name)
               for name in ("slp_to_bisection", "occurrences", "Fingerprints")}
    out = str(tmp_path / "out")
    for src, _ in _program_files(tmp_path):
        for to, *flags in RUN_LANE:
            del walks[:]
            assert run(capsys, "convert", "--to", to, *flags, src, out)[0] == 0
            assert len(walks) == 1, (src, to, flags)
            assert all(calls == [] for calls in avoided.values()), (src, to, flags)

@pytest.mark.parametrize("flags", [(), ("--self-ref",)])
def test_rle_file_past_the_run_cap_exits_3_on_lz77(tmp_path, capsys, monkeypatch, flags):
    # the run lane's LZ77 loop is quadratic on short exponents, so an rle
    # file of more runs than the cap is refused before it starts; a small
    # cap stands in for 2^20
    monkeypatch.setattr(crx.cli, "MAX_RUNS", 8)

    def rle_file(m):
        runs = RleString(tuple((i % 2, 1 + i % 3) for i in range(m)))
        return write(tmp_path / f"{m}.rle", serialize(make_rle_container(runs, 2)).encode())

    at_cap, past_cap, out = rle_file(8), rle_file(9), str(tmp_path / "out")
    assert run(capsys, "convert", "--to", "lz77", *flags, at_cap, out)[0] == 0
    assert run(capsys, "verify", at_cap, out)[:2] == (0, "equal\n")
    os.remove(out)
    assert run(capsys, "convert", "--to", "lz77", *flags, past_cap, out) == (
        3, "", "error: conversion needs 9 runs, budget is 8\n")
    assert not os.path.exists(out)
    # the cap is LZ77's alone: every other target converts the 9 runs
    for to in ("rle", "lz78", "repair", "bisection", "slp"):
        assert run(capsys, "convert", "--to", to, past_cap, out)[0] == 0, to


@pytest.mark.parametrize("target", ["slp", "rle"])
def test_grammar_file_is_walked_once(tmp_path, capsys, monkeypatch, target):
    # validate walks the grammar, and grammar_to_slp numbers its rules in
    # that same walk's order, kept on the grammar; every module that binds
    # the walk is watched
    text = Text.from_str("abaababaabaababaababaabaababaabab" * 3)
    src = tmp_path / "a.grammar"
    src.write_text(serialize(make_grammar_container(naive_bisection(text), 2)))
    want = tmp_path / "want"
    assert run(capsys, "convert", "--to", target, "--via-expand", str(src), str(want))[0] == 0
    modules = [m for m in (crx.model, crx.container, crx.codecs)
               if hasattr(m, "grammar_lengths")]
    calls = record_calls(monkeypatch, "grammar_lengths", *modules)
    out = tmp_path / "out"
    code, _, err = run(capsys, "convert", "--to", target, str(src), str(out))
    assert code == 0, err
    assert len(calls) == 1
    assert out.read_text() == want.read_text()


def test_parser_is_built_once_and_left_as_it_was():
    # main reuses one parser, so a flag given to one call reaches no later one
    parser = build_parser()
    assert build_parser() is parser
    first = parser.parse_args(["convert", "--to", "lz77", "--self-ref", "a", "b"])
    second = parser.parse_args(["convert", "--to", "rle", "a", "b"])
    assert (first.target, first.self_ref) == ("lz77", True)
    assert (second.target, second.self_ref) == ("rle", False)


def test_invalid_container_exit_code(tmp_path, capsys):
    a = tmp_path / "a.crx"
    a.write_text("CRX1 rle 256 5\n97 2\n97 3\n")
    code, _, err = run(capsys, "decode", str(a), str(tmp_path / "o"))
    assert code == 1
    assert "adjacent-equal-runs" in err


@pytest.mark.parametrize("wire,code,location", VALIDATE_FAULTS)
def test_info_reports_validation_code_and_location(tmp_path, capsys, wire, code, location):
    # the line names the fault's own location, never the file path, and
    # main returns instead of raising, so no traceback reaches the user
    status, out, err = run(capsys, "info", write(tmp_path / "a.crx", wire.encode()))
    assert (status, out, err) == (1, "", f"error: {code} at {location}\n")


@pytest.mark.parametrize("data", [
    "CRX1 rle 256 3\n97 \u00b3\n".encode(),
    b"CRX1 rle 256 3\n97 3\xff\n",
])
def test_malformed_container_exit_code(tmp_path, capsys, data):
    code, _, err = run(capsys, "info", write(tmp_path / "a.crx", data))
    assert code == 1
    assert err.startswith("error: ")


def test_missing_file_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "info", str(tmp_path / "nope.crx"))
    assert code == 1


def test_info_rle(tmp_path, capsys):
    a = tmp_path / "a.crx"
    a.write_text("CRX1 rle 256 9\n97 1\n98 2\n97 3\n99 1\n97 2\n")
    code, out, _ = run(capsys, "info", str(a))
    assert code == 0
    assert out.splitlines() == [
        "format rle",
        "n 5",
        "N 9",
        "ratio 1.8000",
        "max-exponent 3",
    ]


def test_info_lz77(tmp_path, capsys):
    a = tmp_path / "a.crx"
    a.write_text("CRX1 lz77 256 8 selfref\nL 97\nR 1 7\n")
    code, out, _ = run(capsys, "info", str(a))
    assert code == 0
    lines = out.splitlines()
    assert "format lz77" in lines
    assert "self-ref true" in lines
    assert "literals 1" in lines
    assert "references 1" in lines


def test_info_slp(tmp_path, capsys):
    raw = write(tmp_path / "in.bin", b"aababaababaab")
    r = str(tmp_path / "x.rle")
    g = str(tmp_path / "x.grammar")
    s = tmp_path / "x.slp"
    run(capsys, "encode", "--codec", "rle", raw, r)
    run(capsys, "convert", "--to", "bisection", r, g)
    run(capsys, "convert", "--to", "slp", g, str(s))
    code, out, _ = run(capsys, "info", str(s))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "format slp"
    assert "N 13" in lines
    # a terminal rule counts 1 and a pair rule 2
    p = parse(s.read_text()).payload
    terms = sum(isinstance(rule, Term) for rule in p.rules)
    assert f"n {p.n}" in lines
    assert f"rhs-total {terms + 2 * (p.n - terms)}" in lines


@pytest.mark.parametrize("argv,builds", [
    (("convert", "--to", "rle", "a.slp", "out"), 1),
    (("info", "a.slp"), 1),
    (("decode", "a.slp", "out"), 1),
    (("verify", "a.slp", "b.slp"), 2),
    # an rle file is walked as its own runs, with no program built from them
    (("verify", "a.rle", "b.slp"), 1),
])
def test_slp_file_builds_its_program_once(tmp_path, capsys, monkeypatch, argv, builds):
    # the program parse builds is the one every later step uses
    monkeypatch.chdir(tmp_path)
    for name in ("a.slp", "b.slp"):
        (tmp_path / name).write_text(serialize(make_slp_container(sample_slp(), 2)))
    runs = rle_encode(expand_slp(sample_slp()))
    (tmp_path / "a.rle").write_text(serialize(make_rle_container(runs, 2)))
    calls = record_calls(monkeypatch, "build", Slp)
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert len(calls) == builds


def test_ncd_output(tmp_path, capsys):
    x = write(tmp_path / "x.bin", b"aababaababaab" * 40)
    y = write(tmp_path / "y.bin", b"zqzqzyzqzy" * 52)
    code, out, _ = run(capsys, "ncd", x, y)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("ncd ")
    val = float(lines[0].split()[1])
    assert 0.0 <= val <= 1.1
    parts = lines[1].split()
    assert parts[0] == "sizes"
    assert all(p.isdigit() for p in parts[1:])
    # identical inputs compress together almost as well as alone
    code, out, _ = run(capsys, "ncd", x, x)
    self_val = float(out.splitlines()[0].split()[1])
    assert self_val < val


def test_decode_rejects_wide_alphabet(tmp_path, capsys):
    a = tmp_path / "a.crx"
    a.write_text("CRX1 rle 300 2\n280 2\n")
    code, _, err = run(capsys, "decode", str(a), str(tmp_path / "o"))
    assert code == 1
    assert "byte" in err.lower() or "alphabet" in err.lower()


def test_convert_preserves_alphabet_size(tmp_path, capsys):
    a = tmp_path / "a.crx"
    a.write_text("CRX1 rle 7 6\n0 3\n1 3\n")
    out = tmp_path / "b.crx"
    code, _, err = run(capsys, "convert", "--to", "bisection", str(a), str(out))
    assert code == 0, err
    c = parse(out.read_text())
    assert c.alphabet_size == 7
    assert c.format == "grammar"


# the container each payload type is written in, less LZ78's, whose
# constructor reads the alphabet size off the factorization
MAKE = {RleString: make_rle_container, Lz77Factorization: make_lz77_container,
        AdmissibleGrammar: make_grammar_container, Slp: make_slp_container}

# the targets rle, program and grammar sources reach without expansion;
# lz77 runs with and without --self-ref
DIRECT = ("rle", "lz77", "lz78", "repair", "bisection", "slp")


def call(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(b"abc"), min_size=1, max_size=40).map(bytes))
def test_convert_routes_match_via_expand(data):
    with tempfile.TemporaryDirectory() as d:
        def path(name):
            return os.path.join(d, name)

        def read(name):
            with open(path(name), "rb") as fh:
                return fh.read()

        def derived(name):
            # the file with the header its payload derives, as each
            # format's make_*_container builds it for an alphabet of 256
            p = parse(read(name).decode()).payload
            c = (make_lz78_container(Lz78Factorization(p.factor_ids, 256))
                 if isinstance(p, Lz78Factorization) else MAKE[type(p)](p, 256))
            return serialize(c).encode()

        with open(path("in.bin"), "wb") as fh:
            fh.write(data)
        for codec in ("rle", "lz77", "lz78", "repair", "bisection"):
            assert call("encode", "--codec", codec, path("in.bin"), path(codec))[0] == 0
        assert call("convert", "--to", "slp", path("bisection"), path("slp"))[0] == 0
        for src in ("rle", "repair", "bisection", "slp"):
            for target in DIRECT:
                for flags in (("--self-ref",), ()) if target == "lz77" else ((),):
                    code, _, err = call("convert", "--to", target, "--max-output", "0",
                                        *flags, path(src), path("direct"))
                    assert code == 0, (src, target, err)
                    assert call("convert", "--via-expand", "--to", target, *flags,
                                path(src), path("expand"))[0] == 0
                    for out in ("direct", "expand"):
                        assert read(out) == derived(out), (src, target, flags, out)
                    if target == "slp":
                        for out in ("direct", "expand"):
                            assert call("verify", path(src), path(out))[:2] == (0, "equal\n")
                        continue
                    assert read("direct") == read("expand"), (src, target, flags)
                    if src == target:
                        assert read(src) == read("direct")
        off_route = [("lz77", t) for t in TARGETS] + [("lz78", t) for t in TARGETS]
        for src, target in off_route:
            code, _, err = call("convert", "--to", target, path(src), path("off"))
            assert code == 2, (src, target)
            assert err.startswith("error: ") and "Traceback" not in err


def _verify_files(text: Text) -> dict[str, str]:
    """The text's container in every format verify reads; slp and grammar
    files only for a non-empty text."""
    files = {"rle": make_rle_container(rle_encode(text), 256),
             "lz77": make_lz77_container(naive_lz77(text, False), 256),
             "lz77-selfref": make_lz77_container(naive_lz77(text, True), 256),
             "lz78": make_lz78_container(naive_lz78(text, 256))}
    if text.symbols:
        files["slp"] = make_slp_container(grammar_to_slp(naive_bisection(text)), 256)
        files["bisection"] = make_grammar_container(naive_bisection(text), 256)
        files["repair"] = make_grammar_container(naive_repair(text), 256)
    return {fmt: serialize(c) for fmt, c in files.items()}


@st.composite
def verify_pairs(draw):
    """A short text and a second one: equal, one symbol changed, or a prefix."""
    first = draw(st.lists(st.sampled_from(b"ab"), max_size=24))
    kind = draw(st.sampled_from(("equal", "changed", "prefix")))
    second = list(first)
    if kind == "changed" and first:
        i = draw(st.integers(0, len(first) - 1))
        second[i] = draw(st.sampled_from([c for c in b"abc" if c != first[i]]))
    elif kind == "prefix":
        second = first[:draw(st.integers(0, len(first)))]
    return first, second


@settings(max_examples=120, deadline=None)
@given(verify_pairs())
def test_verify_every_format_pair_matches_text_comparison(pair):
    # every pair of formats prints what comparing the two texts gives
    x, y = pair
    k = next((i for i, (p, q) in enumerate(zip(x, y), 1) if p != q),
             min(len(x), len(y)) + 1)
    want = (0, "equal\n") if x == y else (1, f"differ {k}\n")
    with tempfile.TemporaryDirectory() as d:
        paths = []
        for side, text in (("x", x), ("y", y)):
            names = {}
            for fmt, wire in _verify_files(Text(tuple(text))).items():
                names[fmt] = os.path.join(d, f"{side}.{fmt}")
                with open(names[fmt], "w", encoding="utf-8") as fh:
                    fh.write(wire)
            paths.append(names)
        for fa, pa in paths[0].items():
            for fb, pb in paths[1].items():
                assert call("verify", pa, pb) == (*want, ""), (fa, fb)
