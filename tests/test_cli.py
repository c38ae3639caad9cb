"""Command line driver: every subcommand through main() on temp files."""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crx import Slp, Term, make_slp_container, parse, serialize
from crx.cli import TARGETS, main
from helpers import VALIDATE_FAULTS, record_calls, sample_slp


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
])
def test_slp_file_builds_its_program_once(tmp_path, capsys, monkeypatch, argv, builds):
    # the program parse builds is the one every later step uses
    monkeypatch.chdir(tmp_path)
    for name in ("a.slp", "b.slp"):
        (tmp_path / name).write_text(serialize(make_slp_container(sample_slp(), 2)))
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


# the targets each source kind reaches without expansion; lz77 runs with
# and without --self-ref
RUN_LANE = ("rle", "lz77", "lz78", "repair", "bisection", "slp")
PROGRAM_LANE = ("rle", "lz77", "lz78", "bisection", "slp")


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

        with open(path("in.bin"), "wb") as fh:
            fh.write(data)
        for codec in ("rle", "lz77", "lz78", "repair", "bisection"):
            assert call("encode", "--codec", codec, path("in.bin"), path(codec))[0] == 0
        assert call("convert", "--to", "slp", path("bisection"), path("slp"))[0] == 0
        routes = {"rle": RUN_LANE, "repair": PROGRAM_LANE,
                  "bisection": PROGRAM_LANE, "slp": PROGRAM_LANE}
        for src, targets in routes.items():
            for target in targets:
                for flags in (("--self-ref",), ()) if target == "lz77" else ((),):
                    code, _, err = call("convert", "--to", target, "--max-output", "0",
                                        *flags, path(src), path("direct"))
                    assert code == 0, (src, target, err)
                    assert call("convert", "--via-expand", "--to", target, *flags,
                                path(src), path("expand"))[0] == 0
                    if target == "slp":
                        for out in ("direct", "expand"):
                            assert call("verify", path(src), path(out))[:2] == (0, "equal\n")
                        continue
                    assert read("direct") == read("expand"), (src, target, flags)
                    if src == target:
                        assert read(src) == read("direct")
        off_route = [("lz77", t) for t in TARGETS] + [("lz78", t) for t in TARGETS]
        off_route += [(src, "repair") for src in ("repair", "bisection", "slp")]
        for src, target in off_route:
            code, _, err = call("convert", "--to", target, path(src), path("off"))
            assert code == 2, (src, target)
            assert err.startswith("error: ") and "Traceback" not in err
