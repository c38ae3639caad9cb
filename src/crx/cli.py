"""Command line front end.

`convert` reads every rle, slp or grammar source as runs and takes one
run lane (`rle_to_*`) to each target: an rle file's own runs, or a
program's, from one `slp_to_rle`; rle to rle writes the runs back.
--to slp is apart: an rle file becomes a program through `rle_as_slp`,
and a program is written out as it is. An slp file's program is its
payload, built once when the file is parsed, and a grammar becomes one
through `grammar_to_slp`. lz77 and lz78 convert only with --via-expand,
which decodes and re-encodes; it reaches slp through the bisection
grammar. Exit 2 for an lz source without --via-expand.

A converted file's header is its source's: a conversion changes how the
text is written, never the text, so it writes the length and alphabet
size that `validate` checked, and `encode` writes the input's length
and 256. Nothing is derived again from the payload. The run lane's
LZ78 numbers its ids for the text's own alphabet, so the CLI relabels
them for the source's; --via-expand and `encode` number for it
already.

`verify` reads both files first. Two rle, slp or grammar files are
compared without expanding: `first_mismatch` compares their runs, an
rle file's own runs and a program's derived ones, built as one tuple
when the program shares a variable of two or more runs and has at most
MAX_RUNS runs, else streamed up to the first pair of runs that differ. A
pair with an lz77 or lz78 file is decoded under --max-output and
compared as two texts.

Exit codes: 0 success, 1 invalid input or a failed verification, 2 no
conversion path between the requested formats, 3 a budget exceeded: the
expansion budget, or the fixed cap of MAX_RUNS (2^20) runs. The cap
covers every direct conversion of a program but --to slp, counted from
the rules before any run is built; the conversion of an rle file --to
lz77, plain or --self-ref, counted from the file's runs, since the run
lane's LZ77 loop is still quadratic on short exponents; and verify of
two programs, whose walk reads the fewer runs plus one. Its one error
line names the work: "conversion needs 78176339 runs, budget is
1048576" for convert, "verify needs ..." for verify. The commands that
may expand (decode, convert, verify) take the expansion budget from
--max-output, then the CRX_MAX_OUTPUT environment variable, then a 64
MiB default; the others never read the variable, and neither budget
sets the other. A negative budget, or a CRX_MAX_OUTPUT that is not an
integer, is invalid input (exit 1).

`main` builds the argument parser once per process (`build_parser` is
cached) and reuses it on every later call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import compress, count
from operator import ne

from .codecs import (
    compressed_size,
    grammar_to_slp,
    naive_bisection,
    naive_lz77,
    naive_lz78,
    naive_repair,
    ncd,
    rle_encode,
)
from .container import CompressedContainer, Payload, parse, serialize, validate
from .errors import (
    BudgetExceededError,
    ContainerFormatError,
    EmptyInputError,
    InvalidInputError,
    UnreachableConversionError,
)
from .from_rle import (
    rle_as_slp,
    rle_to_bisection,
    rle_to_lz77,
    rle_to_lz78,
    rle_to_repair,
)
from .from_slp import slp_to_rle
from .model import (
    DEFAULT_LIMIT,
    Literal,
    Lz78Factorization,
    Text,
    expand_grammar,
    expand_lz77,
    expand_lz78,
    expand_rle,
    expand_slp,
)
from .slp_ops import MAX_RUNS, first_mismatch, run_count

CODECS = ("rle", "lz77", "lz78", "repair", "bisection")
TARGETS = CODECS + ("slp",)


def _budget(args: argparse.Namespace) -> int:
    value, source = args.max_output, "--max-output"
    if value is None:
        env = os.environ.get("CRX_MAX_OUTPUT")
        if not env:
            return DEFAULT_LIMIT
        source = "CRX_MAX_OUTPUT"
        try:
            value = int(env)
        except ValueError:
            raise InvalidInputError("bad-budget", source,
                                    f"not an integer: {env!r}") from None
    if value < 0:
        raise InvalidInputError("bad-budget", source, f"negative budget: {value}")
    return value


def _read_container(path: str) -> CompressedContainer:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            c = parse(fh.read())
        except UnicodeDecodeError as exc:
            raise ContainerFormatError(f"{path}: not UTF-8 text ({exc})") from None
    validate(c)
    return c


def _write_container(path: str, c: CompressedContainer) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(c))


def _expand_container(c: CompressedContainer, limit: int) -> Text:
    if c.format == "rle":
        return expand_rle(c.payload, limit)
    if c.format == "lz77":
        return expand_lz77(c.payload, limit)
    if c.format == "lz78":
        return expand_lz78(c.payload, limit)
    if c.format == "slp":
        return expand_slp(c.payload, limit)
    return expand_grammar(c.payload, limit)


def _encode_text(text: Text, codec: str, self_ref: bool,
                 alphabet_size: int) -> Payload:
    if codec == "slp":
        return grammar_to_slp(naive_bisection(text))
    if codec == "rle":
        return rle_encode(text)
    if codec == "lz77":
        return naive_lz77(text, self_ref)
    if codec == "lz78":
        return naive_lz78(text, alphabet_size)
    if codec == "repair":
        return naive_repair(text)
    return naive_bisection(text)


def _relabel_lz78(f: Lz78Factorization, sigma: int) -> Lz78Factorization:
    """Renumber factor ids for a larger seed alphabet."""
    if sigma == f.alphabet_size:
        return f
    old = f.alphabet_size
    ids = tuple(i if i <= old else i - old + sigma for i in f.factor_ids)
    return Lz78Factorization(ids, sigma)


def _container(target: str, alphabet_size: int, length: int,
               payload: Payload) -> CompressedContainer:
    """The target's file under the header of the text it spells."""
    fmt = "grammar" if target in ("repair", "bisection") else target
    return CompressedContainer(fmt, alphabet_size, length, payload)


def _direct_source(c: CompressedContainer) -> Payload:
    """An rle file's runs, or the program of an slp or grammar file."""
    return grammar_to_slp(c.payload) if c.format == "grammar" else c.payload


def cmd_encode(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as fh:
        text = Text.from_bytes(fh.read())
    payload = _encode_text(text, args.codec, args.self_ref, 256)
    _write_container(args.output, _container(args.codec, 256, len(text), payload))
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    limit = _budget(args)
    c = _read_container(args.input)
    text = _expand_container(c, limit)
    if any(sym > 255 for sym in text.symbols):
        raise InvalidInputError("non-byte-alphabet", args.input,
                                "decoded symbols do not fit into bytes")
    with open(args.output, "wb") as fh:
        fh.write(bytes(text.symbols))
    return 0


def _cap_runs(runs: int, what: str) -> None:
    if runs > MAX_RUNS:
        raise BudgetExceededError(runs, MAX_RUNS, "runs", what)


def _convert_direct(c: CompressedContainer, target: str,
                    self_ref: bool) -> Payload:
    """The target's payload from the source's runs, without expansion."""
    if c.format not in ("rle", "slp", "grammar"):
        raise UnreachableConversionError(
            f"no direct conversion from {c.format} to {target}; "
            "re-run with --via-expand")
    source = _direct_source(c)
    if target == "slp":
        return rle_as_slp(source) if c.format == "rle" else source
    if c.format != "rle":
        _cap_runs(run_count(source), "conversion")
        source = slp_to_rle(source)
    elif target == "lz77":  # the run lane's LZ77 is quadratic on short runs
        _cap_runs(len(source.runs), "conversion")
    lane = {"rle": lambda r: r, "lz77": lambda r: rle_to_lz77(r, self_ref),
            "lz78": lambda r: _relabel_lz78(rle_to_lz78(r), c.alphabet_size),
            "repair": rle_to_repair, "bisection": rle_to_bisection}
    return lane[target](source)


def cmd_convert(args: argparse.Namespace) -> int:
    limit = _budget(args)
    c = _read_container(args.input)
    if args.via_expand:
        text = _expand_container(c, limit)
        payload = _encode_text(text, args.target, args.self_ref, c.alphabet_size)
    else:
        payload = _convert_direct(c, args.target, args.self_ref)
    _write_container(args.output,
                     _container(args.target, c.alphabet_size, c.length, payload))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    limit = _budget(args)
    a = _read_container(args.input)
    b = _read_container(args.second)
    if a.format not in ("lz77", "lz78") and b.format not in ("lz77", "lz78"):
        sa, sb = _direct_source(a), _direct_source(b)
        if "rle" not in (a.format, b.format):  # else that file's runs bound the walk
            _cap_runs(min(run_count(sa), run_count(sb)), "verify")
        pos = first_mismatch(sa, sb)
    else:
        xs = _expand_container(a, limit).symbols
        ys = _expand_container(b, limit).symbols
        pos = None
        if xs != ys:  # the first differing symbol, found at C speed
            pos = next(compress(count(1), map(ne, xs, ys)),
                       min(len(xs), len(ys)) + 1)
    if pos is None:
        print("equal")
        return 0
    print(f"differ {pos}")
    return 1


def cmd_ncd(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as fh:
        x = fh.read()
    with open(args.second, "rb") as fh:
        y = fh.read()
    cx = compressed_size(Text.from_bytes(x), args.codec, 256)
    cy = compressed_size(Text.from_bytes(y), args.codec, 256)
    cxy = compressed_size(Text.from_bytes(x + y), args.codec, 256)
    value = ncd(cxy, cx, cy)
    print(f"ncd {value:.6f}")
    print(f"sizes {cxy} {cx} {cy}")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    c = _read_container(args.input)
    p = c.payload
    if c.format in ("grammar", "slp"):
        n = len(p.rules)
    else:
        n = c.payload_size()
    lines = [f"format {c.format}", f"n {n}", f"N {c.length}",
             f"ratio {c.length / n:.4f}" if n else "ratio 0.0000"]
    if c.format == "rle":
        lines.append(f"max-exponent {max((e for _, e in p.runs), default=0)}")
    elif c.format == "lz77":
        lits = sum(1 for f in p.factors if isinstance(f, Literal))
        lines.append(f"self-ref {'true' if p.self_referential else 'false'}")
        lines.append(f"literals {lits}")
        lines.append(f"references {len(p.factors) - lits}")
    elif c.format == "lz78":
        lines.append(f"alphabet {p.alphabet_size}")
    else:
        lines.append(f"rhs-total {p.size}")
    print("\n".join(lines))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The crx argument parser, built once per process: parse_args leaves
    it as it is, so every call of main shares it."""
    parser = argparse.ArgumentParser(
        prog="crx",
        description="convert between compressed string representations "
                    "without decompressing")
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="compress a raw byte file")
    enc.add_argument("--codec", required=True, choices=CODECS)
    enc.add_argument("--self-ref", action="store_true", dest="self_ref",
                     help="allow overlapping sources (lz77 only)")
    enc.add_argument("input")
    enc.add_argument("output")
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="expand a container to raw bytes")
    dec.add_argument("--max-output", type=int, dest="max_output",
                     help="expansion budget in bytes")
    dec.add_argument("input")
    dec.add_argument("output")
    dec.set_defaults(func=cmd_decode)

    conv = sub.add_parser("convert", help="convert between representations")
    conv.add_argument("--to", required=True, choices=TARGETS, dest="target")
    conv.add_argument("--self-ref", action="store_true", dest="self_ref")
    conv.add_argument("--via-expand", action="store_true", dest="via_expand",
                      help="decode and re-encode instead of converting directly")
    conv.add_argument("--max-output", type=int, dest="max_output")
    conv.add_argument("input")
    conv.add_argument("output")
    conv.set_defaults(func=cmd_convert)

    ver = sub.add_parser("verify", help="check two containers for equal text")
    ver.add_argument("--max-output", type=int, dest="max_output")
    ver.add_argument("input")
    ver.add_argument("second")
    ver.set_defaults(func=cmd_verify)

    ncd_p = sub.add_parser("ncd", help="normalized compression distance")
    ncd_p.add_argument("--codec", choices=CODECS, default="lz78")
    ncd_p.add_argument("input")
    ncd_p.add_argument("second")
    ncd_p.set_defaults(func=cmd_ncd)

    info = sub.add_parser("info", help="print container statistics")
    info.add_argument("input")
    info.set_defaults(func=cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UnreachableConversionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContainerFormatError, InvalidInputError, EmptyInputError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
