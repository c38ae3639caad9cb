"""Command line front end.

`convert` picks its route from the source's format alone. rle takes the
run lane (`rle_to_*`, or `rle_as_slp` for slp), and rle to rle writes
the runs back. slp and grammar take the program lane on a program that
converts to rle, lz77, lz78 or bisection, or is written out for --to
slp: an slp file's program is its payload, built once when the file is
parsed, and a grammar becomes one through `grammar_to_slp`. lz77 and
lz78 convert only with --via-expand, which decodes and re-encodes; it
reaches slp through the bisection grammar. Exit 2 for an lz source
without --via-expand and for --to repair from slp or grammar.

Exit codes: 0 success, 1 invalid input or a failed verification, 2 no
conversion path between the requested formats, 3 expansion budget
exceeded. The commands that may expand (decode, convert, verify) take
their budget from --max-output, then the CRX_MAX_OUTPUT environment
variable, then a 64 MiB default; the others never read the variable. A
negative budget, or a CRX_MAX_OUTPUT that is not an integer, is invalid
input (exit 1).
"""

from __future__ import annotations

import argparse
import os
import sys

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
from .container import (
    CompressedContainer,
    Payload,
    make_grammar_container,
    make_lz77_container,
    make_lz78_container,
    make_rle_container,
    make_slp_container,
    parse,
    serialize,
    validate,
)
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
from .from_slp import slp_to_bisection, slp_to_lz77, slp_to_lz78, slp_to_rle
from .model import (
    DEFAULT_LIMIT,
    Literal,
    Lz78Factorization,
    Slp,
    Text,
    expand_grammar,
    expand_lz77,
    expand_lz78,
    expand_rle,
    expand_slp,
)
from .slp_ops import first_mismatch

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


def _container(target: str, payload: Payload,
               alphabet_size: int) -> CompressedContainer:
    if target == "rle":
        return make_rle_container(payload, alphabet_size)
    if target == "lz77":
        return make_lz77_container(payload, alphabet_size)
    if target == "lz78":
        return make_lz78_container(_relabel_lz78(payload, alphabet_size))
    if target == "slp":
        return make_slp_container(payload, alphabet_size)
    return make_grammar_container(payload, alphabet_size)


def _as_slp(c: CompressedContainer) -> Slp:
    if c.format == "rle":
        return rle_as_slp(c.payload)
    if c.format == "slp":
        return c.payload
    return grammar_to_slp(c.payload)


def cmd_encode(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as fh:
        text = Text.from_bytes(fh.read())
    payload = _encode_text(text, args.codec, args.self_ref, 256)
    _write_container(args.output, _container(args.codec, payload, 256))
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


def _convert_direct(c: CompressedContainer, target: str,
                    self_ref: bool) -> Payload:
    """The target's payload by the source's lane, without expansion."""
    lane = {}
    if c.format == "rle":
        lane = {"rle": lambda r: r, "lz77": rle_to_lz77, "lz78": rle_to_lz78,
                "repair": rle_to_repair, "bisection": rle_to_bisection,
                "slp": rle_as_slp}
    elif c.format in ("slp", "grammar"):
        lane = {"rle": slp_to_rle, "lz77": slp_to_lz77, "lz78": slp_to_lz78,
                "bisection": slp_to_bisection, "slp": lambda s: s}
    if target not in lane:
        raise UnreachableConversionError(
            f"no direct conversion from {c.format} to {target}; "
            "re-run with --via-expand")
    source = c.payload if c.format == "rle" else _as_slp(c)
    if target == "lz77":
        return lane[target](source, self_ref)
    return lane[target](source)


def cmd_convert(args: argparse.Namespace) -> int:
    limit = _budget(args)
    c = _read_container(args.input)
    if args.via_expand:
        text = _expand_container(c, limit)
        payload = _encode_text(text, args.target, args.self_ref, c.alphabet_size)
    else:
        payload = _convert_direct(c, args.target, args.self_ref)
    _write_container(args.output, _container(args.target, payload, c.alphabet_size))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    limit = _budget(args)
    a = _read_container(args.input)
    b = _read_container(args.second)
    if a.length == 0 or b.length == 0:
        equal, pos = a.length == b.length, 1
    elif a.format not in ("lz77", "lz78") and b.format not in ("lz77", "lz78"):
        sa, sb = _as_slp(a), _as_slp(b)
        pos = first_mismatch(sa, sb)
        equal = pos is None
    else:
        ta = _expand_container(a, limit)
        tb = _expand_container(b, limit)
        equal, pos = ta.symbols == tb.symbols, None
        if not equal:
            common = min(len(ta), len(tb))
            pos = common + 1
            for idx in range(common):
                if ta.symbols[idx] != tb.symbols[idx]:
                    pos = idx + 1
                    break
    if equal:
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


def build_parser() -> argparse.ArgumentParser:
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
