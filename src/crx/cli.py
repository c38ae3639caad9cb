"""Command line front end.

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
from dataclasses import dataclass

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
    Text,
    expand_grammar,
    expand_lz77,
    expand_lz78,
    expand_rle,
)
from .slp_ops import first_mismatch

CODECS = ("rle", "lz77", "lz78", "repair", "bisection")
TARGETS = CODECS + ("slp",)


@dataclass(frozen=True)
class CliConfig:
    """Everything a subcommand needs, resolved from flags and environment."""

    command: str
    inputs: tuple[str, ...]
    output: str | None
    codec: str | None
    target: str | None
    self_ref: bool
    via_expand: bool
    max_output: int


def _budget(args: argparse.Namespace) -> int:
    if not hasattr(args, "max_output"):  # a command that never expands
        return DEFAULT_LIMIT
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


def build_config(args: argparse.Namespace) -> CliConfig:
    paths = [p for p in (getattr(args, "input", None), getattr(args, "second", None))
             if p is not None]
    return CliConfig(
        command=args.command,
        inputs=tuple(paths),
        output=getattr(args, "output", None),
        codec=getattr(args, "codec", None),
        target=getattr(args, "target", None),
        self_ref=getattr(args, "self_ref", False),
        via_expand=getattr(args, "via_expand", False),
        max_output=_budget(args),
    )


def _read_container(path: str) -> CompressedContainer:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            c = parse(fh.read())
        except UnicodeDecodeError as exc:
            raise ContainerFormatError(f"{path}: not UTF-8 text ({exc})") from None
    report = validate(c)
    if not report.ok:
        raise InvalidInputError(report.error, report.location or path)
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
    return expand_grammar(c.payload, limit)


def _encode_text(text: Text, codec: str, self_ref: bool,
                 alphabet_size: int) -> CompressedContainer:
    if codec == "rle":
        return make_rle_container(rle_encode(text), alphabet_size)
    if codec == "lz77":
        return make_lz77_container(naive_lz77(text, self_ref), alphabet_size)
    if codec == "lz78":
        return make_lz78_container(naive_lz78(text, alphabet_size))
    if codec == "repair":
        return make_grammar_container(naive_repair(text), alphabet_size)
    return make_grammar_container(naive_bisection(text), alphabet_size)


def _relabel_lz78(f: Lz78Factorization, sigma: int) -> Lz78Factorization:
    """Renumber factor ids for a larger seed alphabet."""
    if sigma == f.alphabet_size:
        return f
    old = f.alphabet_size
    ids = tuple(i if i <= old else i - old + sigma for i in f.factor_ids)
    return Lz78Factorization(ids, sigma)


def _as_slp(c: CompressedContainer):
    if c.format == "rle":
        return rle_as_slp(c.payload)
    if c.format == "slp":
        return c.to_slp()
    return grammar_to_slp(c.payload)


def cmd_encode(cfg: CliConfig) -> int:
    with open(cfg.inputs[0], "rb") as fh:
        text = Text.from_bytes(fh.read())
    _write_container(cfg.output, _encode_text(text, cfg.codec, cfg.self_ref, 256))
    return 0


def cmd_decode(cfg: CliConfig) -> int:
    c = _read_container(cfg.inputs[0])
    text = _expand_container(c, cfg.max_output)
    if any(sym > 255 for sym in text.symbols):
        raise InvalidInputError("non-byte-alphabet", cfg.inputs[0],
                                "decoded symbols do not fit into bytes")
    with open(cfg.output, "wb") as fh:
        fh.write(bytes(text.symbols))
    return 0


def _convert_direct(c: CompressedContainer, target: str,
                    self_ref: bool) -> CompressedContainer:
    ab = c.alphabet_size
    if c.format == "rle":
        r = c.payload
        if target == "lz77":
            return make_lz77_container(rle_to_lz77(r, self_ref), ab)
        if target == "lz78":
            return make_lz78_container(_relabel_lz78(rle_to_lz78(r), ab))
        if target == "repair":
            return make_grammar_container(rle_to_repair(r), ab)
        if target == "bisection":
            return make_grammar_container(rle_to_bisection(r), ab)
        if target == "slp":
            return make_slp_container(rle_as_slp(r), ab)
    elif c.format == "slp":
        s = c.to_slp()
        if target == "rle":
            return make_rle_container(slp_to_rle(s), ab)
        if target == "lz77":
            return make_lz77_container(slp_to_lz77(s, self_ref), ab)
        if target == "lz78":
            return make_lz78_container(_relabel_lz78(slp_to_lz78(s), ab))
        if target == "bisection":
            return make_grammar_container(slp_to_bisection(s), ab)
    elif c.format == "grammar" and target == "slp":
        return make_slp_container(grammar_to_slp(c.payload), ab)
    raise UnreachableConversionError(
        f"no direct conversion from {c.format} to {target}; "
        "re-run with --via-expand to decode and re-encode")


def cmd_convert(cfg: CliConfig) -> int:
    c = _read_container(cfg.inputs[0])
    if cfg.via_expand:
        if cfg.target == "slp":
            raise UnreachableConversionError(
                "expansion cannot target slp; convert to a grammar codec "
                "and then to slp")
        text = _expand_container(c, cfg.max_output)
        out = _encode_text(text, cfg.target, cfg.self_ref, c.alphabet_size)
    else:
        out = _convert_direct(c, cfg.target, cfg.self_ref)
    _write_container(cfg.output, out)
    return 0


def cmd_verify(cfg: CliConfig) -> int:
    a = _read_container(cfg.inputs[0])
    b = _read_container(cfg.inputs[1])
    if a.length == 0 or b.length == 0:
        equal, pos = a.length == b.length, 1
    elif a.format not in ("lz77", "lz78") and b.format not in ("lz77", "lz78"):
        sa, sb = _as_slp(a), _as_slp(b)
        pos = first_mismatch(sa, sb)
        equal = pos is None
    else:
        ta = _expand_container(a, cfg.max_output)
        tb = _expand_container(b, cfg.max_output)
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


def cmd_ncd(cfg: CliConfig) -> int:
    with open(cfg.inputs[0], "rb") as fh:
        x = fh.read()
    with open(cfg.inputs[1], "rb") as fh:
        y = fh.read()
    cx = compressed_size(Text.from_bytes(x), cfg.codec, 256)
    cy = compressed_size(Text.from_bytes(y), cfg.codec, 256)
    cxy = compressed_size(Text.from_bytes(x + y), cfg.codec, 256)
    value = ncd(cxy, cx, cy)
    print(f"ncd {value:.6f}")
    print(f"sizes {cxy} {cx} {cy}")
    return 0


def cmd_info(cfg: CliConfig) -> int:
    c = _read_container(cfg.inputs[0])
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

    dec = sub.add_parser("decode", help="expand a container to raw bytes")
    dec.add_argument("--max-output", type=int, dest="max_output",
                     help="expansion budget in bytes")
    dec.add_argument("input")
    dec.add_argument("output")

    conv = sub.add_parser("convert", help="convert between representations")
    conv.add_argument("--to", required=True, choices=TARGETS, dest="target")
    conv.add_argument("--self-ref", action="store_true", dest="self_ref")
    conv.add_argument("--via-expand", action="store_true", dest="via_expand",
                      help="decode and re-encode instead of converting directly")
    conv.add_argument("--max-output", type=int, dest="max_output")
    conv.add_argument("input")
    conv.add_argument("output")

    ver = sub.add_parser("verify", help="check two containers for equal text")
    ver.add_argument("--max-output", type=int, dest="max_output")
    ver.add_argument("input")
    ver.add_argument("second")

    ncd_p = sub.add_parser("ncd", help="normalized compression distance")
    ncd_p.add_argument("--codec", choices=CODECS, default="lz78")
    ncd_p.add_argument("input")
    ncd_p.add_argument("second")

    info = sub.add_parser("info", help="print container statistics")
    info.add_argument("input")
    return parser


_HANDLERS = {
    "encode": cmd_encode,
    "decode": cmd_decode,
    "convert": cmd_convert,
    "verify": cmd_verify,
    "ncd": cmd_ncd,
    "info": cmd_info,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        return _HANDLERS[cfg.command](cfg)
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
