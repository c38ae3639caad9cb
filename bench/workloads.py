"""The three workloads: inputs, jobs and reference outputs.

Each ``setup_*`` function receives the freshly imported crx modules, a
seeded ``random.Random`` and a scratch directory inside the checkout.
It makes the inputs, computes every reference output (timing the
expand-and-recompress baseline where one exists) and writes container
files. Jobs call crx through module attributes at call time, so the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import os
import random
import sys
from types import SimpleNamespace
from typing import Any, Callable

from harness import Job, Stopwatch
from inputs import (
    SIGMA,
    block_text,
    count_occurrences,
    expand_runs,
    mutate_runs,
    mutate_text,
    random_text,
    run_sequence,
)
from tracing import MODULES

# rle-ladder: lane -> (run counts of the doubling ladder, min exp, max exp);
# the tracemalloc pass measures the jobs of each lane's second rung
RLE_LANES = {
    "moderate": ((64, 128, 256, 512), 1, 50),
    "incompressible": ((256, 512, 1024, 2048), 1, 2),
}

# slp-ladder: target rule counts of the doubling ladder, each rung holding
# SLP_RULES // n programs per family; the tracemalloc pass measures one rung
SLP_RUNGS = (32, 64, 128, 256)
SLP_RULES = 256
SLP_PEAK_RUNG = 64
SLP_FAMILIES = ("rle", "block", "random")

# cli-files: run counts of the wide files
WIDE_RUNGS = (10_000, 20_000, 40_000)
MODERATE_RUNS = 2_000


def import_crx(fresh: bool) -> SimpleNamespace:
    """crx's modules, re-imported from scratch when `fresh`."""
    if fresh:
        for name in [k for k in sys.modules if k == "crx" or k.startswith("crx.")]:
            del sys.modules[name]
    mods = {name: importlib.import_module(name) for name in MODULES}
    return SimpleNamespace(modules=mods, **{n.rpartition(".")[2]: m
                                            for n, m in mods.items()})


def _paired(watch: Stopwatch, name: str, target: str, direct: Callable[[], Any],
            baseline: Callable[[], Any], **kw: Any) -> Job:
    """A job whose reference output is the baseline's, timed here."""
    ref, base_s = watch.time(baseline)
    return Job(name, target, direct, _equals(ref), baseline=baseline,
               baseline_s=base_s, **kw)


def _equals(ref: Any) -> Callable[[Any], bool]:
    return lambda out: out == ref


# ---------------------------------------------------------------- rle-ladder

def setup_rle_ladder(M: SimpleNamespace, rng: random.Random, workdir: str,
                    watch: Stopwatch) -> list[Job]:
    jobs: list[Job] = []
    for lane, (rungs, emin, emax) in RLE_LANES.items():
        for m in rungs:
            r = M.model.RleString(run_sequence(rng, m, emin, emax))
            cases = (
                ("lz77", "lz77", lambda r=r: M.from_rle.rle_to_lz77(r),
                 lambda r=r: M.codecs.naive_lz77(M.model.expand_rle(r))),
                ("lz77_selfref", "lz77",
                 lambda r=r: M.from_rle.rle_to_lz77(r, self_referential=True),
                 lambda r=r: M.codecs.naive_lz77(M.model.expand_rle(r), True)),
                ("lz78", "lz78", lambda r=r: M.from_rle.rle_to_lz78(r),
                 lambda r=r: M.codecs.naive_lz78(M.model.expand_rle(r))),
                ("repair", "repair", lambda r=r: M.from_rle.rle_to_repair(r),
                 lambda r=r: M.codecs.naive_repair(M.model.expand_rle(r))),
                ("bisection", "bisection", lambda r=r: M.from_rle.rle_to_bisection(r),
                 lambda r=r: M.codecs.naive_bisection(M.model.expand_rle(r))),
            )
            for label, target, direct, base in cases:
                jobs.append(_paired(watch, f"{lane}/m{m}/{label}", target, direct, base,
                                    lane=lane, size=m, peak=m == rungs[1]))
    return jobs


# ---------------------------------------------------------------- slp-ladder

def smallest_prefix(limit: int, target: int, size_of: Callable[[int], int]) -> int:
    """Smallest k in 1..limit with size_of(k) >= target (size_of grows
    with k, up to small wiggles), by bisection."""
    lo, hi = 1, limit
    while lo < hi:
        mid = (lo + hi) // 2
        if size_of(mid) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _family_program(M: SimpleNamespace, rng: random.Random, family: str,
                    target: int) -> tuple[Any, tuple[int, ...], Callable[[tuple[int, ...]], Any]]:
    """(program with about `target` rules, its text, rebuild) where rebuild
    makes a program of the same family from another text."""
    Text, RleString = M.model.Text, M.model.RleString

    def bisect_program(text: tuple[int, ...]):
        return M.codecs.grammar_to_slp(M.codecs.naive_bisection(Text(text)))

    if family == "rle":
        runs = run_sequence(rng, target, 1, 50)
        k = smallest_prefix(len(runs), target,
                             lambda k: M.from_rle.rle_as_slp(RleString(runs[:k])).n)
        runs = runs[:k]
        return (M.from_rle.rle_as_slp(RleString(runs)), expand_runs(runs),
                lambda t: M.from_rle.rle_as_slp(M.codecs.rle_encode(Text(t))))
    if family == "block":
        text = block_text(rng, 60 * target)
    else:
        text = random_text(rng, 4 * target)
    k = smallest_prefix(len(text), target, lambda k: bisect_program(text[:k]).n)
    text = text[:k]
    return bisect_program(text), text, bisect_program


def setup_slp_ladder(M: SimpleNamespace, rng: random.Random, workdir: str,
                    watch: Stopwatch) -> list[Job]:
    jobs: list[Job] = []
    for family, target in itertools.product(SLP_FAMILIES, SLP_RUNGS):
        for k in range(SLP_RULES // target):
            s, text, rebuild = _family_program(M, rng, family, target)
            N = len(text)
            peak = target == SLP_PEAK_RUNG
            cases = (
                ("rle", lambda s=s: M.from_slp.slp_to_rle(s),
                 lambda s=s: M.codecs.rle_encode(M.model.expand_slp(s))),
                ("lz77", lambda s=s: M.from_slp.slp_to_lz77(s),
                 lambda s=s: M.codecs.naive_lz77(M.model.expand_slp(s))),
                ("lz78", lambda s=s: M.from_slp.slp_to_lz78(s),
                 lambda s=s: M.codecs.naive_lz78(M.model.expand_slp(s))),
                ("bisection", lambda s=s: M.from_slp.slp_to_bisection(s),
                 lambda s=s: M.codecs.naive_bisection(M.model.expand_slp(s))),
            )
            prefix = f"{family}/n{target}/{k}"
            for target_codec, direct, base in cases:
                jobs.append(_paired(watch, f"{prefix}/to_{target_codec}", target_codec,
                                    direct, base, lane=family, size=target, peak=peak))
            # one large pattern query and one deep equality query; their
            # references come from the generated text, not from crx
            plen = max(2, N // 16)
            i = rng.randint(1, N - plen + 1)
            count = count_occurrences(text, text[i - 1:i - 1 + plen])
            jobs.append(Job(
                f"{prefix}/occurrences", "query",
                lambda s=s, i=i, j=i + plen - 1: M.slp_ops.occurrences(
                    s, M.slp_ops.substring_slp(s, i, j)).count(),
                _equals(count), lane=family, size=target, peak=peak))
            pos = rng.randint(1, N)
            other = rebuild(mutate_text(text, pos))
            jobs.append(Job(
                f"{prefix}/first_mismatch", "query",
                lambda s=s, o=other: M.slp_ops.first_mismatch(s, o),
                _equals(pos), lane=family, size=target, peak=peak))
    return jobs


# ----------------------------------------------------------------- cli-files

def cli_call(M: SimpleNamespace, argv: list[str]) -> tuple[int, str]:
    """Exit code and captured standard output of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = M.cli.main(argv)
    return code, buf.getvalue()


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, data: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(data)


def _payload_lines(data: str) -> int:
    return data.count("\n") - 1


def setup_cli_files(M: SimpleNamespace, rng: random.Random, workdir: str,
                   watch: Stopwatch) -> list[Job]:
    C = M.container
    jobs: list[Job] = []

    def path(name: str) -> str:
        return os.path.join(workdir, name)

    def write_container(name: str, c: Any) -> str:
        p = path(name)
        _write(p, C.serialize(c))
        return p

    def convert_job(name: str, target: str, src: str, ref: str | None = None,
                    closed_form: int | None = None, flags: tuple[str, ...] = (),
                    **kw: Any) -> Job:
        """`crx convert` into a file of its own. Without `ref`, the
        reference is what `--via-expand` writes, timed as the baseline."""
        out = path(f"out-{name.replace('/', '-')}")
        argv = ["convert", "--to", target, *flags, src, out]
        expand = ["convert", "--via-expand", "--to", target, *flags, src, out]
        baseline = base_s = None
        if ref is None:
            baseline = lambda: cli_call(M, expand)
            (code, _), base_s = watch.time(baseline)
            ref = _read(out) if code == 0 else None
        # a reference that breaks its closed form fails the job, every pass
        if ref is not None and closed_form not in (None, _payload_lines(ref)):
            ref = None
        return Job(name, target, lambda: cli_call(M, argv),
                   lambda res: ref is not None and res[0] == 0 and _read(out) == ref,
                   baseline=baseline, baseline_s=base_s, **kw)

    # wide files: one text per rung as rle, bisection grammar and slp
    for m in WIDE_RUNGS:
        runs = run_sequence(rng, m, 1, 3)
        text = M.model.Text(expand_runs(runs))
        grammar = M.codecs.naive_bisection(text)
        slp = M.codecs.grammar_to_slp(grammar)
        f_rle = write_container(f"w{m}.rle", C.make_rle_container(M.model.RleString(runs), SIGMA))
        f_gr = write_container(f"w{m}.grammar", C.make_grammar_container(grammar, SIGMA))
        f_slp = write_container(f"w{m}.slp", C.make_slp_container(slp, SIGMA))
        ref_slp = C.serialize(C.make_slp_container(slp, SIGMA))
        kw = dict(lane="wide", size=m)
        jobs.append(convert_job(f"wide/m{m}/bisection", "bisection", f_rle, **kw))
        jobs.append(convert_job(f"wide/m{m}/rle", "rle", f_slp, **kw))
        jobs.append(convert_job(f"wide/m{m}/slp", "slp", f_gr, ref_slp, **kw))
        info = {"format": "slp", "n": str(slp.n), "N": str(len(text))}
        jobs.append(Job(
            f"wide/m{m}/info", "info", lambda f=f_slp: cli_call(M, ["info", f]),
            lambda res, info=info: res[0] == 0 and info.items() <= dict(
                line.split(" ", 1) for line in res[1].splitlines()).items(),
            peak=m == WIDE_RUNGS[0], **kw))

    # giant files: N up to 3 * 2^30 in a few runs, each as rle and as slp;
    # the slp lane must write what the rle lane writes
    l2_head = rng.randint(1 << 20, 1 << 21)
    giants = {
        "g1": ((0, 1 << 30), (1, 1 << 30)),
        "g2": run_sequence(rng, 3, 1 << 28, 1 << 30),
        "l1": ((rng.randrange(SIGMA), 1 << 20),),
        "l2": tuple(zip(rng.sample(range(SIGMA), 2), (l2_head, (3 << 20) - l2_head))),
    }
    closed_forms = {("g1", "lz77"): 62, ("l1", "lz78"): 1448}
    files = {}
    for g, runs in giants.items():
        r = M.model.RleString(runs)
        f_rle = write_container(f"{g}.rle", C.make_rle_container(r, SIGMA))
        f_slp = write_container(f"{g}.slp", C.make_slp_container(
            M.from_rle.rle_as_slp(r), SIGMA))
        files[g] = f_rle, f_slp
        lz78 = ("lz78",) if g in ("l1", "l2") else ()
        for target, flags in [("lz77", ()), ("lz77", ("--self-ref",)), ("repair", ()),
                              ("bisection", ())] + [(t, ()) for t in lz78]:
            label = f"{target}{'-selfref' if flags else ''}"
            ref_path = path(f"ref-{g}-{label}")
            code, _ = cli_call(M, ["convert", "--to", target, *flags, f_rle, ref_path])
            ref = _read(ref_path) if code == 0 else None
            want = closed_forms.get((g, label))
            jobs.append(convert_job(f"giant/{g}/rle-{label}", target, f_rle, ref, want,
                                    flags=flags))
            if target == "bisection" or target in lz78 or (g, label) == ("g1", "lz77"):
                jobs.append(convert_job(f"giant/{g}/slp-{label}", target, f_slp, ref, want))
        jobs.append(convert_job(f"giant/{g}/slp-rle", "rle", f_slp,
                                C.serialize(C.make_rle_container(r, SIGMA))))
        for f in (f_rle, f_slp):
            jobs.append(Job(f"giant/{g}/info-{f.rpartition('.')[2]}", "info",
                            lambda f=f: cli_call(M, ["info", f]),
                            lambda res, n=r.length: res[0] == 0 and f"\nN {n}\n" in res[1]))
    jobs.append(Job("giant/g1/verify-equal", "verify",
                    lambda: cli_call(M, ["verify", *files["g1"]]),
                    _equals((0, "equal\n")), peak=True))
    n2 = sum(e for _, e in giants["g2"])
    pos = rng.randint(n2 // 2, n2)
    f_mut = write_container("g2x.slp", C.make_slp_container(
        M.from_rle.rle_as_slp(M.model.RleString(mutate_runs(giants["g2"], pos))), SIGMA))
    jobs.append(Job("giant/g2/verify-differ", "verify",
                    lambda: cli_call(M, ["verify", files["g2"][1], f_mut]),
                    _equals((1, f"differ {pos}\n")), peak=True))

    # moderate files: an rle container against the slp of the same text
    r = M.model.RleString(run_sequence(rng, MODERATE_RUNS, 1, 8))
    f_a = write_container("mod.rle", C.make_rle_container(r, SIGMA))
    f_b = write_container("mod.slp", C.make_slp_container(M.from_rle.rle_as_slp(r), SIGMA))
    jobs.append(Job(f"moderate/m{MODERATE_RUNS}/verify-equal", "verify",
                    lambda: cli_call(M, ["verify", f_a, f_b]),
                    _equals((0, "equal\n")), peak=True))
    return jobs


SETUPS = {
    "rle-ladder": setup_rle_ladder,
    "slp-ladder": setup_slp_ladder,
    "cli-files": setup_cli_files,
}
