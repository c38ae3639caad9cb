"""One-shot seed report: the single-run table of ROADMAP open item 1.

Run with ``python3 bench/run.py --seed-report``. It times, once each:

* ``slp_to_lz77`` / ``slp_to_lz78`` / ``slp_to_bisection`` on the
  program of 150 runs (about 970 rules) against expand + ``naive_*``;
* ``slp_to_lz77`` on a program of about 2,005 rules and on 4 giant runs
  (N about 2.7e9);
* ``parse`` and ``crx convert --to bisection`` on a 100,000-run container.

Every output is checked against the reference codec (or, for the giant
runs, the RLE lane). Each row has its wall seconds and its seconds scaled
as in harness.py. The repeated workloads do not run this: it takes
about a minute.
"""

from __future__ import annotations

import os
import platform
import random
import tempfile
import time
from typing import Any, Callable

from harness import calibrate, scaled
from inputs import SIGMA, run_sequence
from workloads import cli_call, import_crx, smallest_prefix


def _runs_for_rules(M, rng: random.Random, rules: int):
    """Shortest run sequence (exponents 1..50) whose rle_as_slp has at
    least `rules` rules."""
    runs = run_sequence(rng, rules, 1, 50)
    return runs[:smallest_prefix(len(runs), rules, lambda k: M.from_rle.rle_as_slp(
        M.model.RleString(runs[:k])).n)]


def run(seed: int, workdir: str) -> dict:
    M = import_crx(fresh=False)
    rng = random.Random(f"seed-report/{seed}")
    rows: list[dict] = []

    def row(case: str, op: str, fn: Callable[[], Any], check: Callable[[Any], bool],
            **sizes: int) -> Any:
        c0 = calibrate()
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        rows.append({"case": case, "op": op, "seconds": dt,
                     "scaled_seconds": scaled(dt, c0, calibrate()),
                     "correct": bool(check(out)), **sizes})
        return out

    def lane(case: str, s, ops: tuple[str, ...]) -> None:
        text = M.model.expand_slp(s)
        for op in ops:
            direct = getattr(M.from_slp, f"slp_to_{op}")
            naive = getattr(M.codecs, f"naive_{op}")
            ref = row(case, f"expand + naive_{op}",
                      lambda: naive(M.model.expand_slp(s)), lambda out: True,
                      n=s.n, N=len(text))
            row(case, f"slp_to_{op}", lambda: direct(s), lambda out: out == ref,
                n=s.n, N=len(text))

    r150 = M.model.RleString(run_sequence(rng, 150, 1, 50))
    lane("rle 150 runs as slp", M.from_rle.rle_as_slp(r150), ("lz77", "bisection", "lz78"))
    r2005 = M.model.RleString(_runs_for_rules(M, rng, 2005))
    lane("rle runs as slp, n~2005", M.from_rle.rle_as_slp(r2005), ("lz77",))

    giant = M.model.RleString(run_sequence(rng, 4, 5 * 10**8, 8 * 10**8))
    s = M.from_rle.rle_as_slp(giant)
    ref = M.from_rle.rle_to_lz77(giant)
    row("4 giant runs as slp", "slp_to_lz77", lambda: M.from_slp.slp_to_lz77(s),
        lambda out: out == ref, n=s.n, N=giant.length)

    wide = M.model.RleString(run_sequence(rng, 100_000, 1, 8))
    C = M.container
    data = C.serialize(C.make_rle_container(wide, SIGMA))
    row("100k-run container", "parse", lambda: C.parse(data),
        lambda out: out.payload == wide, n=len(wide.runs), N=wide.length)
    with tempfile.TemporaryDirectory(dir=workdir, prefix="seed-report-") as tmp:
        src, dst = os.path.join(tmp, "in.rle"), os.path.join(tmp, "out.grammar")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(data)
        want = C.serialize(C.make_grammar_container(
            M.codecs.naive_bisection(M.model.expand_rle(wide)), SIGMA))

        def converted(res) -> bool:
            with open(dst, encoding="utf-8") as fh:
                return res[0] == 0 and fh.read() == want

        row("100k-run container", "crx convert --to bisection",
            lambda: cli_call(M, ["convert", "--to", "bisection", src, dst]), converted,
            n=len(wide.runs), N=wide.length)
    return {
        "report": "seed",
        "seed": seed,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "rows": rows,
    }
