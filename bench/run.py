"""crx benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload rle-ladder --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; crx is imported from its ``src``
directory. The run happens in a child process with an address-space
limit, so a memory blow-up fails jobs instead of the machine. Human
readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).

    python3 bench/run.py --seed-report

prints the one-shot seed report (see seed_report.py) instead.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("rle-ladder", "slp-ladder", "cli-files")
ADDRESS_SPACE_LIMIT = 3 << 30   # bytes, for the child process only
CHILD_TIMEOUT_S = 170
SETUP_REPEATS = 3

# printed metrics that BENCHMARK.json leaves out: not every workload has
# them, or they are 0 on a correct run
EXTRA_UNITS = {"to_repair_s": "s", "error_rate": "ratio"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seed-report", action="store_true", dest="seed_report")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seed_report and args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------------- child

def _exit_on_signal(signum: int, frame) -> None:
    raise SystemExit(128 + signum)


def child_main(args: argparse.Namespace) -> int:
    signal.signal(signal.SIGTERM, _exit_on_signal)   # so `finally` cleans up
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  crx's dependency; its import is not set-up work

    OUT_DIR.mkdir(exist_ok=True)
    if args.seed_report:
        import seed_report
        report = seed_report.run(args.seed, str(OUT_DIR))
        (OUT_DIR / "seed_report.json").write_text(json.dumps(report, indent=1) + "\n")
        print(json.dumps(report))
        return 0
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        return run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def setup(workload: str, seed: int, work: str, watch):
    """Import crx afresh, make inputs and references, write files: the
    set-up that setup_s times. Returns (crx modules, jobs)."""
    import workloads
    M = workloads.import_crx(fresh=True)
    if not Path(M.modules["crx"].__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"crx was imported from outside {SRC}")
    rng = random.Random(f"{workload}/{seed}")
    jobs = workloads.SETUPS[workload](M, rng, work, watch)
    return M, jobs


def run_workload(args: argparse.Namespace, work: str) -> int:
    import harness
    import tracing

    spec = load_spec()
    reps = 1 if args.trace else SETUP_REPEATS
    setup_s: list[float] = []
    baselines: dict[str, list[float]] = {}
    for k in range(reps):
        rep_dir = os.path.join(work, f"setup{k}")
        os.mkdir(rep_dir)
        watch = harness.Stopwatch()
        c0 = harness.calibrate()
        t0 = time.perf_counter()
        M, jobs = setup(args.workload, args.seed, rep_dir, watch)
        dt = time.perf_counter() - t0 - watch.overhead_s
        setup_s.append(harness.scaled(dt, c0, harness.calibrate()))
        for j in jobs:
            if j.baseline_s is not None:
                baselines.setdefault(j.name, []).append(j.baseline_s)
    for j in jobs:
        if j.name in baselines:
            j.baseline_s = statistics.median(baselines[j.name])
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs per pass")

    if args.trace:
        jobs += [j.baseline_job() for j in jobs if j.baseline is not None]
        warm = harness.single_pass(jobs)   # first touches of memory and files
        plain = harness.single_pass(jobs)
        tracer = tracing.Tracer()
        tracer.install(M.modules)
        try:
            traced = harness.single_pass(
                jobs, before=lambda idx: setattr(tracer, "job_id", idx))
        finally:
            tracer.uninstall()
            tracer.job_id = -1
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(str(span_file))
        metrics = tracing.per_layer_metrics(tracer)
        metrics["trace.overhead_ratio"] = traced.job_s / plain.job_s
        print(f"spans {len(tracer)} written to {span_file.relative_to(ROOT)}")
        attempted = warm.attempted + plain.attempted + traced.attempted
        failed = warm.failed + plain.failed + traced.failed
        errors = {**warm.errors, **plain.errors, **traced.errors}
        names = spec["per_layer"]
    else:
        loop = harness.closed_loop(jobs, args.seconds)
        metrics = harness.end_to_end(jobs, loop)
        peak, p_att, p_fail, peaks = harness.peak_pass(jobs)
        metrics["peak_mib"] = peak
        metrics["setup_s"] = statistics.median(setup_s)
        attempted = loop.attempted + p_att
        failed = loop.failed + p_fail
        metrics["error_rate"] = failed / attempted
        errors = loop.errors
        print(f"passes {loop.passes}, job samples {loop.attempted}, "
              f"loop wall {loop.wall_s:.2f} s, peak jobs {len(peaks)}, "
              f"set-up samples {[round(s, 3) for s in setup_s]}")
        for name, samples in loop.samples.items():
            print(f"job {name}: median {statistics.median(samples) * 1e3:.3f} ms scaled, "
                  f"{statistics.median(loop.wall[name]) * 1e3:.3f} ms wall"
                  + (f", peak {peaks[name]:.2f} MiB" if name in peaks else ""))
        names = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in names} | EXTRA_UNITS
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for name, err in sorted(errors.items()):
        print(f"FAILED {name}: {err}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names},
    }
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------------ parent

def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "crx" / "__init__.py").is_file():
        print(f"error: no crx sources at {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    cmd += ["--seed-report"] if args.seed_report else ["--workload", args.workload]
    signal.signal(signal.SIGTERM, _exit_on_signal)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
    lines = out.splitlines()
    has_result = bool(lines) and _is_json(lines[-1])
    if proc.returncode != 0 or not has_result:
        # keep the progress lines, never a result
        sys.stdout.write("".join(line + "\n" for line in lines[:-1 if has_result else None]))
        print(f"error: benchmark child exited with {proc.returncode}"
              f"{'' if has_result else ' and printed no result'}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


def _is_json(line: str) -> bool:
    try:
        json.loads(line)
    except json.JSONDecodeError:
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
