"""Jobs, the closed timing loop and the statistics reported from it.

A job is one public call (or one CLI ``main`` call) on inputs made during
set-up, plus a check of its output against a reference also made during
set-up. One caller runs the jobs back to back in one process: the next
job starts only after the previous one returned.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable

MIB = 1024 * 1024

# The host's speed drifts by up to 2x over seconds (other tenants share the
# cores). Every job's wall time is therefore scaled by CALIBRATION_S / c,
# where c is the mean wall time of the fixed loop in calibrate() run just
# before and just after the job: times read as seconds on a host where
# that loop takes CALIBRATION_S, about its time when the host is idle. The
# loop also leaves the allocator and collector in the same state before
# every job, which steadies the times of short calls.
CALIBRATION_S = 0.0035


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop of dict, tuple and list
    work, the kind of work crx does."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    window: list[tuple[int, int]] = []
    for i in range(20_000):
        k = (i * 7919) % 1013
        counts[k] = counts.get(k, 0) + 1
        window.append((k, i))
        if len(window) > 64:
            del window[:32]
    return time.perf_counter() - t0


def scaled(wall_s: float, c_before: float, c_after: float) -> float:
    return wall_s * 2 * CALIBRATION_S / (c_before + c_after)


class Stopwatch:
    """Times single calls in scaled seconds, with a calibration right
    before and right after each. The wall time of the calibration loops
    adds up in overhead_s, so that set-up time can leave it out."""

    def __init__(self) -> None:
        self.overhead_s = 0.0

    def calibrate(self) -> float:
        t0 = time.perf_counter()
        c = calibrate()
        self.overhead_s += time.perf_counter() - t0
        return c

    def time(self, fn: Callable[[], Any]) -> tuple[Any, float]:
        """(output, scaled seconds) of one call."""
        c0 = self.calibrate()
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        return out, scaled(dt, c0, self.calibrate())


@dataclass
class Job:
    name: str                       # unique within a workload
    target: str                     # codec or command the job produces
    run: Callable[[], Any]
    check: Callable[[Any], bool]    # True when the output is correct
    lane: str | None = None         # ladder lane the job's rung belongs to
    size: int | None = None         # compressed size of the rung (runs or rules)
    baseline: Callable[[], Any] | None = None  # expand-and-recompress job
    baseline_s: float | None = None # its scaled seconds, timed during set-up
    peak: bool = False              # measured in the tracemalloc pass

    def baseline_job(self) -> "Job":
        """The baseline as a job of its own, checked like this one."""
        return Job(f"{self.name}/baseline", "baseline", self.baseline, self.check)


@dataclass
class Outcome:
    seconds: float
    ok: bool
    error: str | None = None


def run_job(job: Job) -> Outcome:
    """Time one call; a raise or a wrong output is a failure, never fatal."""
    t0 = time.perf_counter()
    try:
        out = job.run()
    except MemoryError:
        return Outcome(time.perf_counter() - t0, False, "MemoryError")
    except Exception as exc:  # a failed job is counted, the run goes on
        return Outcome(time.perf_counter() - t0, False, type(exc).__name__)
    dt = time.perf_counter() - t0
    try:
        ok = bool(job.check(out))
    except Exception as exc:
        return Outcome(dt, False, f"check: {type(exc).__name__}")
    return Outcome(dt, ok, None if ok else "wrong output")


@dataclass
class LoopResult:
    samples: dict[str, list[float]]   # scaled seconds per job and pass
    wall: dict[str, list[float]]      # the same, unscaled
    attempted: int
    failed: int
    passes: int
    wall_s: float
    errors: dict[str, str]

    @property
    def job_s(self) -> float:
        return sum(sum(v) for v in self.samples.values())


def closed_loop(jobs: list[Job], seconds: float, min_jobs: int = 100,
                min_passes: int = 2,
                before: Callable[[int], None] | None = None) -> LoopResult:
    """Whole passes over the jobs until `seconds` have gone by and at least
    `min_jobs` calls and `min_passes` passes are done. `before(i)` is
    called ahead of the i-th job of each pass."""
    samples: dict[str, list[float]] = {j.name: [] for j in jobs}
    wall: dict[str, list[float]] = {j.name: [] for j in jobs}
    errors: dict[str, str] = {}
    attempted = failed = passes = 0
    t_start = time.perf_counter()
    while True:
        gc.collect()
        c = calibrate()
        for idx, job in enumerate(jobs):
            if before is not None:
                before(idx)
            res = run_job(job)
            c_next = calibrate()   # ends this job's span, starts the next one's
            attempted += 1
            samples[job.name].append(scaled(res.seconds, c, c_next))
            wall[job.name].append(res.seconds)
            c = c_next
            if not res.ok:
                failed += 1
                errors.setdefault(job.name, res.error or "failed")
        passes += 1
        elapsed = time.perf_counter() - t_start
        if elapsed >= seconds and attempted >= min_jobs and passes >= min_passes:
            return LoopResult(samples, wall, attempted, failed, passes, elapsed, errors)


def single_pass(jobs: list[Job],
                before: Callable[[int], None] | None = None) -> LoopResult:
    return closed_loop(jobs, 0.0, min_jobs=0, min_passes=1, before=before)


def peak_pass(jobs: list[Job]) -> tuple[float, int, int, dict[str, float]]:
    """(max peak MiB, attempted, failed, per-job peak MiB) over the jobs
    marked for it, each run alone under tracemalloc."""
    peaks: dict[str, float] = {}
    attempted = failed = 0
    for job in jobs:
        if not job.peak:
            continue
        gc.collect()
        tracemalloc.start()
        try:
            res = run_job(job)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        attempted += 1
        failed += not res.ok
        peaks[job.name] = peak / MIB
    return max(peaks.values(), default=0.0), attempted, failed, peaks


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def job_medians(samples: dict[str, list[float]]) -> dict[str, float]:
    return {name: statistics.median(v) for name, v in samples.items() if v}


def end_to_end(jobs: list[Job], loop: LoopResult) -> dict[str, float]:
    """The end-to-end metrics this job mix can produce, from one untraced
    loop. Per-job medians over passes feed the per-codec, baseline and
    scaling figures."""
    med = job_medians(loop.samples)
    every = [t for v in loop.samples.values() for t in v]
    out = {
        "jobs_per_s": len(every) / sum(every),
        "job_p50_ms": percentile(every, 0.50) * 1e3,
        "job_p90_ms": percentile(every, 0.90) * 1e3,
    }
    for codec in ("lz77", "lz78", "repair", "bisection"):
        hit = [med[j.name] for j in jobs if j.target == codec]
        if hit:
            out[f"to_{codec}_s"] = sum(hit)
    ratios = [j.baseline_s / med[j.name] for j in jobs if j.baseline_s]
    if ratios:
        out["vs_expand_x"] = geomean(ratios)
    rungs: dict[str, dict[int, list[float]]] = {}
    for j in jobs:
        if j.lane is not None:
            rungs.setdefault(j.lane, {}).setdefault(j.size, []).append(med[j.name])
    # per-rung time is the mean job time, so rungs may hold several inputs
    fits = [slope(list(r), [statistics.fmean(t) for t in r.values()])
            for r in rungs.values() if len(r) >= 2]
    if fits:
        out["scaling_exp"] = statistics.fmean(fits)
    return out
