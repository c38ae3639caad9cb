"""Tests for the benchmark's own parts (not part of the library suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import filecmp
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def M():
    return workloads.import_crx(fresh=False)


@pytest.fixture
def small_ladders(monkeypatch):
    monkeypatch.setattr(workloads, "RLE_LANES", {
        "moderate": ((8, 16), 1, 50), "incompressible": ((16, 32), 1, 2)})
    monkeypatch.setattr(workloads, "SLP_RUNGS", (16, 32))
    monkeypatch.setattr(workloads, "SLP_RULES", 32)
    monkeypatch.setattr(workloads, "SLP_PEAK_RUNG", 16)


# ---------------------------------------------------------------- inputs

def test_generators_repeat_for_a_seed():
    for make in (lambda r: inputs.run_sequence(r, 50, 1, 9),
                 lambda r: inputs.block_text(r, 300),
                 lambda r: inputs.random_text(r, 300)):
        assert make(random.Random(7)) == make(random.Random(7))
        assert make(random.Random(7)) != make(random.Random(8))


def test_run_sequences_are_maximal():
    runs = inputs.run_sequence(random.Random(1), 500, 1, 3)
    assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))


def test_mutate_runs_changes_one_position():
    rng = random.Random(3)
    runs = inputs.run_sequence(rng, 40, 1, 4)
    text = inputs.expand_runs(runs)
    for pos in (1, len(text), rng.randint(1, len(text))):
        new = inputs.mutate_runs(runs, pos)
        assert all(a[0] != b[0] for a, b in zip(new, new[1:]))
        got = inputs.expand_runs(new)
        assert [i + 1 for i in range(len(text)) if got[i] != text[i]] == [pos]


def _setup_files(M, workload: str, seed: int, workdir: Path) -> list:
    workdir.mkdir()
    return workloads.SETUPS[workload](M, random.Random(f"{workload}/{seed}"), str(workdir),
                                      harness.Stopwatch())


def test_same_seed_gives_identical_containers(M, tmp_path):
    _setup_files(M, "cli-files", 5, tmp_path / "a")
    _setup_files(M, "cli-files", 5, tmp_path / "b")
    _setup_files(M, "cli-files", 6, tmp_path / "c")
    names = sorted(f for f in os.listdir(tmp_path / "a")
                   if not f.startswith(("out-", "ref-")))
    assert names == sorted(f for f in os.listdir(tmp_path / "b")
                           if not f.startswith(("out-", "ref-")))
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b",
                                               names, shallow=False)
    assert mismatch == [] and errors == [] and match == names
    _, differ, _ = filecmp.cmpfiles(tmp_path / "a", tmp_path / "c", names, shallow=False)
    assert differ


def test_same_seed_gives_identical_programs(M, small_ladders):
    def programs(seed):
        rng = random.Random(seed)
        return [workloads._family_program(M, rng, fam, 32)[:2]
                for fam in workloads.SLP_FAMILIES]
    a, b = programs(4), programs(4)
    assert [(s.rules, t) for s, t in a] == [(s.rules, t) for s, t in b]
    assert [t for _, t in a] != [t for _, t in programs(5)]


# ---------------------------------------------------------------- harness

def test_statistics():
    assert harness.percentile(list(range(1, 101)), 0.5) == 50
    assert harness.percentile(list(range(1, 101)), 0.9) == 90
    assert harness.slope([1, 2, 4, 8], [3, 12, 48, 192]) == pytest.approx(2.0)
    assert harness.geomean([0.5, 2.0, 4.0, 0.25]) == pytest.approx(1.0)


def test_failures_are_counted_not_raised():
    def boom():
        raise MemoryError

    jobs = [harness.Job("ok", "x", lambda: 1, lambda out: out == 1),
            harness.Job("wrong", "x", lambda: 2, lambda out: out == 1),
            harness.Job("raises", "x", boom, lambda out: True)]
    res = harness.closed_loop(jobs, 0.0, min_jobs=6)
    assert res.passes == 2 and res.attempted == 6 and res.failed == 4
    assert res.errors == {"wrong": "wrong output", "raises": "MemoryError"}


# ---------------------------------------------------------------- tracing

class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_on_a_synthetic_span_tree():
    # a [0, 10] calls b [1, 4] and c [5, 9]; c calls b [6, 7]; d calls d
    tr = tracing.Tracer(FakeClock([0, 1, 4, 5, 6, 7, 9, 10, 20, 21, 23, 30]))
    b = tr.wrap("b", lambda: None)
    c = tr.wrap("c", lambda: b())
    a = tr.wrap("a", lambda: (b(), c()))
    d_inner = tr.wrap("d", lambda: None)
    d = tr.wrap("d", lambda: d_inner())
    a()
    d()
    st = tracing.layer_stats(tr)
    assert st["a"].calls == 1 and st["a"].self_s == 3 and st["a"].inclusive_s == 10
    assert st["b"].calls == 2 and st["b"].self_s == 4 and st["b"].inclusive_s == 4
    assert st["c"].self_s == 3 and st["c"].inclusive_s == 4
    # nested calls of one name: inclusive time counts the outer span only
    assert st["d"].calls == 2 and st["d"].inclusive_s == 10 and st["d"].self_s == 10
    assert list(tr.parent) == [-1, 0, 0, 2, -1, 4]


def _snapshot(M) -> dict:
    snap = {}
    for name, mod in M.modules.items():
        snap.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (M.model.Slp, M.suffix.MetaText):
        snap.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snap


def _library_calls(M, tmp: Path) -> list:
    rng = random.Random(11)
    r = M.model.RleString(inputs.run_sequence(rng, 60, 1, 9))
    s = M.from_rle.rle_as_slp(r)
    src, dst = str(tmp / "in.rle"), str(tmp / "out.grammar")
    (tmp / "in.rle").write_text(M.container.serialize(M.container.make_rle_container(r, 4)))
    code, _ = workloads.cli_call(M, ["convert", "--to", "bisection", src, dst])
    return [M.from_rle.rle_to_lz77(r), M.from_rle.rle_to_lz78(r),
            M.from_rle.rle_to_repair(r), M.from_slp.slp_to_lz78(s),
            M.from_slp.slp_to_bisection(s), M.slp_ops.first_mismatch(s, s),
            code, (tmp / "out.grammar").read_text()]


def test_wrappers_keep_outputs_and_uninstall_fully(M, tmp_path):
    before = _snapshot(M)
    plain = _library_calls(M, tmp_path)
    tr = tracing.Tracer()
    tr.install(M.modules)
    try:
        assert M.from_slp.occurrences is not before[("crx.from_slp", "occurrences")]
        traced = _library_calls(M, tmp_path)
    finally:
        tr.uninstall()
    assert traced == plain
    names = {tr.span_name(i) for i in range(len(tr))}
    assert {"cli.main", "container.parse", "suffix.meta_lce", "slp_ops.occurrences",
            "model.slp_build", "from_rle.rle_to_lz77"} <= names
    after = _snapshot(M)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _traced_counts(M, workload: str, tmp: Path) -> dict:
    jobs = _setup_files(M, workload, 3, tmp)
    jobs += [j.baseline_job() for j in jobs if j.baseline is not None]
    tr = tracing.Tracer()
    tr.install(M.modules)
    try:
        res = harness.single_pass(jobs, before=lambda i: setattr(tr, "job_id", i))
    finally:
        tr.uninstall()
    assert res.failed == 0
    return {k: v for k, v in tracing.per_layer_metrics(tr).items()
            if k.endswith((".calls", ".rules", "bytes_read", "bytes_written",
                           "exit_nonzero", "hit_ratio"))}


@pytest.mark.parametrize("workload", ["rle-ladder", "slp-ladder"])
def test_traced_counts_repeat(M, small_ladders, tmp_path, workload):
    a = _traced_counts(M, workload, tmp_path / "a")
    b = _traced_counts(M, workload, tmp_path / "b")
    assert a == b
    calls = "suffix.meta_lce.calls" if workload == "rle-ladder" else "model.slp_build.calls"
    assert a[calls] > 0


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set(tracing.per_layer_metrics(tracing.Tracer())) | {"trace.overhead_ratio"}
    assert names == {m["name"] for m in spec["per_layer"]}


# ---------------------------------------------------------------- command

def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "rle-ladder",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
