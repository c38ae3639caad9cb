"""Outside-in tracing: timing wrappers installed on crx's module attributes.

Callers inside crx look functions up by name in their own module (for
example ``crx.from_slp`` binds ``occurrences`` at import), so a wrapper
replaces every module attribute that holds the original function, and
methods are replaced on their class. Each wrapped call records one span
(name, start, end, parent span, job id) in memory; ``uninstall`` puts
every original back. No library code changes.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable

MODULES = ("crx", "crx.model", "crx.codecs", "crx.from_rle", "crx.from_slp",
           "crx.slp_ops", "crx.suffix", "crx.container", "crx.cli")


@dataclass(frozen=True)
class Target:
    span: str        # span name, also the per-layer metric prefix
    module: str      # defining module
    attr: str        # function name, or Class.method
    on_call: Callable[["Tracer", tuple], None] | None = None
    on_result: Callable[["Tracer", Any], None] | None = None


def _count_rules(tr: "Tracer", args: tuple) -> None:
    tr.counters["model.slp_build.rules"] += len(args[1])


def _count_read(tr: "Tracer", args: tuple) -> None:
    tr.counters["container.bytes_read"] += len(args[0])


def _count_written(tr: "Tracer", out: Any) -> None:
    tr.counters["container.bytes_written"] += len(out)


def _hit(key: str) -> Callable[["Tracer", Any], None]:
    def record(tr: "Tracer", out: Any) -> None:
        tr.counters[key] += bool(out)
    return record


def _exit_code(tr: "Tracer", out: Any) -> None:
    tr.counters["cli.exit_nonzero"] += out != 0


TARGETS = (
    Target("model.slp_build", "crx.model", "Slp.build", on_call=_count_rules),
    *(Target("model.expand", "crx.model", f"expand_{k}")
      for k in ("rle", "lz77", "lz78", "grammar", "slp")),
    *(Target("codecs.naive", "crx.codecs", f)
      for f in ("rle_encode", "naive_lz77", "naive_lz78", "naive_repair",
                "naive_bisection")),
    Target("codecs.grammar_to_slp", "crx.codecs", "grammar_to_slp"),
    Target("slp_ops.substring_slp", "crx.slp_ops", "substring_slp"),
    Target("slp_ops.occurrences", "crx.slp_ops", "occurrences"),
    Target("slp_ops.prefix_match", "crx.slp_ops", "prefix_match",
           on_result=_hit("slp_ops.prefix_match.hits")),
    Target("slp_ops.slp_equals", "crx.slp_ops", "slp_equals",
           on_result=_hit("slp_ops.slp_equals.hits")),
    Target("slp_ops.annotate_runs", "crx.slp_ops", "annotate_runs"),
    Target("slp_ops.char_at", "crx.slp_ops", "char_at"),
    Target("slp_ops.reachable_vars", "crx.slp_ops", "reachable_vars"),
    Target("slp_ops.first_mismatch", "crx.slp_ops", "first_mismatch"),
    Target("suffix.rank_runs", "crx.suffix", "rank_runs"),
    Target("suffix.meta_lce", "crx.suffix", "MetaText.meta_lce"),
    Target("suffix.char_lce", "crx.suffix", "MetaText.char_lce"),
    *(Target(f"from_rle.rle_to_{k}", "crx.from_rle", f"rle_to_{k}")
      for k in ("lz77", "lz78", "repair", "bisection")),
    Target("from_rle.rle_as_slp", "crx.from_rle", "rle_as_slp"),
    *(Target(f"from_slp.slp_to_{k}", "crx.from_slp", f"slp_to_{k}")
      for k in ("rle", "lz77", "lz78", "bisection")),
    Target("container.parse", "crx.container", "parse", on_call=_count_read),
    Target("container.validate", "crx.container", "validate"),
    Target("container.serialize", "crx.container", "serialize",
           on_result=_count_written),
    Target("cli.main", "crx.cli", "main", on_result=_exit_code),
)

COUNTERS = ("model.slp_build.rules", "container.bytes_read",
            "container.bytes_written", "slp_ops.prefix_match.hits",
            "slp_ops.slp_equals.hits", "cli.exit_nonzero")


class Tracer:
    """Span recorder. Spans live in parallel arrays until written out."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.job_id = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def __len__(self) -> int:
        return len(self.name)

    def span_name(self, idx: int) -> str:
        return self.names[self.name[idx]]

    def wrap(self, span: str, fn: Callable, on_call=None, on_result=None) -> Callable:
        sid = self._name_id.setdefault(span, len(self._name_id))
        if sid == len(self.names):
            self.names.append(span)
        tracer = self
        clock = self.clock

        def wrapper(*args, **kwargs):
            idx = len(tracer.name)
            tracer.name.append(sid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.job.append(tracer.job_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            if on_call is not None:
                on_call(tracer, args)
            tracer._stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if on_result is not None:
                on_result(tracer, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap every target in `modules` (name -> module, see MODULES)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for t in TARGETS:
            owner = modules[t.module]
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(t.span, raw.__func__,
                                                t.on_call, t.on_result))
                else:
                    new = self.wrap(t.span, raw, t.on_call, t.on_result)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(owner, t.attr)
            new = self.wrap(t.span, orig, t.on_call, t.on_result)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def write(self, path: str) -> None:
        """One tab-separated line per span: name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\tjob\n")
            for i in range(len(self)):
                fh.write(f"{self.span_name(i)}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.job[i]}\n")


@dataclass
class LayerStats:
    calls: int = 0
    inclusive_s: float = 0.0   # outermost spans of this name only
    self_s: float = 0.0


def layer_stats(tr: Tracer) -> dict[str, LayerStats]:
    """Per span name: call count, inclusive time (nested calls of the
    same name are not counted twice) and self time (span time minus the
    time of its direct child spans)."""
    n = len(tr)
    child_s = [0.0] * n
    for i in range(n):
        p = tr.parent[i]
        if p >= 0:
            child_s[p] += tr.end[i] - tr.start[i]
    stats = {name: LayerStats() for name in tr.names}
    for i in range(n):
        st = stats[tr.span_name(i)]
        dur = tr.end[i] - tr.start[i]
        st.calls += 1
        st.self_s += dur - child_s[i]
        p = tr.parent[i]
        while p >= 0 and tr.name[p] != tr.name[i]:
            p = tr.parent[p]
        if p < 0:
            st.inclusive_s += dur
    return stats


def per_layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced run.
    Layers the run never called read 0."""
    st = layer_stats(tr)

    def get(span: str) -> LayerStats:
        return st.get(span, LayerStats())

    out: dict[str, float] = {
        "model.slp_build.calls": get("model.slp_build").calls,
        "model.slp_build.rules": tr.counters["model.slp_build.rules"],
        "model.slp_build.s": get("model.slp_build").inclusive_s,
    }
    for f in ("substring_slp", "occurrences", "prefix_match", "slp_equals",
              "annotate_runs", "char_at"):
        out[f"slp_ops.{f}.calls"] = get(f"slp_ops.{f}").calls
        out[f"slp_ops.{f}.s"] = get(f"slp_ops.{f}").inclusive_s
    out["slp_ops.reachable_vars.calls"] = get("slp_ops.reachable_vars").calls
    out["slp_ops.first_mismatch.s"] = get("slp_ops.first_mismatch").inclusive_s
    for f in ("prefix_match", "slp_equals"):
        calls = get(f"slp_ops.{f}").calls
        hits = tr.counters[f"slp_ops.{f}.hits"]
        out[f"slp_ops.{f}.hit_ratio"] = hits / calls if calls else 0.0
    for f in ("rank_runs", "meta_lce", "char_lce"):
        out[f"suffix.{f}.calls"] = get(f"suffix.{f}").calls
        out[f"suffix.{f}.s"] = get(f"suffix.{f}").inclusive_s
    for k in ("lz77", "lz78", "repair", "bisection"):
        out[f"from_rle.rle_to_{k}.self_s"] = get(f"from_rle.rle_to_{k}").self_s
    out["from_rle.rle_as_slp.s"] = get("from_rle.rle_as_slp").inclusive_s
    for k in ("rle", "lz77", "lz78", "bisection"):
        out[f"from_slp.slp_to_{k}.self_s"] = get(f"from_slp.slp_to_{k}").self_s
    for f in ("parse", "validate", "serialize"):
        out[f"container.{f}.s"] = get(f"container.{f}").inclusive_s
    out["container.bytes_read"] = tr.counters["container.bytes_read"]
    out["container.bytes_written"] = tr.counters["container.bytes_written"]
    out["cli.main.calls"] = get("cli.main").calls
    out["cli.main.self_s"] = get("cli.main").self_s
    out["cli.exit_nonzero"] = tr.counters["cli.exit_nonzero"]
    out["codecs.naive.s"] = get("codecs.naive").inclusive_s
    out["codecs.grammar_to_slp.s"] = get("codecs.grammar_to_slp").inclusive_s
    out["model.expand.s"] = get("model.expand").inclusive_s
    return out
