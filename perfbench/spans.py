"""Layer spans recorded from outside the program.

A :class:`Tracer` wraps the public entry points of each layer for the
duration of one traced op, keeps every span in memory as
``(name, start, end, parent, op)`` and restores the originals afterwards,
so untraced ops run the program untouched.  Only layer entry points are
wrapped: the router, policy and service-model objects handed to the
simulator are never replaced, because wrapping them switches the event
core's fast paths off.

Self time is a span's duration minus the time its child spans cover.
Spans nest strictly (one thread, stack discipline), so the covered part is
the sum of the children's durations.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from importlib import import_module
from time import perf_counter

from repro.backends.cache import ExecutionCache
from repro.hardware.accelerator import CogSysAccelerator
from repro.scheduler.schedulers import AdaptiveScheduler
from repro.serving.simulator import ServingSimulator
from repro.serving.trace import RequestTrace

# Modules whose attributes are patched.  ``import a.b as m`` would bind a
# package attribute that shadows the module (``repro.dse.sweep`` is also a
# function), so take them from the import system.
backends_cache = import_module("repro.backends.cache")
dse_sweep = import_module("repro.dse.sweep")
scenarios = import_module("repro.serving.scenarios")
sharding = import_module("repro.serving.sharding")

#: per-layer metrics in output order: name -> unit
LAYER_METRICS = {
    "traffic.self_s": "s",
    "traffic.requests": "count",
    "simulator.run_s": "s",
    "simulator.requests": "count",
    "simulator.mean_batch": "requests",
    "simulator.stream_s": "s",
    "control.self_s": "s",
    "control.actions": "count",
    "control.shed": "count",
    "sessions.self_s": "s",
    "sessions.requests": "count",
    "trace.read_s": "s",
    "trace.chunks": "count",
    "trace.record_s": "s",
    "sharding.self_s": "s",
    "sharding.components": "count",
    "telemetry.windows": "count",
    "exporters.write_s": "s",
    "metrics.summarize_s": "s",
    "backends.self_s": "s",
    "backends.hits": "count",
    "backends.misses": "count",
    "backends.hit_ratio": "ratio",
    "backends.miss_s": "s",
    "workloads.build_s": "s",
    "workloads.builds": "count",
    "scheduler.schedule_s": "s",
    "scheduler.kernels": "count",
    "hardware.kernel_cycles_s": "s",
    "hardware.kernel_cycles_calls": "count",
    "dse.frontier_s": "s",
    "dse.points": "count",
    "gc.pause_s": "s",
    "gc.collections": "count",
    "other.self_s": "s",
    "tracing.coverage": "ratio",
    "tracing.overhead_x": "ratio",
}

#: span name -> self-time metric
_SELF_TIME = {
    "traffic": "traffic.self_s",
    "simulator.run": "simulator.run_s",
    "simulator.stream": "simulator.stream_s",
    "control": "control.self_s",
    "sessions": "sessions.self_s",
    "trace.read": "trace.read_s",
    "sharding": "sharding.self_s",
    "exporters.write": "exporters.write_s",
    "metrics.summarize": "metrics.summarize_s",
    "backends.report": "backends.self_s",
    "workloads.build": "workloads.build_s",
    "scheduler.schedule": "scheduler.schedule_s",
    "hardware.kernel_cycles": "hardware.kernel_cycles_s",
    "dse.frontier": "dse.frontier_s",
    "gc": "gc.pause_s",
    "op": "other.self_s",
}


class Tracer:
    """In-memory span recorder with per-op counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._op: int | None = None
        self._gc_start = 0.0

    # -- spans ----------------------------------------------------------------
    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self._op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> float:
        self._stack.pop()
        span = self.spans[index]
        span[2] = perf_counter()
        return span[2] - span[1]

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[self._op][key] += amount

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span when an op is traced, else plainly."""
        if self._op is None:
            return fn(*args, **kwargs)
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            parent = self._stack[-1] if self._stack else None
            self.spans.append(
                ["gc", self._gc_start, perf_counter(), parent, self._op]
            )
            self.add("gc.collections")

    # -- one traced op --------------------------------------------------------
    @contextmanager
    def op(self, op_id: int):
        """Trace one op: wrap the layer entry points, then restore them."""
        restore = self._install()
        gc.callbacks.append(self._on_gc)
        self._op = op_id
        index = self.begin("op")
        try:
            yield
        finally:
            self.end(index)
            self._op = None
            gc.callbacks.remove(self._on_gc)
            for undo in reversed(restore):
                undo()

    def _install(self) -> list:
        restore = []

        def patch(owner, attr, wrapper_of):
            original = getattr(owner, attr)
            setattr(owner, attr, wrapper_of(original))
            restore.append(lambda: setattr(owner, attr, original))

        def timed(name, count=None):
            def wrapper_of(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    index = self.begin(name)
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        self.end(index)
                    if count is not None:
                        for key, amount in count(result, args).items():
                            self.add(key, amount)
                    return result
                return wrapper
            return wrapper_of

        # Scenario traffic builders live on frozen Scenario records in the
        # preset registry; swap in traced copies for the op.
        presets = scenarios.SCENARIOS
        for name, scenario in list(presets.items()):
            traced = dataclasses.replace(
                scenario,
                traffic=timed(
                    "traffic", lambda r, a: {"traffic.requests": len(r)}
                )(scenario.traffic),
            )
            presets[name] = traced
            restore.append(functools.partial(presets.__setitem__, name, scenario))

        patch(ServingSimulator, "run", timed(
            "simulator.run",
            lambda r, a: {"simulator.requests": r.num_requests,
                          "simulator.batches": r.num_batches},
        ))
        patch(ServingSimulator, "run_stream", timed(
            "simulator.stream",
            lambda r, a: {"telemetry.windows": (
                r.telemetry.num_windows if r.telemetry is not None else 0
            )},
        ))
        patch(scenarios, "run_controlled", timed(
            "control",
            lambda r, a: {
                "control.actions": len(r.provenance["controller"]["actions"]),
                "control.shed": r.provenance["controller"]["shed_admission"],
            },
        ))
        patch(scenarios, "run_sessions", timed(
            "sessions", lambda r, a: {"sessions.requests": r.num_requests}
        ))
        patch(sharding, "run_stream_sharded", timed(
            "sharding",
            lambda r, a: {"sharding.components": r.provenance["shards_effective"]},
        ))
        patch(RequestTrace, "iter_chunks", self._chunk_reader)
        patch(ExecutionCache, "report", self._report)
        patch(backends_cache, "build_workload", timed(
            "workloads.build", lambda r, a: {"workloads.builds": 1}
        ))
        patch(AdaptiveScheduler, "schedule", timed(
            "scheduler.schedule", lambda r, a: {"scheduler.kernels": len(r.entries)}
        ))
        patch(CogSysAccelerator, "kernel_cycles", timed(
            "hardware.kernel_cycles",
            lambda r, a: {"hardware.kernel_cycles_calls": 1},
        ))
        patch(dse_sweep, "pareto_frontier", timed(
            "dse.frontier", lambda r, a: {"dse.points": len(a[0])}
        ))
        return restore

    def _chunk_reader(self, iter_chunks):
        """Time every ``next()`` on a trace's chunk iterator."""

        @functools.wraps(iter_chunks)
        def wrapper(*args, **kwargs):
            chunks = iter_chunks(*args, **kwargs)
            while True:
                index = self.begin("trace.read")
                try:
                    chunk = next(chunks)
                except StopIteration:
                    return
                finally:
                    self.end(index)
                self.add("trace.chunks")
                yield chunk

        return wrapper

    def _report(self, report):
        """Count service-table hits; keep a span only for a miss."""

        @functools.wraps(report)
        def wrapper(cache, workload, batch_size):
            before = cache.cached_reports
            index = self.begin("backends.report")
            try:
                return report(cache, workload, batch_size)
            finally:
                duration = self.end(index)
                if cache.cached_reports > before:
                    self.add("backends.misses")
                    self.add("backends.miss_s", duration)
                else:
                    self.add("backends.hits")
                    if index == len(self.spans) - 1:
                        self.spans.pop()

        return wrapper

    # -- reduction ------------------------------------------------------------
    def op_metrics(self, op_id: int) -> dict:
        """Per-layer self times and counts of one traced op."""
        ops = [(i, span) for i, span in enumerate(self.spans) if span[4] == op_id]
        child_time: dict[int, float] = defaultdict(float)
        for _, (_, start, end, parent, _) in ops:
            if parent is not None:
                child_time[parent] += end - start
        values = {metric: 0.0 for metric in LAYER_METRICS}
        op_duration = 0.0
        for i, (name, start, end, _, _) in ops:
            values[_SELF_TIME[name]] += end - start - child_time[i]
            if name == "op":
                op_duration = end - start
        counts = self.counts[op_id]
        for key, amount in counts.items():
            if key in values:
                values[key] = amount
        hits, misses = counts["backends.hits"], counts["backends.misses"]
        values["backends.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        batches = counts["simulator.batches"]
        values["simulator.mean_batch"] = (
            counts["simulator.requests"] / batches if batches else 0.0
        )
        values["tracing.coverage"] = (
            1.0 - values["other.self_s"] / op_duration if op_duration else 0.0
        )
        return values

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w", encoding="ascii") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")


def median_metrics(per_op: list[dict]) -> dict:
    """Median of each per-layer metric across traced ops."""
    return {
        metric: statistics.median(values[metric] for values in per_op)
        for metric in LAYER_METRICS
        if metric != "tracing.overhead_x"
    }
