"""The three benchmark workloads: what one op runs and what it must output.

Each workload builds its own inputs from the seed in :meth:`setup` (which
returns the set-up layer timings it measured), runs
one identical op per :meth:`op` call, and turns an op's raw result into
plain simulated outputs in :meth:`outputs` (outside the timed region).
:meth:`check` tests the invariants that hold for every seed; identity
with the stored expected outputs is checked by the runner for the
default seed only.  Simulated outputs are checked for identity, never
reported as gains: the cycle model is unvalidated against silicon.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from time import perf_counter

from repro.dse import sweep
from repro.dse.grid import get_design_space
from repro.dse.sweep import DesignSpaceSweeper
from repro.serving import (
    Fleet,
    FleetServiceModel,
    get_scenario,
    record_scenario,
    replay_trace,
    run_scenario,
    summarize_result,
    write_jsonl,
)
from repro.serving.control import ControllerConfig
from repro.workloads.registry import WORKLOAD_BUILDERS

WORKLOADS = tuple(sorted(WORKLOAD_BUILDERS))


def _served(result, summary: dict, arrived: int | None = None) -> dict:
    """Request accounting and simulated latency of one serving run."""
    return {
        "arrived": result.requests_arrived if arrived is None else arrived,
        "completed": result.num_requests,
        "shed": result.requests_shed,
        "lost": result.requests_lost,
        "p50_ms": summary["p50_ms"],
        "p99_ms": summary["p99_ms"],
    }


def _check_served(name: str, out: dict, arrived: int) -> list[str]:
    errors = []
    if out["completed"] + out["shed"] + out["lost"] != arrived:
        errors.append(
            f"{name}: completed {out['completed']} + shed {out['shed']} + "
            f"lost {out['lost']} != arrived {arrived}"
        )
    if out["completed"] < 1 or not 0 < out["p50_ms"] <= out["p99_ms"]:
        errors.append(f"{name}: implausible completion or latency {out}")
    return errors


class _Workload:
    """What the runner needs from a workload; defaults for the simple ones."""

    name: str
    #: whether set-up ends with an untimed warm-up op
    warm: bool

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def outputs(self, raw):
        """Plain, JSON-able simulated outputs of one op's raw result."""
        return raw

    def table_size(self) -> int:
        """Service-table entries the timed ops are served from."""
        return 0

    def close(self) -> None:
        """Remove what set-up left on disk."""


class ServePresets(_Workload):
    """Warm ``repro serve PRESET``: three presets on warmed service tables."""

    name = "serve_presets"
    #: (preset, load_scale, duration_scale, controller policy).  The
    #: controller runs ``ramp_surge``, not ``flash_crowd``: flash_crowd's
    #: long bursts make its request count vary 2.3x from seed to seed,
    #: ramp_surge's by about 3%.
    CASES = (
        ("steady", 4.0, 2.0, None),
        ("ramp_surge", 4.0, 1.0, "target_util"),
        ("session_surge", 4.0, 4.0, None),
    )
    warm = True

    def setup(self) -> dict:
        # All three presets run on 2-chip CogSys fleets; the controller
        # reads chip 0's model for every chip it provisions.
        self.model = FleetServiceModel(Fleet(num_chips=2, router="jsq"))
        return {}

    def table_size(self) -> int:
        return self.model.cached_reports

    def op(self, tracer) -> dict:
        out = {}
        for name, load, duration, policy in self.CASES:
            scenario, result = run_scenario(
                name, seed=self.seed, load_scale=load,
                duration_scale=duration, service_model=self.model,
                controller=ControllerConfig(policy=policy) if policy else None,
            )
            summary = tracer.call(
                "metrics.summarize", summarize_result, result, scenario.slo_s
            )
            out[name] = _served(result, summary)
            if policy:
                actions = result.provenance["controller"]["actions"]
                out[name]["controller_actions"] = len(actions)
        return out

    def items(self, out: dict) -> int:
        return sum(case["completed"] for case in out.values())

    def check(self, out: dict) -> list[str]:
        errors = []
        for name, load, duration, _ in self.CASES:
            scenario = get_scenario(name)
            # Open-loop presets: arrivals are the generated traffic, counted
            # independently of the simulator.  Closed-loop users generate
            # arrivals inside the loop, so only the result accounts for them.
            arrived = (
                out[name]["arrived"] if scenario.sessions is not None
                else len(scenario.traffic(self.seed, load, duration))
            )
            errors += _check_served(name, out[name], arrived)
        return errors


class TraceReplay(_Workload):
    """``repro serve --trace FILE``: two replays of one recorded trace."""

    name = "trace_replay"
    LOAD, DURATION, WINDOW_S = 16.0, 2.0, 0.01
    warm = True
    tmp = None

    def setup(self) -> dict:
        self.close()
        self.tmp = Path(tempfile.mkdtemp(prefix="trace-", dir=self.workdir))
        self.path = self.tmp / "steady.jsonl"
        self.slo_s = get_scenario("steady").slo_s
        start = perf_counter()
        info = record_scenario(
            self.path, "steady", seed=self.seed, load_scale=self.LOAD,
            duration_scale=self.DURATION,
        )
        record_s = perf_counter() - start
        self.arrived = info.num_requests
        self.model2 = FleetServiceModel(Fleet(num_chips=2, router="jsq"))
        self.model8 = FleetServiceModel(Fleet(num_chips=8, router="round_robin"))
        return {"trace.record_s": record_s}

    def table_size(self) -> int:
        return self.model2.cached_reports + self.model8.cached_reports

    def op(self, tracer) -> dict:
        # (a) two coupled chips: deep-saturation water-fill path + telemetry
        jsq = replay_trace(
            self.path, num_chips=2, router="jsq", service_model=self.model2,
            telemetry_window_s=self.WINDOW_S,
        )
        tracer.call(
            "exporters.write", write_jsonl, self.tmp / "windows.jsonl",
            jsq.telemetry,
        )
        jsq_summary = tracer.call(
            "metrics.summarize", summarize_result, jsq, self.slo_s
        )
        # (b) eight round-robin chips in four shards, run in this process:
        # the host-speed probe cannot see fork workers, and with the
        # default pool the op's time followed their cores, not the program.
        sharded = replay_trace(
            self.path, num_chips=8, router="round_robin",
            service_model=self.model8, shards=4, shard_workers=1,
        )
        sharded_summary = tracer.call(
            "metrics.summarize", summarize_result, sharded, self.slo_s
        )
        return {
            "jsq2": {
                **_served(jsq, jsq_summary, self.arrived),
                "telemetry_windows": jsq.telemetry.num_windows,
            },
            "rr8_shards4": {
                **_served(sharded, sharded_summary, self.arrived),
                "components": sharded.provenance["shards_effective"],
            },
        }

    def items(self, out: dict) -> int:
        return sum(case["completed"] for case in out.values())

    def check(self, out: dict) -> list[str]:
        errors = []
        for name, case in out.items():
            errors += _check_served(name, case, self.arrived)
        if out["jsq2"]["telemetry_windows"] < 1:
            errors.append("jsq2: no telemetry windows")
        return errors

    def close(self) -> None:
        if self.tmp is not None:
            for child in self.tmp.iterdir():
                child.unlink()
            self.tmp.rmdir()
            self.tmp = None


class DseCold(_Workload):
    """``repro dse run`` cold: a fresh sweeper every op, so every report misses.

    The sweep's inputs (space, workloads, batch sizes) are fixed and the
    models hold no randomness, so the seed changes nothing here.
    """

    name = "dse_cold"
    SPACE, BATCHES = "memory", (1, 8, 32)
    warm = False

    def setup(self) -> dict:
        self.points = get_design_space(self.SPACE).points(smoke=True)
        return {}

    def op(self, tracer):
        sweeper = DesignSpaceSweeper()
        rows = sweep(
            self.SPACE, workloads=WORKLOADS, batch_sizes=self.BATCHES,
            smoke=True, sweeper=sweeper,
        )
        return rows, sweeper

    def outputs(self, raw) -> dict:
        rows, sweeper = raw
        cycles = {
            (point.name, workload, batch):
                sweeper.cache_for(point).report(workload, batch).total_cycles
            for point in self.points
            for workload in WORKLOADS
            for batch in self.BATCHES
        }
        return {
            "reports": sweeper.cached_reports,
            "points": [
                [row["design"], row["workload"], row["batch"],
                 cycles[row["design"], row["workload"], row["batch"]],
                 row["pareto"]]
                for row in rows
            ],
        }

    def items(self, out: dict) -> int:
        return out["reports"]

    def check(self, out: dict) -> list[str]:
        errors = []
        expected = len(self.points) * len(WORKLOADS) * len(self.BATCHES)
        if out["reports"] != expected or len(out["points"]) != expected:
            errors.append(
                f"expected {expected} cold reports and rows, got "
                f"{out['reports']} reports and {len(out['points'])} rows"
            )
        groups: dict = {}
        for _, workload, batch, cycles, pareto in out["points"]:
            if cycles < 1:
                errors.append(f"non-positive total_cycles for {workload}/{batch}")
            groups[workload, batch] = groups.get((workload, batch), False) or pareto
        if not all(groups.values()):
            errors.append("a (workload, batch) group has no Pareto point")
        return errors


WORKLOAD_CLASSES = {cls.name: cls for cls in (ServePresets, TraceReplay, DseCold)}
