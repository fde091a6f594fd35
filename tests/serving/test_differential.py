"""Differential tests against golden runs of the pre-refactor simulator.

``tests/serving/golden/*.json`` was captured from the original
heapq-per-request event loop (commit ``07b27c3``) on every scenario preset
at ``seed=0, load_scale=1.0, duration_scale=0.1``: the full per-request
record stream, the chip accounting, and the summary/per-workload metric
rows.  The rewritten event core must reproduce every value **exactly** —
same floats, same ordering — proving the ≥5x hot-path rewrite changed no
semantics.  ``ramp_surge.json`` was captured later (commit ``aab4ba7``,
at ``load_scale=2.0`` so the surge saturates both chips) to freeze the
scalar jsq routing reference just before the water-filling coupled engine
landed.  Regenerating these files is only legitimate when serving
semantics change on purpose; the capture recipe is in
``tests/serving/golden/README.md``.

The closed-loop goldens (``session_surge*.json``, ``ramp_surge_*.json``)
pin the scalar loop behind session and controller runs the same way, and
two differential checks tie that loop to the core: a controller whose
fleet can never change serves exactly what ``ServingSimulator.run``
serves, and a session run's realized arrivals replayed open-loop through
the core reproduce its records.
"""

import json
import math
from pathlib import Path

import pytest

from repro.backends import ExecutionCache
from repro.serving.batching import build_policy
from repro.serving.chaos import ChaosTimeline, chip_failure, straggler
from repro.serving.control import ControllerConfig, run_controlled
from repro.serving.fleet import Fleet
from repro.serving.metrics import per_workload_summary, summarize_result
from repro.serving.scenarios import get_scenario, run_scenario
from repro.serving.simulator import ServingSimulator
from repro.serving.traffic import Request

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_SCENARIOS = (
    "steady", "diurnal", "flash_crowd", "mixed_workload", "ramp_surge",
)


@pytest.fixture(scope="module")
def shared_model():
    """One memoized execution cache shared by every golden replay."""
    return ExecutionCache()


def _load(name):
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


@pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
class TestGoldenEquivalence:
    def test_records_are_byte_identical(self, name, shared_model):
        golden = _load(name)
        _, result = run_scenario(
            name,
            seed=golden["seed"],
            load_scale=golden["load_scale"],
            duration_scale=golden["duration_scale"],
            service_model=shared_model,
        )
        produced = [
            [
                record.request_id,
                record.workload,
                record.chip,
                record.arrival_s,
                record.dispatch_s,
                record.finish_s,
                record.batch_size,
            ]
            for record in result.records
        ]
        # Exact equality, floats included: the event core must not perturb
        # a single dispatch decision or timestamp.
        assert produced == golden["records"]

    def test_fleet_accounting_is_byte_identical(self, name, shared_model):
        golden = _load(name)
        _, result = run_scenario(
            name,
            seed=golden["seed"],
            load_scale=golden["load_scale"],
            duration_scale=golden["duration_scale"],
            service_model=shared_model,
        )
        assert result.num_requests == golden["num_requests"]
        assert result.num_chips == golden["num_chips"]
        assert result.num_batches == golden["num_batches"]
        assert result.energy_joules == golden["energy_joules"]
        assert result.horizon_s == golden["horizon_s"]
        assert result.first_arrival_s == golden["first_arrival_s"]
        assert list(result.chip_busy_s) == golden["chip_busy_s"]
        assert list(result.chip_requests) == golden["chip_requests"]
        assert list(result.chip_backends) == golden["chip_backends"]

    def test_metric_rows_are_byte_identical(self, name, shared_model):
        golden = _load(name)
        scenario = get_scenario(name)
        _, result = run_scenario(
            name,
            seed=golden["seed"],
            load_scale=golden["load_scale"],
            duration_scale=golden["duration_scale"],
            service_model=shared_model,
        )
        assert summarize_result(result, scenario.slo_s) == golden["summary"]
        assert (
            per_workload_summary(result, scenario.slo_s)
            == golden["per_workload"]
        )


# -- closed-loop goldens ------------------------------------------------------

#: the chaos session golden's timeline: a straggler window, a failure that
#: recovers, and an outage that never does (so the stranded sweep runs)
SESSION_CHAOS = ChaosTimeline((
    straggler(0, 0.05, 0.1, 3.0),
    chip_failure(1, 0.1, 0.05),
    chip_failure(1, 0.25, math.inf),
))

#: golden name -> run_scenario arguments; every case runs at seed 0 with
#: 10 ms telemetry windows.  The controller cases keep admission control
#: and adaptive batching on (the ControllerConfig defaults).
CLOSED_LOOP_GOLDENS = {
    "session_surge": dict(name="session_surge"),
    "session_surge_chaos": dict(name="session_surge", chaos=SESSION_CHAOS),
    "ramp_surge_target_util": dict(
        name="ramp_surge", load_scale=2.0, duration_scale=0.25,
        controller=ControllerConfig(policy="target_util"),
    ),
    "ramp_surge_queue_pid": dict(
        name="ramp_surge", load_scale=2.0, duration_scale=0.25,
        controller=ControllerConfig(policy="queue_pid"),
    ),
}
CLOSED_LOOP_WINDOW_S = 0.01


def run_closed_loop_golden(case, service_model=None):
    """Run one closed-loop golden case; returns its JSON-ready snapshot."""
    _, result = run_scenario(
        seed=0, service_model=service_model,
        telemetry_window_s=CLOSED_LOOP_WINDOW_S, **CLOSED_LOOP_GOLDENS[case],
    )
    controller = result.provenance.get("controller")
    snapshot = {
        "records": [list(record) for record in result.records],
        "num_requests": result.num_requests,
        "num_chips": result.num_chips,
        "num_batches": result.num_batches,
        "energy_joules": result.energy_joules,
        "horizon_s": result.horizon_s,
        "first_arrival_s": result.first_arrival_s,
        "chip_busy_s": list(result.chip_busy_s),
        "chip_requests": list(result.chip_requests),
        "chip_backends": list(result.chip_backends),
        "requests_lost": result.requests_lost,
        "requests_shed": result.requests_shed,
        "incidents": list(result.incidents),
        "actions": controller["actions"] if controller else None,
        "telemetry": list(result.telemetry.windows),
    }
    # One JSON round trip: tuples become lists exactly as in the file.
    return json.loads(json.dumps(snapshot))


@pytest.mark.parametrize("case", sorted(CLOSED_LOOP_GOLDENS))
def test_closed_loop_run_matches_golden(case, shared_model):
    golden = _load(case)
    produced = run_closed_loop_golden(case, shared_model)
    assert sorted(produced) == sorted(golden)
    for key, value in golden.items():
        assert produced[key] == value, key


# -- closed-loop loop vs the core ------------------------------------------

def _core_chaos(num_chips):
    """A recovered failure plus a straggler inside the 0.22 s surge run."""
    return ChaosTimeline((
        chip_failure(0, 0.05, 0.03),
        straggler(num_chips - 1, 0.08, 0.05, 2.5),
    ))


def _rows(result):
    return sorted(list(record) for record in result.records)


@pytest.fixture(scope="module")
def surge_stream():
    """ramp_surge at load 2, duration 0.1: ~750 requests, saturating."""
    return get_scenario("ramp_surge").traffic(0, 2.0, 0.1)


@pytest.mark.parametrize("chaos", [False, True], ids=["calm", "chaos"])
@pytest.mark.parametrize("num_chips", [1, 2, 3])
@pytest.mark.parametrize("router", ["jsq", "round_robin"])
@pytest.mark.parametrize("policy", ["none", "fixed", "continuous"])
def test_static_controller_matches_core(
    policy, router, num_chips, chaos, surge_stream, shared_model
):
    """A controller that can never act serves exactly what the core does."""

    def simulator():
        return ServingSimulator(
            service_model=shared_model,
            fleet=Fleet(num_chips=num_chips, router=router),
            batching_policy=build_policy(policy),
            chaos=_core_chaos(num_chips) if chaos else None,
        )

    static = ControllerConfig(
        min_chips=num_chips, max_chips=num_chips, warmup_s=0.0,
        admission=False, adapt_batching=False,
    )
    controlled = run_controlled(simulator(), static, surge_stream)
    core = simulator().run(surge_stream)
    assert controlled.provenance["controller"]["actions"] == []
    assert _rows(controlled) == _rows(core)
    assert controlled.requests_shed == core.requests_shed
    assert controlled.requests_lost == core.requests_lost


@pytest.mark.parametrize("router", ["jsq", "round_robin"])
@pytest.mark.parametrize("policy", ["none", "fixed", "continuous"])
def test_session_run_replays_open_loop_through_core(
    policy, router, shared_model
):
    """A chaos-free session run's arrivals, replayed open-loop, agree."""
    _, session = run_scenario(
        "session_surge", seed=0, router=router, policy=policy,
        service_model=shared_model,
    )
    replay = ServingSimulator(
        service_model=shared_model,
        fleet=Fleet(num_chips=session.num_chips, router=router),
        batching_policy=build_policy(policy),
    ).run([
        Request(record.request_id, record.workload, record.arrival_s)
        for record in session.records
    ])
    assert session.requests_shed == session.requests_lost == 0
    assert _rows(replay) == _rows(session)
