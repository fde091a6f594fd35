"""Closed-loop serving control plane: autoscaling, admission, adaptive batching.

Every fleet so far is *static*: the DSE planner answers "how many chips"
once, offline, and the only way to survive a flash crowd is to provision
for its peak.  This module adds the dynamic answer — a time-stepped
controller that observes the fleet through windowed telemetry and acts on
it mid-run:

* **Autoscaling** — :data:`CONTROLLER_POLICIES` names two policies.
  ``target_util`` scales the provisioned chip count proportionally so the
  windowed busy fraction tracks a utilization setpoint;  ``queue_pid``
  runs a PID loop on outstanding work (queued + in-flight) against a
  queue-depth setpoint.  Newly provisioned chips spend ``warmup_s``
  *warming* before they accept work — the router never sees a chip that
  has not finished warming up.
* **SLO-aware admission control** — each arrival's queue-wait on its
  routed chip is estimated from the chip's pending depth, the current
  batch cap and the workload's batch-1 service time; arrivals whose
  estimate exceeds the per-workload SLO budget are *shed* at the door.
  Shed requests stay inside the conservation identity the chaos layer
  introduced: ``arrived == completed + shed + lost``.
* **Adaptive batching / routing** — under tail pressure (windowed p99
  above the SLO) the controller doubles the batching policy's
  ``max_batch_size`` toward a throughput-optimal cap; with a cold tail it
  halves it back toward latency-optimal.  Optionally it also upgrades a
  ``round_robin`` fleet to ``jsq`` routing when it observes per-chip
  queue imbalance.

:func:`run_controlled` executes an open-loop request stream under a
:class:`ControllerConfig`.  Scale actions depend on observed state, which
rules out the pre-sorted-chunk contract of the vectorized core, so the
run goes through :func:`~repro.serving.closed_loop.run_loop` — the scalar
loop session runs share — with an open-loop arrival source and this
module's controller plugged in: WARM/TICK events, the chip lifecycle,
admission and the adaptive knobs.  It returns an ordinary
:class:`~repro.serving.simulator.ServingResult` — so the whole
metrics/telemetry/CLI surface works unchanged, and controller-off runs
never touch this module.  Chips move through a small lifecycle::

    (new) --provision--> WARMING --warmup_s--> ACTIVE
    ACTIVE --scale-down--> DRAINING --queue empty--> PARKED
    PARKED --scale-up--> WARMING            (a cold chip re-warms)
    DRAINING --scale-up--> ACTIVE           (still warm: instant)

The controller's sensor is the telemetry window abstraction: control
ticks fire every ``interval_s`` on the same ``t // window`` grid
:mod:`~repro.serving.telemetry` uses, and each tick observes exactly the
arrivals/completions/busy-time/latency of the window it closes.  All
decisions are pure functions of observed state, so equal seeds produce
equal action logs (`same seed, same actions`).
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import asdict, dataclass

import numpy as np

from repro.errors import ServingError
from repro.serving.closed_loop import (
    ACTIVE,
    DRAINING,
    PARKED,
    TICK,
    WARM,
    WARMING,
    Chip,
    OpenLoopSource,
    run_loop,
)
from repro.serving.fleet import JoinShortestQueueRouter
from repro.serving.simulator import ServingResult

__all__ = ["CONTROLLER_POLICIES", "ControllerConfig", "run_controlled"]

#: registered autoscaler policy names (the CLI's --controller choices)
CONTROLLER_POLICIES = ("target_util", "queue_pid")

#: routers the dynamic-fleet loop knows how to drive; affinity routers pin
#: ownership maps to a fixed fleet shape, which autoscaling invalidates
_CONTROLLABLE_ROUTERS = ("jsq", "round_robin")


@dataclass(frozen=True)
class ControllerConfig:
    """One controller's policy and knobs, in simulated-time units.

    ``slo_s`` anchors the SLO-aware features (admission budgets and the
    adaptive-batching setpoint); :func:`~repro.serving.scenarios.run_scenario`
    fills it from the scenario's SLO when left ``None``.  ``slo_budget_s``
    overrides the admission budget away from the SLO itself — either one
    budget for every workload or a per-workload mapping (workloads absent
    from the mapping fall back to ``slo_s``).  ``min_chips`` defaults to
    the run's initial fleet size at execution time.
    """

    policy: str = "target_util"
    interval_s: float = 0.05
    warmup_s: float = 0.05
    min_chips: int | None = None
    max_chips: int = 8
    #: target_util policy: busy-fraction setpoint and dead band
    target_utilization: float = 0.7
    deadband: float = 0.1
    #: queue_pid policy: outstanding-work setpoint and gains
    target_queue: float = 8.0
    kp: float = 0.25
    ki: float = 0.05
    kd: float = 0.0
    #: SLO the controller serves (admission + batching setpoint)
    slo_s: float | None = None
    #: admission-control queue-wait budget; None = use ``slo_s``
    slo_budget_s: float | Mapping[str, float] | None = None
    #: shed arrivals whose estimated queue wait exceeds their budget
    admission: bool = True
    #: retune the batching policy's max_batch_size from windowed p99
    adapt_batching: bool = True
    batch_min: int = 1
    batch_max: int = 32
    #: upgrade round_robin -> jsq on observed queue imbalance
    adapt_routing: bool = False
    imbalance_threshold: int = 4

    def __post_init__(self) -> None:
        if self.policy not in CONTROLLER_POLICIES:
            raise ServingError(
                f"unknown controller policy '{self.policy}'; "
                f"known: {', '.join(CONTROLLER_POLICIES)}"
            )
        if not (self.interval_s > 0 and math.isfinite(self.interval_s)):
            raise ServingError(
                f"interval_s must be finite and positive, got {self.interval_s}"
            )
        if not (self.warmup_s >= 0 and math.isfinite(self.warmup_s)):
            raise ServingError(
                f"warmup_s must be finite and >= 0, got {self.warmup_s}"
            )
        if self.min_chips is not None and self.min_chips < 1:
            raise ServingError(
                f"min_chips must be positive, got {self.min_chips}"
            )
        if self.max_chips < 1:
            raise ServingError(
                f"max_chips must be positive, got {self.max_chips}"
            )
        if self.min_chips is not None and self.min_chips > self.max_chips:
            raise ServingError(
                f"min_chips ({self.min_chips}) cannot exceed "
                f"max_chips ({self.max_chips})"
            )
        if not 0 < self.target_utilization <= 1:
            raise ServingError(
                "target_utilization must be in (0, 1], "
                f"got {self.target_utilization}"
            )
        if self.deadband < 0:
            raise ServingError(f"deadband must be >= 0, got {self.deadband}")
        if self.target_queue <= 0:
            raise ServingError(
                f"target_queue must be positive, got {self.target_queue}"
            )
        if self.slo_s is not None and self.slo_s <= 0:
            raise ServingError(f"slo_s must be positive, got {self.slo_s}")
        if self.batch_min < 1 or self.batch_max < self.batch_min:
            raise ServingError(
                "batch bounds need 1 <= batch_min <= batch_max, got "
                f"[{self.batch_min}, {self.batch_max}]"
            )
        if self.imbalance_threshold < 1:
            raise ServingError(
                "imbalance_threshold must be positive, "
                f"got {self.imbalance_threshold}"
            )
        if isinstance(self.slo_budget_s, Mapping):
            budgets = dict(self.slo_budget_s)
            if any(value <= 0 for value in budgets.values()):
                raise ServingError("slo_budget_s budgets must be positive")
            object.__setattr__(
                self, "slo_budget_s", tuple(sorted(budgets.items()))
            )
        elif self.slo_budget_s is not None and self.slo_budget_s <= 0:
            raise ServingError(
                f"slo_budget_s must be positive, got {self.slo_budget_s}"
            )

    def budget_for(self, workload: str) -> float | None:
        """Admission queue-wait budget for ``workload`` (None = no limit)."""
        if not self.admission:
            return None
        budget = self.slo_budget_s
        if isinstance(budget, tuple):
            return dict(budget).get(workload, self.slo_s)
        return self.slo_s if budget is None else float(budget)

    def to_dict(self) -> dict:
        """JSON-ready provenance form (knobs only, no run state)."""
        budget = self.slo_budget_s
        return {
            **asdict(self),
            "slo_budget_s": dict(budget) if isinstance(budget, tuple) else budget,
        }


class _Controller:
    """The fleet lifecycle, sensor and knobs of one controlled run.

    Plugs into :func:`~repro.serving.closed_loop.run_loop`: the loop asks
    it which chips take new work and whether to admit each arrival, feeds
    it every completed batch, and hands it the WARM and TICK events.
    """

    def __init__(self, config: ControllerConfig, simulator) -> None:
        self.config = config
        self.policy = policy = simulator.batching_policy
        self.initial = initial = simulator.fleet.num_chips
        self.min_chips = (
            config.min_chips if config.min_chips is not None else initial
        )
        if self.min_chips > config.max_chips:
            raise ServingError(
                f"min_chips ({self.min_chips}) cannot exceed "
                f"max_chips ({config.max_chips})"
            )
        if initial > config.max_chips:
            raise ServingError(
                f"the initial fleet ({initial} chips) already exceeds "
                f"max_chips ({config.max_chips})"
            )
        self.adapt_batching = (
            config.adapt_batching
            and config.slo_s is not None
            and hasattr(policy, "max_batch_size")
            and hasattr(policy, "single_group_cap")
        )
        self.saved_batch = (
            (policy.max_batch_size, policy.single_group_cap)
            if self.adapt_batching else None
        )
        self.actions: list[dict] = []
        self.scale_ups = 0
        self.scale_downs = 0
        self.peak = self.initial
        #: instants of admission-control sheds, for the telemetry windows
        self.shed_times: list[float] = []
        # Windowed sensor accumulators, reset at every control tick.
        self.win_busy_s = 0.0
        self.win_latencies: list[float] = []
        # queue_pid state
        self.pid_integral = 0.0
        self.pid_prev_error: float | None = None
        self.est_service: dict[str, float] = {}

    def attach(self, chips: list, router, push) -> None:
        """Take over the loop's live fleet and schedule the first tick."""
        self.chips = chips
        self.router = router
        self.push = push
        push(self.config.interval_s, TICK, None)

    def provisioned_count(self) -> int:
        """Capacity the policy steers: serving plus warming chips.

        Draining chips are excluded — they are capacity already decided
        away — which (with warming chips cancelled before active ones on
        scale-down) guarantees at least ``min_chips`` chips stay ACTIVE.
        """
        return sum(1 for chip in self.chips if chip.state in (WARMING, ACTIVE))

    def eligible(self) -> list:
        """Chips the router may choose: warm, not draining, not parked."""
        chips = self.chips
        # Defensive: the scale logic keeps >= min_chips chips ACTIVE, but
        # routing must never crash — fall back to warming, then any chip.
        return (
            [chip for chip in chips if chip.state == ACTIVE]
            or [chip for chip in chips if chip.state == WARMING]
            or chips
        )

    def admit(self, request, chip, now: float) -> bool:
        """Whether the arrival's estimated queue wait fits its budget."""
        budget = self.config.budget_for(request.workload)
        if budget is None or not chip.pending:
            return True
        est = self.est_service.get(request.workload)
        if est is None:  # memoized batch-1 service time
            est = float(chip.model.service_seconds(request.workload, 1))
            self.est_service[request.workload] = est
        cap = getattr(self.policy, "max_batch_size", None) or 1
        batches_ahead = -(-chip.pending // cap)  # ceil division
        if batches_ahead * est > budget:
            self.shed_times.append(now)
            return False
        return True

    def observe(self, service_s: float, batch, finish_s: float) -> None:
        """Feed one completed batch into the window sensor."""
        self.win_busy_s += service_s
        self.win_latencies.extend(finish_s - r.arrival_s for r in batch)

    def warm(self, payload, now: float) -> None:
        """A warm-up finished: activate the chip unless it was cancelled."""
        chip_id, warm_seq = payload
        chip = self.chips[chip_id]
        if chip.state == WARMING and chip.warm_seq == warm_seq:
            self.activate(chip, now)

    def activate(self, chip, now: float) -> None:
        """A chip starts taking new work."""
        chip.state = ACTIVE
        if chip.first_active_at is None:
            chip.first_active_at = now

    def start_warming(self, chip, now: float) -> None:
        """(Re)provision a cold chip; it serves after ``warmup_s``."""
        if self.config.warmup_s == 0:
            self.activate(chip, now)
            return
        chip.state = WARMING
        chip.warm_seq += 1
        self.push(
            now + self.config.warmup_s, WARM, (chip.chip_id, chip.warm_seq)
        )

    def scale_to(self, desired: int, now: float) -> None:
        """Apply one scale decision, preferring warm capacity first."""
        chips = self.chips
        provisioned = self.provisioned_count()
        if desired > provisioned:
            need = desired - provisioned
            # Draining chips are still warm: un-drain them for free.
            undrain = [chip for chip in chips if chip.state == DRAINING][:need]
            for chip in undrain:
                chip.state = ACTIVE
            # Parked chips went cold: they re-warm like new capacity, and
            # brand-new chips make up the rest.
            cold = [chip for chip in chips if chip.state == PARKED]
            cold = cold[:need - len(undrain)]
            new = [
                Chip(len(chips) + index, chips[0].model, now, WARMING)
                for index in range(need - len(undrain) - len(cold))
            ]
            chips.extend(new)
            for chip in cold + new:
                self.start_warming(chip, now)
            self.scale_ups += 1
            self.peak = max(self.peak, sum(
                1 for chip in chips if chip.state != PARKED
            ))
            self.actions.append({
                "at_s": now, "action": "scale_up",
                "added": len(cold) + len(new), "reactivated": len(undrain),
                "provisioned": self.provisioned_count(),
            })
        elif desired < provisioned:
            need = provisioned - desired
            # Cancel still-warming chips first (nothing runs on them yet),
            # newest first, then drain the newest active chips.
            newest = chips[::-1]
            cancel = [chip for chip in newest if chip.state == WARMING][:need]
            drain = [chip for chip in newest if chip.state == ACTIVE]
            drain = drain[:need - len(cancel)]
            for chip in cancel:
                chip.state = PARKED
            for chip in drain:
                chip.state = DRAINING if chip.busy or chip.queue else PARKED
            if cancel or drain:
                self.scale_downs += 1
                self.actions.append({
                    "at_s": now, "action": "scale_down",
                    "removed": len(cancel) + len(drain),
                    "provisioned": self.provisioned_count(),
                })

    def tick(self, now: float, arrivals_pending: bool) -> None:
        """Observe the closed window, decide, act, reset the sensor."""
        config = self.config
        chips = self.chips
        interval = config.interval_s
        active = self.eligible()
        provisioned = self.provisioned_count()
        outstanding = sum(chip.pending for chip in chips)
        utilization = self.win_busy_s / (interval * max(1, len(active)))

        if config.policy == "target_util":
            target = config.target_utilization
            desired = provisioned
            if utilization > target + config.deadband:
                desired = math.ceil(provisioned * utilization / target)
            elif (
                utilization < target - config.deadband and outstanding == 0
            ):
                desired = (
                    math.ceil(provisioned * utilization / target)
                    if utilization > 0 else self.min_chips
                )
        else:  # queue_pid
            error = outstanding - config.target_queue
            self.pid_integral = max(
                -64.0, min(64.0, self.pid_integral + error * interval)
            )
            derivative = (
                (error - self.pid_prev_error) / interval
                if self.pid_prev_error is not None else 0.0
            )
            self.pid_prev_error = error
            signal = (
                config.kp * error
                + config.ki * self.pid_integral
                + config.kd * derivative
            )
            desired = provisioned + int(round(signal))
        desired = max(self.min_chips, min(config.max_chips, desired))
        if desired != provisioned:
            self.scale_to(desired, now)

        if self.adapt_batching and self.win_latencies:
            policy = self.policy
            p99 = float(
                np.percentile(np.array(self.win_latencies, dtype=float), 99)
            )
            cap = policy.max_batch_size
            if p99 > config.slo_s and cap < config.batch_max:
                cap = min(config.batch_max, cap * 2)
            elif p99 < 0.5 * config.slo_s and cap > config.batch_min:
                cap = max(config.batch_min, cap // 2)
            if cap != policy.max_batch_size:
                policy.max_batch_size = cap
                policy.single_group_cap = cap
                self.actions.append({
                    "at_s": now, "action": "batch", "max_batch_size": cap,
                })

        if config.adapt_routing and self.router.name == "round_robin":
            pendings = [chip.pending for chip in active] or [0]
            if max(pendings) - min(pendings) >= config.imbalance_threshold:
                self.router = JoinShortestQueueRouter()
                self.actions.append({
                    "at_s": now, "action": "router", "router": "jsq",
                })

        self.win_busy_s = 0.0
        self.win_latencies = []

        # Keep ticking while work can still arrive or progress; queues
        # stranded on never-recovering chips do not hold the clock open.
        if arrivals_pending or any(
            chip.busy or (chip.queue and not chip.down) for chip in chips
        ):
            self.push(now + interval, TICK, None)

    def provenance(self) -> dict:
        """The ``provenance["controller"]`` block of the finished run."""
        return {
            **self.config.to_dict(),
            "min_chips": self.min_chips,
            "initial_chips": self.initial,
            "peak_chips": self.peak,
            "final_active": sum(
                1 for chip in self.chips if chip.state == ACTIVE
            ),
            "final_router": self.router.name,
            "final_max_batch_size": getattr(self.policy, "max_batch_size", None),
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "shed_admission": len(self.shed_times),
            "actions": self.actions,
            "chips": [
                {
                    "chip": chip.chip_id,
                    "created_at_s": chip.created_at,
                    "first_active_at_s": chip.first_active_at,
                }
                for chip in self.chips
            ],
        }


def run_controlled(
    simulator,
    config: ControllerConfig,
    requests,
    telemetry_window_s: float | None = None,
) -> ServingResult:
    """Serve an open-loop stream under a closed-loop fleet controller.

    Reuses the simulator's batching policy, per-chip service model and
    chaos timeline; the fleet itself becomes dynamic (the simulator's
    ``num_chips`` is the *initial* provisioning, scaled between
    ``config.min_chips`` and ``config.max_chips`` at control ticks).
    Returns a full-trace :class:`ServingResult` whose ``num_chips`` counts
    every chip ever provisioned; ``provenance["controller"]`` carries the
    realized action log, peak provisioning and per-chip warm-up instants.
    The caller's batching policy is restored even when the run raises.
    """
    if not isinstance(config, ControllerConfig):
        raise ServingError(
            f"config must be a ControllerConfig, got {type(config).__name__}"
        )
    if not requests:
        raise ServingError("cannot run a controller over an empty stream")
    if simulator.fleet.is_heterogeneous:
        raise ServingError(
            "controller runs need a homogeneous fleet: autoscaling "
            "provisions interchangeable chips"
        )
    router_name = simulator.fleet.router
    if router_name not in _CONTROLLABLE_ROUTERS:
        raise ServingError(
            f"controller runs support routers {list(_CONTROLLABLE_ROUTERS)}; "
            f"'{router_name}' pins an ownership map to a fixed fleet shape"
        )
    controller = _Controller(config, simulator)
    try:
        result = run_loop(
            simulator, OpenLoopSource(requests), controller, telemetry_window_s
        )
        result.provenance["controller"] = controller.provenance()
    finally:
        # The policy object belongs to the caller; leave it as configured.
        if controller.saved_batch is not None:
            policy = controller.policy
            policy.max_batch_size, policy.single_group_cap = controller.saved_batch
    series = result.telemetry
    if series is not None and series.windows:
        # Admission control populates the schema's ``shed`` field.
        lo, hi = series.windows[0]["window"], series.windows[-1]["window"]
        shed = Counter(
            min(hi, max(lo, int(at_s // series.window_s)))
            for at_s in controller.shed_times
        )
        for row in series.windows:
            row["shed"] = shed[row["window"]]
    return result
