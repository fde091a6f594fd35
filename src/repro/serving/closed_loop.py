"""The scalar event loop behind closed-loop runs: sessions and the controller.

Closed-loop sessions (:mod:`~repro.serving.sessions`) draw each arrival
from a completion plus think time, and fleet-controller runs
(:mod:`~repro.serving.control`) change the fleet with observed state, so
neither fits the pre-sorted chunks of the vectorized core.  Both run on
:func:`run_loop`, one heap-ordered scalar loop over an **arrival source**
(:class:`OpenLoopSource` or the session users) and an optional
**controller** (WARM/TICK events, the chip lifecycle, admission and the
adaptive knobs; without one every chip is ACTIVE).  On a static fleet its
records equal the core's exactly (``tests/serving/test_differential.py``).
"""

from __future__ import annotations

import math
from dataclasses import replace
from heapq import heappop, heappush
from itertools import count

from repro.errors import ServingError
from repro.serving.chaos import OP_FAIL, OP_RECOVER, OP_SLOW_START
from repro.serving.simulator import RequestRecord, ServingResult

__all__ = ["OpenLoopSource", "run_loop"]

# Heap event kinds, ordered like the core at equal instants: arrivals
# enqueue first, completions free chips, wake-ups retry batching,
# incidents land, warm-ups activate chips, and the controller tick
# observes last — so a batch finishing exactly at a failure instant
# completes normally and a tick never sees a half-applied instant.
ARRIVAL, FREE, WAKE, CHAOS, WARM, TICK = 0, 1, 2, 3, 4, 5

# Chip lifecycle states (diagram in repro.serving.control).
WARMING, ACTIVE, DRAINING, PARKED = 0, 1, 2, 3


class Chip:
    """Mutable state of one chip in the loop.

    Satisfies the :class:`~repro.serving.fleet.ChipView` protocol the
    routers observe (``chip_id``/``busy``/``inflight``/``queue_depth``)
    plus the lifecycle fields a controller drives.
    """

    __slots__ = (
        "chip_id", "model", "busy", "inflight", "queue", "busy_s", "served",
        "pending_wake_s", "current", "down", "factors", "mult",
        "state", "warm_seq", "created_at", "first_active_at",
    )

    def __init__(self, chip_id: int, model, created_at: float = 0.0,
                 state: int = ACTIVE):
        self.chip_id = chip_id
        #: service-time oracle (``service_seconds``/``energy_joules``)
        self.model = model
        self.busy = False
        self.inflight = 0
        self.queue = []
        self.busy_s = 0.0
        self.served = 0
        self.pending_wake_s = None
        #: ``(seq, dispatch_s, finish_s, batch, service_s, energy_j)``
        self.current = None
        self.down = 0
        self.factors = []
        self.mult = 1.0
        self.state = state
        #: warm-up generation counter; a stale WARM event must not
        #: activate a chip whose warm-up was cancelled and restarted
        self.warm_seq = 0
        self.created_at = created_at
        self.first_active_at = created_at if state == ACTIVE else None

    @property
    def queue_depth(self) -> int:
        """Requests queued on the chip (excluding the executing batch)."""
        return len(self.queue)

    @property
    def pending(self) -> int:
        """Queued plus in-flight requests (the JSQ routing key)."""
        return len(self.queue) + self.inflight


class OpenLoopSource:
    """Arrivals from a request stream, in ``(arrival_s, request_id)`` order."""

    def __init__(self, requests):
        self.stream = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        self.workloads = tuple(sorted({r.workload for r in self.stream}))

    def start(self, schedule) -> None:
        """Schedule every arrival up front."""
        for request in self.stream:
            schedule(request.arrival_s, request)

    def arrive(self, request, now: float):
        """The request an arrival event carries."""
        return request

    def done(self, request, now: float) -> None:
        """Nothing waits on an open-loop request's outcome."""


def run_loop(
    simulator,
    source,
    controller=None,
    telemetry_window_s: float | None = None,
) -> ServingResult:
    """Serve ``source``'s arrivals on the simulator's fleet, one event at a time.

    A source has ``workloads``, ``start(schedule)`` (``schedule(at_s,
    payload)`` queues an arrival event, now or later), ``arrive(payload,
    now) -> Request`` and ``done(request, now)``, told when a request
    completes or is dropped.  A controller is handed the live fleet by
    ``attach(chips, router, push)`` and then supplies ``router`` and the
    ``eligible()`` chips to route over, ``admit(request, chip, now)``,
    ``observe(service_s, batch, finish_s)`` per completed batch, and the
    WARM/TICK handlers ``warm(payload, now)`` and ``tick(now,
    arrivals_pending)``.  Chips a controller adds run chip 0's backend.
    """
    chip_models = simulator._chip_models()
    router = simulator._make_router(source.workloads, chip_models)
    policy = simulator.batching_policy
    chips = [Chip(chip_id, model) for chip_id, model in enumerate(chip_models)]
    done = source.done

    heap: list = []
    next_seq = count(1).__next__

    def push(at_s: float, kind: int, payload) -> None:
        heappush(heap, (at_s, kind, next_seq(), payload))

    scheduled = 0  # arrival events still on the heap

    def schedule(at_s: float, payload) -> None:
        nonlocal scheduled
        scheduled += 1
        heappush(heap, (at_s, ARRIVAL, next_seq(), payload))

    source.start(schedule)
    if simulator.chaos is not None:
        for ev_time, op, ev_chip, ev_mult in simulator.chaos.compile(len(chips)):
            push(ev_time, CHAOS, (op, ev_chip, ev_mult))
    if controller is not None:
        controller.attach(chips, router, push)

    arrived = 0
    records: list[RequestRecord] = []
    energy = 0.0
    num_batches = 0
    first_arrival = None
    horizon = 0.0
    lost = 0
    shed = 0
    incident_log: list[dict] = []

    def dispatch(chip: Chip, now: float) -> None:
        """Launch the policy's batch on an idle, healthy, serving chip."""
        if chip.busy or chip.down or not chip.queue:
            if chip.state == DRAINING and not chip.busy and not chip.queue:
                chip.state = PARKED
            return
        if chip.state != ACTIVE and chip.state != DRAINING:
            return
        decision = policy.select(chip.queue, now)
        batch = decision.batch
        if batch is None:
            wake = decision.wake_s
            if wake is not None and (
                chip.pending_wake_s is None or wake < chip.pending_wake_s
            ):
                chip.pending_wake_s = wake
                push(wake, WAKE, chip.chip_id)
            return
        members = set(id(request) for request in batch)
        chip.queue = [
            request for request in chip.queue if id(request) not in members
        ]
        size = len(batch)
        workload = batch[0].workload
        service_s = chip.model.service_seconds(workload, size)
        energy_j = chip.model.energy_joules(workload, size)
        if chip.mult != 1.0:
            service_s *= chip.mult
            energy_j *= chip.mult
        finish = now + service_s
        seq = next_seq()
        chip.current = (seq, now, finish, tuple(batch), service_s, energy_j)
        chip.busy = True
        chip.inflight = size
        heappush(heap, (finish, FREE, seq, chip.chip_id))

    while heap:
        now, kind, seq, payload = heappop(heap)
        if kind == ARRIVAL:
            scheduled -= 1
            arrived += 1
            if first_arrival is None:
                first_arrival = now
            request = source.arrive(payload, now)
            if controller is None:
                chip = chips[router.route(request, chips)]
            else:
                chip = chips[
                    controller.router.route(request, controller.eligible())
                ]
                if not controller.admit(request, chip, now):
                    shed += 1
                    done(request, now)
                    continue
            chip.queue.append(request)
            dispatch(chip, now)
        elif kind == FREE:
            chip = chips[payload]
            entry = chip.current
            if entry is None or entry[0] != seq:
                continue  # stale completion of a killed batch
            _, dispatch_s, finish_s, batch, service_s, energy_j = entry
            chip.current = None
            chip.busy = False
            chip.inflight = 0
            if finish_s > horizon:
                horizon = finish_s
            energy += energy_j
            num_batches += 1
            size = len(batch)
            chip.busy_s += service_s
            chip.served += size
            for request in batch:
                records.append(RequestRecord(
                    request.request_id, request.workload, chip.chip_id,
                    request.arrival_s, dispatch_s, finish_s, size,
                ))
                done(request, finish_s)
            if controller is not None:
                controller.observe(service_s, batch, finish_s)
            dispatch(chip, now)
        elif kind == WAKE:
            chip = chips[payload]
            if chip.pending_wake_s is not None and chip.pending_wake_s <= now:
                chip.pending_wake_s = None
            dispatch(chip, now)
        elif kind == CHAOS:
            op, ev_chip, ev_mult = payload
            chip = chips[ev_chip]
            if op == OP_FAIL:
                # The in-flight batch is lost and the queue shed; their
                # source hears of each at the failure instant.
                chip.down += 1
                batch = chip.current[3] if chip.busy else ()
                chip.current = None
                chip.busy = False
                chip.inflight = 0
                for request in (*batch, *chip.queue):
                    done(request, now)
                lost_here = len(batch)
                shed_here = len(chip.queue)
                lost += lost_here
                shed += shed_here
                chip.queue.clear()
                if chip.state == DRAINING:
                    chip.state = PARKED
                incident_log.append({
                    "at_s": now, "kind": "fail", "chip": ev_chip,
                    "requests_lost": lost_here, "requests_shed": shed_here,
                })
            elif op == OP_RECOVER:
                chip.down -= 1
                incident_log.append(
                    {"at_s": now, "kind": "recover", "chip": ev_chip}
                )
                if not chip.down:
                    dispatch(chip, now)
            else:  # a straggler window opens (OP_SLOW_START) or closes
                opening = op == OP_SLOW_START
                if opening:
                    chip.factors.append(ev_mult)
                else:
                    chip.factors.remove(ev_mult)
                chip.mult = math.prod(chip.factors, start=1.0)
                incident_log.append({
                    "at_s": now, "kind": "slow" if opening else "slow_end",
                    "chip": ev_chip, "multiplier": ev_mult,
                })
        elif kind == WARM:
            controller.warm(payload, now)
        else:  # TICK
            controller.tick(now, scheduled > 0)

    # Requests still queued sit on chips whose failure window never
    # closed.  Nobody hears of them (a closed-loop user's conversation
    # died with the chip), but conservation over arrivals must hold, so
    # they count as shed.
    for chip in chips:
        if chip.queue:
            stranded = len(chip.queue)
            chip.queue.clear()
            shed += stranded
            incident_log.append({
                "at_s": horizon, "kind": "stranded",
                "chip": chip.chip_id, "requests_shed": stranded,
            })
    if len(records) + lost + shed != arrived:
        raise ServingError(
            f"closed-loop run lost requests: {len(records)} served + {lost} "
            f"lost + {shed} shed of {arrived}"
        )

    records.sort(key=lambda record: record.request_id)
    backends = tuple(simulator.fleet.chip_backends)
    result = ServingResult(
        records=tuple(records),
        num_chips=len(chips),
        chip_busy_s=tuple(chip.busy_s for chip in chips),
        chip_requests=tuple(chip.served for chip in chips),
        energy_joules=energy,
        num_batches=num_batches,
        horizon_s=horizon,
        first_arrival_s=first_arrival or 0.0,
        chip_backends=backends + backends[:1] * (len(chips) - len(backends)),
        provenance=simulator._provenance(len(records), None),
        requests_lost=lost,
        requests_shed=shed,
        incidents=tuple(incident_log),
    )
    if telemetry_window_s is None:
        return result
    from repro.serving.telemetry import derive_series

    series = derive_series(
        result, telemetry_window_s, [chip.model for chip in chips]
    )
    return replace(result, telemetry=series)
