"""Closed-loop session traffic: users whose offered load reacts to latency.

Every preset scenario so far is *open loop* — arrivals are generated ahead
of time and keep coming no matter how slow the fleet gets.  Real chat and
agent traffic is closed loop: a user submits a request, reads the answer,
thinks, and only then submits the next turn, so the offered rate falls as
observed latency grows.  This module adds that feedback loop as a traffic
*source* in front of the same routing/batching/service machinery the open
loop uses.

:class:`SessionConfig` describes a fixed population of users, each running
``sessions_per_user`` conversations of ``turns`` requests with exponential
think times between turns and gaps between conversations.
:func:`run_sessions` executes the population against a
:class:`~repro.serving.simulator.ServingSimulator`'s fleet.  Arrival
instants depend on completion instants, which rules out the
pre-sorted-chunk contract of the open-loop core, so this module only
supplies the users as an arrival source to
:func:`~repro.serving.closed_loop.run_loop` — the scalar event loop that
fleet-controller runs share — and returns its ordinary
:class:`~repro.serving.simulator.ServingResult`, so the whole
metrics/telemetry/CLI surface works unchanged.

Determinism: user ``u`` of a run seeded ``s`` draws from
``default_rng(s * SEED_STRIDE + u)`` in a fixed per-user order (start
offset, then workload/think pairs), so the draw sequence — and therefore
the trace, given the fleet — is a pure function of the seed.  Chaos
timelines inject the same fail/straggler semantics as the open loop; a
lost or shed request unblocks its user at the drop instant (the user saw
an error and moves on), keeping conservation over *submitted* requests:
``arrived == completed + lost + shed``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro.errors import ServingError
from repro.serving.closed_loop import run_loop
from repro.serving.simulator import ServingResult
from repro.serving.traffic import SEED_STRIDE, MixSampler, Request, normalize_mix

__all__ = ["SessionConfig", "run_sessions"]


@dataclass(frozen=True)
class SessionConfig:
    """A fixed closed-loop user population.

    ``users`` independent users each run ``sessions_per_user``
    conversations of ``turns`` requests.  Between turns a user thinks for
    an exponential ``think_time_s`` (mean); between conversations they
    pause for an exponential ``session_gap_s``.  Users come online spread
    uniformly over ``[0, start_spread_s)`` so the population does not
    arrive as one synchronized burst.  ``mix`` weights the workload each
    turn samples.
    """

    users: int
    turns: int = 4
    sessions_per_user: int = 1
    think_time_s: float = 0.02
    session_gap_s: float = 0.05
    start_spread_s: float = 0.5
    mix: tuple[tuple[str, float], ...] = field(
        default_factory=lambda: (("nvsa", 1.0),)
    )

    def __post_init__(self):
        for name in ("users", "turns", "sessions_per_user"):
            if getattr(self, name) < 1:
                raise ServingError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        for name, value in (("think_time_s", self.think_time_s),
                            ("session_gap_s", self.session_gap_s),
                            ("start_spread_s", self.start_spread_s)):
            if not (value >= 0.0 and math.isfinite(value)):
                raise ServingError(
                    f"{name} must be finite and >= 0, got {value}"
                )
        # Unlike WorkloadMix, no registered workload builders are needed:
        # a session run serves whatever its service model understands.
        object.__setattr__(
            self, "mix", normalize_mix(dict(self.mix), "session mix")
        )

    @property
    def total_requests(self) -> int:
        """Requests the population offers if no chip strands a user."""
        return self.users * self.sessions_per_user * self.turns

    def scaled(self, load_scale: float, duration_scale: float
               ) -> "SessionConfig":
        """The population ``repro serve`` knobs map onto.

        ``load_scale`` multiplies the user population and
        ``duration_scale`` the per-user conversation count (both rounded,
        floor one), mirroring what the knobs do to open-loop phases:
        more concurrent demand versus a longer experiment.
        """
        if load_scale <= 0 or duration_scale <= 0:
            raise ServingError("load_scale and duration_scale must be positive")
        if load_scale == 1.0 and duration_scale == 1.0:
            return self
        return replace(
            self,
            users=max(1, round(self.users * load_scale)),
            sessions_per_user=max(
                1, round(self.sessions_per_user * duration_scale)
            ),
        )

    def to_dict(self) -> dict:
        """JSON-ready provenance form."""
        return {**asdict(self), "mix": dict(self.mix)}


class _User:
    """One closed-loop user: RNG stream plus conversation counters."""

    __slots__ = ("rng", "turns_left", "sessions_left")

    def __init__(self, rng, config: SessionConfig):
        self.rng = rng
        self.turns_left = config.turns
        self.sessions_left = config.sessions_per_user

    def next_delay(self, config: SessionConfig) -> float | None:
        """Seconds from this turn's outcome to the next turn (None: done)."""
        self.turns_left -= 1
        if self.turns_left > 0:
            mean = config.think_time_s
        else:
            self.sessions_left -= 1
            if self.sessions_left <= 0:
                return None
            self.turns_left = config.turns
            mean = config.session_gap_s
        return float(self.rng.exponential(mean)) if mean > 0 else 0.0


class _SessionSource:
    """Closed-loop arrivals: a user's next turn follows their last outcome.

    The arrival source :func:`~repro.serving.closed_loop.run_loop` drives
    for session runs.  Arrival events carry a user index; request ids
    count submissions, so ``owner[request_id]`` is the submitting user.
    """

    def __init__(self, config: SessionConfig, seed: int):
        self.config = config
        self.workloads = tuple(name for name, _ in config.mix)
        self.sample = MixSampler(
            self.workloads, [prob for _, prob in config.mix]
        )
        self.users = [
            _User(np.random.default_rng(seed * SEED_STRIDE + user_id), config)
            for user_id in range(config.users)
        ]
        self.owner: list[int] = []

    def start(self, schedule) -> None:
        """Bring every user online at a seeded offset."""
        self.schedule = schedule
        spread = self.config.start_spread_s
        for user_id, user in enumerate(self.users):
            schedule(
                float(user.rng.uniform(0.0, spread)) if spread > 0 else 0.0,
                user_id,
            )

    def arrive(self, user_id: int, now: float) -> Request:
        """The user submits their next turn."""
        request = Request(
            len(self.owner), self.sample(self.users[user_id].rng), now
        )
        self.owner.append(user_id)
        return request

    def done(self, request: Request, now: float) -> None:
        """Schedule the user's next turn after a completion (or drop)."""
        user_id = self.owner[request.request_id]
        delay = self.users[user_id].next_delay(self.config)
        if delay is not None:
            self.schedule(now + delay, user_id)


def run_sessions(
    simulator,
    config: SessionConfig,
    seed: int = 0,
    telemetry_window_s: float | None = None,
) -> ServingResult:
    """Serve a closed-loop user population on the simulator's fleet.

    Reuses the simulator's fleet router, batching policy, per-chip service
    models and chaos timeline; only the arrival side differs from
    :meth:`~repro.serving.simulator.ServingSimulator.run` (requests are
    born from completions plus think time instead of a pre-generated
    stream).  Returns a full-trace :class:`ServingResult` whose records
    are in request-id (submission) order; telemetry derives post-hoc from
    the completed records.
    """
    if not isinstance(config, SessionConfig):
        raise ServingError(
            f"config must be a SessionConfig, got {type(config).__name__}"
        )
    result = run_loop(
        simulator, _SessionSource(config, seed),
        telemetry_window_s=telemetry_window_s,
    )
    result.provenance["closed_loop"] = {"seed": seed, **config.to_dict()}
    return result
