"""Seeded inputs for the three workloads.

Every input is a pure function of the workload seed.  Counts are fixed and
lifetimes/holds stratified, so the seed moves *which* tenant arrives when,
not how much load there is.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

# -- churn_dense ---------------------------------------------------------------


@dataclass(frozen=True)
class MixSpec:
    workload: Dict[str, Any]
    ways: int
    weight: float
    mean_life_s: float


#: The Poisson mix of ``examples/churn.json``.
CHURN_MIX: Tuple[MixSpec, ...] = (
    MixSpec({"type": "mlr", "wss_mb": 8}, 3, 2.0, 10.0),
    MixSpec({"type": "mload", "wss_mb": 60}, 3, 1.0, 10.0),
    MixSpec({"type": "lookbusy"}, 2, 1.0, 8.0),
)


@dataclass(frozen=True)
class ChurnShape:
    """The fixed shape of one churn episode (the seed never changes it)."""

    hosts: int = 100
    residents_per_host: float = 3.0
    nominal_intervals: int = 12
    peak_intervals: int = 8
    #: Peak arrival rate over the steady-state (nominal) rate.
    peak_factor: float = 2.0
    interval_s: float = 1.0

    @property
    def intervals(self) -> int:
        return self.nominal_intervals + self.peak_intervals


@dataclass(frozen=True)
class Command:
    """One client command, due at virtual time ``due_s``.

    ``kind`` is ``"admit"`` (with ways/workload/lifetime) or ``"read"`` (a
    per-tenant stats read, sent only if the tenant was admitted).
    """

    due_s: float
    kind: str
    name: str
    phase: str
    ways: int = 0
    workload: Any = None
    lifetime_s: float = 0.0


def apportion(total: int, weights: Sequence[float]) -> List[int]:
    """Split ``total`` into integer counts proportional to ``weights``
    (largest remainder, ties to the earlier entry)."""
    wsum = float(sum(weights))
    exact = [total * w / wsum for w in weights]
    counts = [int(math.floor(x)) for x in exact]
    order = sorted(range(len(weights)), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def stratified_exponential(n: int, mean: float, rng: random.Random) -> List[float]:
    """``n`` exponential draws, one per equal-probability stratum, shuffled."""
    values = [-mean * math.log(1.0 - (i + rng.random()) / n) for i in range(n)]
    rng.shuffle(values)
    return values


def _typed_draws(
    n: int, weights: Sequence[float], rng: random.Random
) -> List[Tuple[MixSpec, float]]:
    """``n`` (mix entry, lifetime) pairs: exact per-entry counts, stratified
    lifetimes, shuffled order."""
    draws: List[Tuple[MixSpec, float]] = []
    for spec, count in zip(CHURN_MIX, apportion(n, weights)):
        if count:
            draws.extend(
                (spec, life)
                for life in stratified_exponential(count, spec.mean_life_s, rng)
            )
    rng.shuffle(draws)
    return draws


def steady_arrival_rate(shape: ChurnShape) -> float:
    """Arrivals per second that keep ``residents_per_host`` resident
    (Little's law over the mix's mean lifetime)."""
    weights = [m.weight for m in CHURN_MIX]
    mean_life = sum(m.weight * m.mean_life_s for m in CHURN_MIX) / sum(weights)
    return shape.hosts * shape.residents_per_host / mean_life


def churn_inputs(
    seed: int, shape: ChurnShape = ChurnShape()
) -> Tuple[List[Command], List[Command]]:
    """``(initial residents, commands)`` for one churn episode.

    The episode starts at steady occupancy: the initial residents follow
    the steady-state mix (weight x lifetime) with exponential residual
    leases, admitted at t=0 before the first interval.  Arrivals then come
    at the steady rate for the nominal intervals and ``peak_factor`` times
    it for the peak intervals; every interval of a phase gets the same
    arrival count, at uniform times inside the interval.  Every admitted tenant gets one
    stats read at mid-lease if that falls inside the episode.
    """
    rng = random.Random(seed)
    initial_n = int(round(shape.hosts * shape.residents_per_host))
    steady_weights = [m.weight * m.mean_life_s for m in CHURN_MIX]
    initial = [
        Command(0.0, "admit", f"r{i}", "setup", spec.ways, spec.workload, life)
        for i, (spec, life) in enumerate(
            _typed_draws(initial_n, steady_weights, rng)
        )
    ]
    rate = steady_arrival_rate(shape)
    arrival_weights = [m.weight for m in CHURN_MIX]
    commands: List[Command] = []
    start = 0.0
    serial = 0
    for phase, intervals, factor in (
        ("nominal", shape.nominal_intervals, 1.0),
        ("peak", shape.peak_intervals, shape.peak_factor),
    ):
        span = intervals * shape.interval_s
        count = int(round(rate * factor * span))
        # The same number of arrivals in every interval of the phase, at
        # uniform times inside it.
        times = []
        for k, n in enumerate(apportion(count, [1.0] * intervals)):
            left = start + k * shape.interval_s
            times.extend(sorted(left + rng.random() * shape.interval_s for _ in range(n)))
        for due, (spec, life) in zip(times, _typed_draws(count, arrival_weights, rng)):
            commands.append(
                Command(due, "admit", f"a{serial}", phase, spec.ways, spec.workload, life)
            )
            serial += 1
        start += span
    horizon = shape.intervals * shape.interval_s
    reads = []
    for cmd in initial + commands:
        due = cmd.due_s + cmd.lifetime_s / 2.0
        if due < horizon:
            phase = "nominal" if due < shape.nominal_intervals * shape.interval_s else "peak"
            reads.append(Command(due, "read", cmd.name, phase))
    commands.extend(reads)
    commands.sort(key=lambda c: (c.due_s, c.kind, c.name))
    return initial, commands


# -- exact_llc -----------------------------------------------------------------

#: Residents of every exact_llc host: (workload, baseline ways).  Ten of the
#: twelve ways are reserved, so admission probes can still fit.
EXACT_RESIDENTS: Tuple[Tuple[Dict[str, Any], int], ...] = (
    ({"type": "mlr", "wss_mb": 4}, 2),
    ({"type": "mlr", "wss_mb": 8}, 3),
    ({"type": "mload", "wss_mb": 60}, 2),
    ({"type": "redis"}, 3),
)
#: The tenant an admission probe admits (and detaches at once).
PROBE_WORKLOAD: Dict[str, Any] = {"type": "mlr", "wss_mb": 2}
PROBE_WAYS = 1


@dataclass(frozen=True)
class ExactShape:
    hosts: int = 2
    intervals: int = 8
    accesses_per_interval: int = 20_000
    #: Admission probes per episode, sent one at a time (nominal) or in
    #: bursts of ``peak_burst`` due together (peak), after the last tick.
    probes: int = 200
    #: Odd: a burst's admits form one latency cluster per position, and an
    #: odd count puts the p50 inside the middle cluster, not on the edge
    #: between two.
    peak_burst: int = 3


def exact_residents(shape: ExactShape = ExactShape()) -> List[Command]:
    """The fixed resident set: every host gets one of each resident."""
    return [
        Command(0.0, "admit", f"h{h}-{i}", "setup", ways, workload, 0.0)
        for h in range(shape.hosts)
        for i, (workload, ways) in enumerate(EXACT_RESIDENTS)
    ]


# -- service_open ----------------------------------------------------------------


@dataclass(frozen=True)
class ServicePhase:
    name: str
    rate_per_s: float
    #: Share of the run's measured seconds this phase takes.
    share: float


#: Rates leave the daemon idle most of the time even when the shared host
#: runs at half speed: near saturation, latency timed from the due time
#: would measure the host's speed, not the program's.
SERVICE_PHASES: Tuple[ServicePhase, ...] = (
    ServicePhase("nominal", 35.0, 0.5),
    ServicePhase("peak", 70.0, 0.5),
)
#: Mean tenant hold (s): short enough that most admits fit on 16 hosts.
SERVICE_HOLD_MEAN_S = 0.3
#: One long-lived resident per daemon host, admitted before the load
#: starts: every tick then simulates every host, so its cost (which the
#: latency tail waits behind) does not swing with how many hosts the
#: short-lived tenants happen to occupy.
SERVICE_RESIDENT: Tuple[Dict[str, Any], int] = ({"type": "mlr", "wss_mb": 8}, 2)


@dataclass(frozen=True)
class PlannedTenant:
    """One open-loop tenant: admit at ``offset_s``, read at mid-hold,
    detach at hold end (relative to the scheduled admit)."""

    offset_s: float
    name: str
    phase: str
    ways: int
    workload: Dict[str, Any]
    hold_s: float


def service_plan(seed: int, seconds: float) -> List[PlannedTenant]:
    """The whole open-loop request plan of one run.

    Workload and reservation picks come from
    :func:`repro.service.loadgen.plan_requests` under the run seed.  The
    count per phase is fixed at ``rate x phase length``; admits are spaced
    evenly with seeded jitter inside each slot and holds are stratified,
    so the offered load does not move with the seed.
    """
    from repro.service.loadgen import plan_requests

    plan: List[PlannedTenant] = []
    start = 0.0
    for index, phase in enumerate(SERVICE_PHASES):
        span = seconds * phase.share
        count = int(round(phase.rate_per_s * span))
        if count < 1:
            continue
        rng = random.Random(seed * 1000 + index)
        # Over-draw, then keep exactly `count` picks from the seeded plan.
        picks = []
        window = count / phase.rate_per_s
        while len(picks) < count:
            window *= 1.5
            picks = plan_requests(phase.rate_per_s, window, seed=seed * 1000 + index)
        holds = stratified_exponential(count, SERVICE_HOLD_MEAN_S, rng)
        gap = span / count
        for i in range(count):
            pick = picks[i]
            plan.append(
                PlannedTenant(
                    offset_s=start + (i + rng.random()) * gap,
                    name=f"{phase.name}-{i}",
                    phase=phase.name,
                    ways=pick.baseline_ways,
                    workload=dict(pick.workload),
                    hold_s=holds[i],
                )
            )
        start += span
    return plan
