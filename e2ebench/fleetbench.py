"""In-process fleet workloads: ``churn_dense`` and ``exact_llc``.

Run by ``run.py`` as a child process, so set-up is timed from process
start::

    python3 e2ebench/fleetbench.py --workload churn_dense --seed 1 \\
        --mode run --seconds 30 --trace 0 --spawned-at <monotonic>

``--mode setup`` stops once the fleet is built and reports set-up times
only.  ``--mode run`` then warms up and measures fixed-length episodes
until ``--seconds`` have passed, printing one JSON object on stdout.

The benchmark is the client: it drives a fleet built by
``build_fleet_machines`` + ``CloudFleet`` through
:class:`~repro.cloud.handle.FleetHandle` (the command interface the daemon
uses), submitting each interval's due commands before that interval's
tick.  A command's latency runs from the start of its interval's batch.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Callable, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    OUT,
    PHASES,
    calibrate,
    median,
    percentile,
    proc_peak_rss_mb,
    use_checkout_source,
)

use_checkout_source()

from repro.cloud.fleet import CloudFleet  # noqa: E402
from repro.cloud.handle import FleetHandle  # noqa: E402
from repro.cloud.placement import build_policy  # noqa: E402
from repro.cloud.scenario import build_fleet_machines  # noqa: E402

import inputs  # noqa: E402

_T_IMPORTED = time.monotonic()


# -- fleets ------------------------------------------------------------------------


def scenario_doc(workload: str, seed: int) -> Dict[str, Any]:
    if workload == "churn_dense":
        shape = inputs.ChurnShape()
        return {
            "fleet": {"machines": shape.hosts, "socket": "xeon_d", "seed": seed,
                      "interval_s": shape.interval_s},
            "manager": {"type": "dcat"},
            "placement": "sensitivity",
        }
    shape = inputs.ExactShape()
    return {
        "fleet": {"machines": shape.hosts, "socket": "xeon_d", "seed": seed},
        "manager": {"type": "dcat"},
        "placement": "least_loaded",
        "fidelity": {"mode": "exact", "seed": seed,
                     "accesses_per_interval": shape.accesses_per_interval},
    }


@dataclass
class Episode:
    handle: FleetHandle
    initial: List[inputs.Command]
    checkers: List[Any] = field(default_factory=list)


def build_episode(workload: str, seed: int, checked: bool = False) -> Episode:
    """A fresh fleet at its starting occupancy (initial residents admitted).

    ``checked`` gives every host its own event bus with an
    :class:`~repro.faults.invariants.InvariantChecker` (traced run only).
    """
    buses: Dict[str, Any] = {}
    machine_bus: Optional[Callable[[str], Any]] = None
    if checked:
        from repro.engine.events import EventBus

        def machine_bus(name: str) -> Any:
            buses[name] = EventBus()
            return buses[name]

    machines, placement, tolerance = build_fleet_machines(
        scenario_doc(workload, seed), machine_bus=machine_bus
    )
    checkers = []
    if checked:
        from repro.faults.invariants import InvariantChecker

        for machine in machines:
            controller = machine.sim.manager.controller
            checkers.append(
                InvariantChecker(
                    total_ways=controller.total_ways,
                    config=controller.config,
                    bus=buses[machine.name],
                )
            )
    fleet = CloudFleet(
        machines=machines,
        policy=build_policy(placement),
        tenants=[],
        slo_tolerance=tolerance,
    )
    handle = FleetHandle(fleet)
    if workload == "churn_dense":
        initial, _ = inputs.churn_inputs(seed)
    else:
        initial = inputs.exact_residents()
    for cmd in initial:
        handle.admit(cmd.name, cmd.ways, cmd.workload, cmd.lifetime_s or None)
    return Episode(handle=handle, initial=initial, checkers=checkers)


# -- measurement ---------------------------------------------------------------------


#: A unit's slowness is the median of the calibrations taken after the
#: units up to this many places before and after it in its episode.
SLOWNESS_SPAN = 2


@dataclass
class Tally:
    """What the measured ticks and commands of one run produced.

    Every episode of a seed repeats the same deterministic work (the
    result digests prove it), so each timed unit and each command has one
    sample per complete episode.  A sample is divided by the host's
    slowness around its unit (see ``common.calibrate``).  A unit's time
    and a command's latency are then the median of their samples over the
    episodes, so host noise that hits some episodes does not move them.
    """

    #: Per complete episode, one ``(wall_s, cpu_s, tenant_intervals,
    #: is_tick, slowness)`` row per timed unit (a tick with its command
    #: batch, or one phase of admission probes).
    units: List[List[tuple]] = field(default_factory=list)
    #: Per complete episode, one ``(kind, phase, latency_ms, unit)`` row
    #: per timed client command, in send order.
    commands: List[List[tuple]] = field(default_factory=list)
    episodes: int = 0
    digests: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    summary: Optional[Dict[str, float]] = None
    placements: Dict[str, int] = field(default_factory=dict)
    intervals_checked: int = 0
    violations: int = 0

    def add_episode(self, units: List[tuple], commands: List[tuple]) -> None:
        if self.units and (
            [u[2:4] for u in units] != [u[2:4] for u in self.units[0]]
            or [(c[0], c[1], c[3]) for c in commands]
            != [(c[0], c[1], c[3]) for c in self.commands[0]]
        ):
            self.problems.append("episodes of one seed ran different work")
        self.units.append(units)
        self.commands.append(commands)

    def _slowness(self) -> List[List[float]]:
        out = []
        for units in self.units:
            raw = [u[4] for u in units]
            out.append([
                median(raw[max(0, k - SLOWNESS_SPAN):k + SLOWNESS_SPAN + 1])
                for k in range(len(raw))
            ])
        return out

    def unit_times(self) -> List[tuple]:
        """``(wall_s, cpu_s, tenant_intervals, is_tick)`` per unit, with the
        median scaled wall and CPU time over the complete episodes."""
        slow = self._slowness()
        return [
            (median(u[0] / s[k] for u, s in zip(rows, slow)),
             median(u[1] / s[k] for u, s in zip(rows, slow)),
             rows[0][2], rows[0][3])
            for k, rows in enumerate(zip(*self.units))
        ]

    def latencies(self, kind: str, phase: str) -> List[float]:
        """The median scaled latency of every ``kind`` command of ``phase``."""
        slow = self._slowness()
        return [
            median(c[2] / s[c[3]] for c, s in zip(rows, slow))
            for rows in zip(*self.commands)
            if rows[0][:2] == (kind, phase)
        ]

    @property
    def requests(self) -> int:
        """Timed client commands over all complete episodes."""
        return sum(len(rows) for rows in self.commands)

    @property
    def throughput(self) -> float:
        """Tenant-intervals per reference second of the timed ticks."""
        ticks = [u for u in self.unit_times() if u[3]]
        wall = sum(u[0] for u in ticks)
        return sum(u[2] for u in ticks) / wall if wall > 0 else 0.0

    @property
    def request_rate(self) -> float:
        """Client commands of one episode per reference CPU second of its
        timed units."""
        cpu = sum(u[1] for u in self.unit_times())
        return len(self.commands[0]) / cpu if cpu > 0 else 0.0


def residents(handle: FleetHandle) -> int:
    return sum(len(m.residents) for m in handle.fleet.machines)


def digest(handle: FleetHandle) -> str:
    return hashlib.sha256(handle.fleet.result().canonical_bytes()).hexdigest()


def check_ledger(handle: FleetHandle, arrivals: List[str], tally: Tally) -> None:
    """Every arrival decided exactly once; departed + resident = admitted."""
    fleet = handle.fleet
    decided: Dict[str, int] = {}
    for record in fleet.placements:
        decided[record.tenant_id] = decided.get(record.tenant_id, 0) + 1
    wrong = [name for name in arrivals if decided.get(name) != 1]
    if wrong or len(decided) != len(arrivals):
        tally.problems.append(
            f"{len(wrong)} arrival(s) not decided exactly once (first: {wrong[:3]})"
        )
    admitted = sum(1 for r in fleet.placements if r.machine is not None)
    departed = sum(1 for s in fleet.accountant.tenants.values() if s.departed_s is not None)
    if departed + residents(handle) != admitted:
        tally.problems.append(
            f"departed {departed} + resident {residents(handle)} != admitted {admitted}"
        )
    tally.placements = {
        "arrived": len(arrivals),
        "admitted": admitted,
        "rejected": len(arrivals) - admitted,
    }


def finish_episode(ep: Episode, arrivals: List[str], tally: Tally, first: bool) -> None:
    check_ledger(ep.handle, arrivals, tally)
    tally.digests.append(digest(ep.handle))
    if first:
        tally.summary = ep.handle.fleet.accountant.fleet_summary()
    tally.episodes += 1


#: What one complete episode timed: its units and its commands (see Tally).
Timings = Tuple[List[tuple], List[tuple]]


def run_churn_episode(
    ep: Episode, seed: int, tally: Tally, deadline: float, warm: int
) -> Optional[Timings]:
    """Drive one churn episode; None if the deadline cut it short."""
    handle = ep.handle
    shape = inputs.ChurnShape()
    _, commands = inputs.churn_inputs(seed, shape)
    admitted = set(handle.fleet.accountant.tenants)
    arrivals = [cmd.name for cmd in ep.initial]
    units: List[tuple] = []
    timed_cmds: List[tuple] = []
    pos = 0
    for k in range(shape.intervals):
        end_s = (k + 1) * shape.interval_s
        timed = k >= warm
        c0 = process_time()
        t0 = perf_counter()
        while pos < len(commands) and commands[pos].due_s < end_s:
            cmd = commands[pos]
            pos += 1
            if cmd.kind == "admit":
                arrivals.append(cmd.name)
                outcome = handle.admit(cmd.name, cmd.ways, cmd.workload, cmd.lifetime_s)
                latency = perf_counter() - t0
                if outcome.admitted:
                    admitted.add(cmd.name)
            elif cmd.name in admitted:
                handle.tenant_stats(cmd.name)
                latency = perf_counter() - t0
            else:
                continue
            if timed:
                timed_cmds.append((cmd.kind, cmd.phase, latency * 1e3, len(units)))
        handle.tick()
        t1 = perf_counter()
        if timed:
            units.append((t1 - t0, process_time() - c0, residents(handle), True, calibrate()))
        if time.monotonic() >= deadline:
            return None
    finish_episode(ep, arrivals, tally, first=not tally.digests)
    return units, timed_cmds


def run_exact_episode(
    ep: Episode, seed: int, tally: Tally, deadline: float, warm: int
) -> Optional[Timings]:
    handle = ep.handle
    shape = inputs.ExactShape()
    arrivals = [cmd.name for cmd in ep.initial]
    units: List[tuple] = []
    timed_cmds: List[tuple] = []
    for k in range(shape.intervals):
        c0 = process_time()
        t0 = perf_counter()
        handle.tick()
        t1 = perf_counter()
        if k >= warm:
            units.append((t1 - t0, process_time() - c0, residents(handle), True, calibrate()))
        if time.monotonic() >= deadline:
            return None
    # Admission probes into the loaded fleet, after its last tick so they
    # never perturb a measured interval.
    serial = 0
    for phase, burst, rounds in (
        ("nominal", 1, shape.probes),
        ("peak", shape.peak_burst, shape.probes // shape.peak_burst),
    ):
        # One calibrated unit per phase: a calibration between rounds would
        # leave the next probe running on cold caches.
        c0 = process_time()
        u0 = perf_counter()
        for _ in range(rounds):
            t0 = perf_counter()
            names = [f"p{serial + i}" for i in range(burst)]
            serial += burst
            admitted = []
            for name in names:
                arrivals.append(name)
                outcome = handle.admit(name, inputs.PROBE_WAYS, inputs.PROBE_WORKLOAD)
                timed_cmds.append(("admit", phase, (perf_counter() - t0) * 1e3, len(units)))
                if outcome.admitted:
                    admitted.append(name)
            for name in admitted:
                handle.tenant_stats(name)
                timed_cmds.append(("read", phase, (perf_counter() - t0) * 1e3, len(units)))
            for name in admitted:
                handle.detach(name)
                timed_cmds.append(("detach", phase, (perf_counter() - t0) * 1e3, len(units)))
        units.append((perf_counter() - u0, process_time() - c0, 0, False, calibrate()))
    if residents(handle) != len(ep.initial):
        tally.problems.append(
            f"{residents(handle)} residents after probes, expected {len(ep.initial)}"
        )
    finish_episode(ep, arrivals, tally, first=not tally.digests)
    return units, timed_cmds


def episode(workload: str, seed: int, tally: Tally, deadline: float,
            checked: bool = False) -> bool:
    """One episode on a fresh fleet; False if the deadline cut it short.

    The first tick of every episode is warm-up and is not timed.
    """
    run_episode = run_churn_episode if workload == "churn_dense" else run_exact_episode
    ep = build_episode(workload, seed, checked=checked)
    timings = run_episode(ep, seed, tally, deadline, warm=1)
    if timings is not None:
        tally.add_episode(*timings)
    for checker in ep.checkers:
        checker.finalize()
        tally.intervals_checked += checker.intervals_checked
        tally.violations += len(checker.violations)
    # The finished fleet is garbage held in reference cycles; without this
    # untimed collection a run's peak RSS would count however many dead
    # fleets the collector had not yet reached.
    del ep
    gc.collect()
    return timings is not None


def measure(workload: str, seed: int, seconds: float, tally: Tally) -> None:
    """Run whole episodes until ``seconds`` of wall time have passed."""
    deadline = time.monotonic() + seconds
    while episode(workload, seed, tally, deadline) and time.monotonic() < deadline:
        pass


def warm_up(workload: str, seed: int, seconds: float = 2.0) -> None:
    """Untimed ticks of one episode: fills lazy caches before measuring."""
    measure(workload, seed, seconds, Tally())


def latency_metrics(tally: Tally) -> Dict[str, float]:
    m: Dict[str, float] = {}
    for phase in PHASES:
        samples = tally.latencies("admit", phase)
        m[f"admit_ms_p50.{phase}"] = percentile(samples, 50)
        m[f"admit_ms_p95.{phase}"] = percentile(samples, 95)
    m["read_ms_p95.peak"] = percentile(tally.latencies("read", "peak"), 95)
    return m


def run(args: argparse.Namespace) -> Dict[str, Any]:
    build_episode(args.workload, args.seed)
    out: Dict[str, Any] = {
        "spawned_at": args.spawned_at,
        "imported_at": _T_IMPORTED,
        "built_at": time.monotonic(),
    }
    if args.mode == "setup":
        return out
    warm_up(args.workload, args.seed)
    base = Tally()
    if not args.trace:
        measure(args.workload, args.seed, args.seconds, base)
        out["tally"] = tally_payload(base)
        out["metrics"] = latency_metrics(base)
        out["peak_rss_mb"] = proc_peak_rss_mb()
        return out
    # Traced run: untraced and traced episodes alternate on the same seed,
    # so both see the same host conditions and the overhead is comparable.
    from repro.engine.pipeline import use_profiler
    from repro.obs.profiler import StageProfiler

    import tracing

    tracer = tracing.Tracer()
    profiler = StageProfiler()
    traced = Tally()
    deadline = time.monotonic() + args.seconds
    while time.monotonic() < deadline:
        if not episode(args.workload, args.seed, base, deadline):
            break
        tracing.install(tracer)
        try:
            with use_profiler(profiler):
                complete = episode(args.workload, args.seed, traced, deadline, checked=True)
        finally:
            tracer.uninstall()
        if not complete:
            break
    tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    if traced.digests and base.digests and traced.digests[0] != base.digests[0]:
        traced.problems.append(
            f"traced digest {traced.digests[0][:12]} != untraced {base.digests[0][:12]}"
        )
    extra = {
        "cloud.admit_ratio": (
            traced.placements["admitted"] / traced.placements["arrived"]
            if traced.placements.get("arrived") else 0.0
        ),
        "cloud.slo_violation_frac": (traced.summary or {}).get("violation_fraction", 0.0),
        "trace.overhead_frac": 1.0 - traced.throughput / base.throughput,
        "faults.intervals_checked": float(traced.intervals_checked),
        "faults.violations": float(traced.violations),
    }
    out["layer"] = tracing.layer_metrics(tracer, profiler, extra)
    out["tally"] = tally_payload(base)
    out["traced_tally"] = tally_payload(traced)
    return out


def tally_payload(tally: Tally) -> Dict[str, Any]:
    return {
        "requests": tally.requests,
        "throughput": tally.throughput,
        "request_rate": tally.request_rate,
        "episodes": tally.episodes,
        "digests": sorted(set(tally.digests)),
        "problems": tally.problems,
        "summary": tally.summary,
        "placements": tally.placements,
        "intervals_checked": tally.intervals_checked,
        "violations": tally.violations,
        "samples": {
            kind: {p: len(tally.latencies(kind, p)) for p in PHASES}
            for kind in ("admit", "read")
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("churn_dense", "exact_llc"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(run(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
