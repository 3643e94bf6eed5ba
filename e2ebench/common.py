"""Helpers shared by every part of the end-to-end benchmark.

Nothing here imports the program under test, so ``run.py`` itself can
use these before (or without) importing ``repro``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, Mapping, Optional, Sequence

#: The checkout root (the benchmark always runs from a checkout).
ROOT = Path(__file__).resolve().parent.parent
#: Where the program's source lives inside the checkout.
SRC = ROOT / "src"
#: Scratch output of runs (configs, span dumps); ignored by git.
OUT = ROOT / ".e2ebench_out"

WORKLOADS = ("churn_dense", "exact_llc", "service_open")
PHASES = ("nominal", "peak")

#: End-to-end metrics: name -> unit.  Every workload reports every one.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "tenant_intervals_per_s": "1/s",
    "norm_ipc_mean": "ratio",
    "admit_ms_p50.nominal": "ms",
    "admit_ms_p95.nominal": "ms",
    "admit_ms_p50.peak": "ms",
    "admit_ms_p95.peak": "ms",
    "read_ms_p95.peak": "ms",
    "requests_per_cpu_s": "1/s",
}

#: Per-layer metrics of the traced run: name -> unit.  "hi" is one
#: host-interval (one simulated interval of one machine).
PER_LAYER: Dict[str, str] = {
    "hwcounters.sample_core_calls": "1/hi",
    "hwcounters.sample_core_us": "us/hi",
    "hwcounters.msr_advance_calls": "1/hi",
    "hwcounters.msr_advance_us": "us/hi",
    "cpu.execute_interval_calls": "1/hi",
    "cpu.execute_interval_us": "us/hi",
    "platform.execute_cores_us": "us/hi",
    "platform.feed_pmus_us": "us/hi",
    "platform.record_us": "us/hi",
    "platform.update_dram_us": "us/hi",
    "platform.control_self_us": "us/hi",
    "platform.resolve_hit_rates_us": "us/hi",
    "core.collect_us": "us/hi",
    "core.allocate_us": "us/hi",
    "core.commit_us": "us/hi",
    "core.plan_allocation_us": "us/hi",
    "core.plans_per_interval": "1/hi",
    "core.detect_phase_us": "us/hi",
    "core.get_baseline_us": "us/hi",
    "core.categorize_us": "us/hi",
    "cat.l3ca_set_calls": "1/hi",
    "cat.l3ca_set_us": "us/hi",
    "cat.l3ca_get_calls": "1/hi",
    "cat.l3ca_get_us": "us/hi",
    "cat.readback_per_set": "ratio",
    "cache.hit_rate_fp_calls": "1/hi",
    "cache.hit_rate_fp_us": "us/hi",
    "cache.accesses": "1/hi",
    "cache.access_ns": "ns",
    "cache.hit_ratio": "ratio",
    "cache.occupancy_us": "us/hi",
    "workloads.trace_lines": "1/hi",
    "workloads.trace_generate_us": "us/hi",
    "cloud.place_calls": "count",
    "cloud.place_us": "us",
    "cloud.admit_us": "us",
    "cloud.depart_us": "us",
    "cloud.slo_observe_us": "us",
    "cloud.entitled_ipc_us": "us",
    "cloud.step_ms_p50": "ms",
    "cloud.active_hosts": "count",
    "cloud.admit_ratio": "ratio",
    "cloud.slo_violation_frac": "ratio",
    "service.tick_ms_p50": "ms",
    "service.tick_ms_p99": "ms",
    "service.apply_admit_us": "us",
    "service.apply_detach_us": "us",
    "service.handler_ms_p50": "ms",
    "service.queue_wait_ms_p50": "ms",
    "service.tick_lag_frac": "ratio",
    "service.cpu_s": "s",
    "obs.metrics_scrape_ms_p50": "ms",
    "engine.events_per_interval": "1/interval",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "loadgen.lag_ms_p99": "ms",
    "trace.overhead_frac": "ratio",
    "faults.intervals_checked": "count",
    "faults.violations": "count",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed child)."""


def require_program() -> None:
    """Refuse to run outside a checkout that holds the program's source."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program source under {SRC}; run from the root of a checkout"
        )


def child_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's source first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout, never from an installed copy."""
    require_program()
    path = str(SRC)
    if path not in sys.path:
        sys.path.insert(0, path)


# -- statistics --------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 < q <= 100); raises on no samples."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank ``q``."""
    if n <= 0:
        return 0
    return n - max(1, math.ceil(q / 100.0 * n))


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance over the median (the acceptance statistic)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    if med == 0:
        return math.inf
    return (q3 - q1) / abs(med)


# -- host speed ------------------------------------------------------------------
#
# The benchmark shares a host whose speed drifts by up to 2x over seconds to
# minutes (the same fixed loop takes 0.3 ms or 0.6 ms).  Every in-process
# timing is therefore divided by the host's slowness measured right after
# it, so reported times are in seconds of a reference host.

#: Seconds :func:`calibration_pass` takes on the reference host.
CAL_REFERENCE_S = 0.001


class _Body:
    __slots__ = ("mass", "speed")

    def __init__(self, mass: int) -> None:
        self.mass = mass
        self.speed = mass * 0.5

    def step(self, x: float) -> float:
        return self.speed * x + self.mass


def calibration_pass(n: int = 900) -> float:
    """Fixed object-allocation and method-call work, the kind the simulator
    spends its time on, sharing no code with the program under test."""
    bodies = [_Body(i) for i in range(n)]
    acc = 0.0
    for _ in range(8):
        for body in bodies:
            acc = body.step(acc) % 1000.0
    return acc


def calibrate(repeats: int = 3) -> float:
    """The host's current slowness: the fastest of ``repeats`` calibration
    passes over :data:`CAL_REFERENCE_S` (1.0 = reference speed)."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        calibration_pass()
        best = min(best, time.perf_counter() - start)
    return best / CAL_REFERENCE_S


# -- process facts -------------------------------------------------------------


def proc_cpu_s(pid: Optional[int] = None) -> float:
    """User plus system CPU seconds of a process, from ``/proc``."""
    target = "self" if pid is None else str(pid)
    with open(f"/proc/{target}/stat", encoding="ascii") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a process in MiB."""
    target = "self" if pid is None else str(pid)
    with open(f"/proc/{target}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {target}")


def now() -> float:
    """The system-wide monotonic clock (comparable across processes)."""
    return time.monotonic()


# -- the result line -----------------------------------------------------------


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    values: Mapping[str, float],
    units: Mapping[str, str],
) -> str:
    """The one-line JSON result; names exactly the metrics in ``units``."""
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise BenchError(f"metric set mismatch: missing {missing}, extra {extra}")
    if attempted < 1:
        raise BenchError("a run must attempt at least one operation")
    metrics = {
        name: {"value": float(values[name]), "unit": units[name]} for name in units
    }
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )


def log(message: str) -> None:
    """Progress and diagnostics go to stderr; stdout carries results."""
    print(message, file=sys.stderr, flush=True)
