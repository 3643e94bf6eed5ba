"""The ``service_open`` workload: an open-loop client against the daemon.

The daemon (``dcat-experiment serve``, i.e. ``python3 -m
repro.harness.cli serve``) runs in a child process; this module is the
load generator and the checker.  One process, one asyncio loop, at most
``nproc`` connections in flight.  Every request is timed from the moment
the plan said it was due, so a stalled daemon also charges the requests
queued behind the stall, and is then divided by the host's slowness
around its completion (see ``common.calibrate``).
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import re
import select
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (
    OUT,
    PHASES,
    ROOT,
    BenchError,
    calibrate,
    child_env,
    log,
    median,
    now,
    percentile,
    proc_cpu_s,
    proc_peak_rss_mb,
)

HOSTS = 16
TICK_S = 0.05
REQUEST_TIMEOUT_S = 10.0
STARTUP_TIMEOUT_S = 60.0
#: Connections the generator may have open at once.
IN_FLIGHT = max(1, os.cpu_count() or 1)


def service_config(seed: int) -> Dict[str, Any]:
    return {
        "fleet": {"machines": HOSTS, "socket": "xeon_d", "seed": seed},
        "manager": {"type": "dcat"},
        "placement": "least_loaded",
        "service": {"tick_interval_s": TICK_S},
    }


# -- a minimal HTTP/1.1 client (the benchmark's own) ------------------------------


async def http(port: int, method: str, path: str, payload: Any = None) -> Tuple[int, bytes]:
    """One ``Connection: close`` request; returns ``(status, body)``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        body = b"" if payload is None else json.dumps(payload).encode()
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n".encode()
            + body
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    head, _, content = raw.partition(b"\r\n\r\n")
    parts = head.split(b" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise BenchError(f"malformed response to {method} {path}: {raw[:80]!r}")
    return int(parts[1]), content


def http_json(port: int, path: str) -> Any:
    status, body = asyncio.run(http(port, "GET", path))
    if status != 200:
        raise BenchError(f"GET {path} answered {status}")
    return json.loads(body)


# -- the daemon process -------------------------------------------------------------


@dataclass
class Daemon:
    proc: subprocess.Popen
    port: int
    setup_s: float
    ready_at: float
    layer_path: Optional[Path] = None

    def stop(self) -> None:
        """SIGTERM, then wait for the graceful shutdown to finish."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise BenchError(f"daemon exited with {self.proc.returncode}")


def spawn_daemon(config_path: Path, traced: bool = False, tag: str = "") -> Daemon:
    """Start the daemon and time spawn -> first ``/healthz`` 200."""
    serve = ["serve", str(config_path), "--port", "0"]
    layer_path = None
    spawned = now()
    if traced:
        layer_path = OUT / f"daemon-layers-{tag}.json"
        cmd = [sys.executable, str(Path(__file__).with_name("daemon_hook.py")),
               "--out", str(layer_path), "--spawned-at", repr(spawned), "--", *serve]
    else:
        cmd = [sys.executable, "-m", "repro.harness.cli", *serve]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    try:
        port = _read_port(proc)
        status, _ = asyncio.run(http(port, "GET", "/healthz"))
        if status != 200:
            raise BenchError(f"/healthz answered {status}")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    ready = now()
    return Daemon(
        proc=proc, port=port, setup_s=ready - spawned, ready_at=ready,
        layer_path=layer_path,
    )


def _read_port(proc: subprocess.Popen) -> int:
    deadline = now() + STARTUP_TIMEOUT_S
    assert proc.stdout is not None
    while now() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 0.5)
        if ready:
            line = proc.stdout.readline()
            if not line:
                break
            match = re.search(r"serving on http://[^:]+:(\d+)", line)
            if match:
                return int(match.group(1))
        if proc.poll() is not None:
            break
    raise BenchError(f"daemon did not start (exit code {proc.poll()})")


# -- the open-loop generator ---------------------------------------------------------


#: Seconds between the generator's host-speed calibrations.
CAL_PERIOD_S = 0.25
#: Calibrations within this many seconds of a request's completion give
#: the slowness its latency is divided by (their median).
CAL_WINDOW_S = 1.0


@dataclass
class LoadStats:
    #: Per phase, ``(completed at, latency ms)`` of every admit / stats read.
    admit_ms: Dict[str, List[Tuple[float, float]]] = field(
        default_factory=lambda: {p: [] for p in PHASES})
    read_ms: Dict[str, List[Tuple[float, float]]] = field(
        default_factory=lambda: {p: [] for p in PHASES})
    #: ``(loop time, slowness)`` of every calibration during the load.
    slowness: List[Tuple[float, float]] = field(default_factory=list)
    lag_ms: List[float] = field(default_factory=list)
    scrape_ms: List[float] = field(default_factory=list)
    attempted: Dict[str, int] = field(default_factory=lambda: {p: 0 for p in PHASES})
    failed: Dict[str, int] = field(default_factory=lambda: {p: 0 for p in PHASES})
    admitted: int = 0
    rejected: int = 0
    #: Requests answered correctly (409 and a DELETE's 404 included).
    ok: int = 0
    errors: List[str] = field(default_factory=list)


async def drive(port: int, plan: List[Any], stats: LoadStats) -> None:
    """Send the plan open-loop; return once every planned request ended."""
    from inputs import SERVICE_RESIDENT

    workload, ways = SERVICE_RESIDENT
    for host in range(HOSTS):
        status, body = await http(port, "POST", "/v1/tenants", {
            "name": f"resident-{host}", "baseline_ways": ways, "workload": workload,
        })
        if status != 201:
            raise BenchError(f"resident {host} not admitted: HTTP {status} {body[:80]!r}")
    loop = asyncio.get_running_loop()
    gate = asyncio.Semaphore(IN_FLIGHT)
    epoch = loop.time() + 0.05
    in_flight = [0]

    async def send(due: float, phase: str, method: str, path: str,
                   payload: Any = None) -> Tuple[Optional[int], float]:
        """Returns ``(status or None on failure, latency ms from due)``."""
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        stats.attempted[phase] += 1
        async with gate:
            stats.lag_ms.append(max(0.0, loop.time() - due) * 1e3)
            in_flight[0] += 1
            try:
                status, body = await asyncio.wait_for(
                    http(port, method, path, payload), REQUEST_TIMEOUT_S
                )
            except (OSError, asyncio.TimeoutError, BenchError) as exc:
                stats.failed[phase] += 1
                stats.errors.append(f"{method} {path}: {type(exc).__name__}: {exc}")
                return None, (loop.time() - due) * 1e3
            finally:
                in_flight[0] -= 1
        return status, (loop.time() - due) * 1e3

    def unexpected(phase: str, method: str, path: str, status: int) -> None:
        stats.failed[phase] += 1
        stats.errors.append(f"{method} {path}: unexpected HTTP {status}")

    async def tenant(t: Any) -> None:
        due = epoch + t.offset_s
        path = f"/v1/tenants/{t.name}"
        status, ms = await send(due, t.phase, "POST", "/v1/tenants", {
            "name": t.name, "baseline_ways": t.ways, "workload": t.workload,
        })
        stats.admit_ms[t.phase].append((loop.time(), ms))
        if status == 409:
            stats.rejected += 1
            stats.ok += 1
            return
        if status != 201:
            if status is not None:
                unexpected(t.phase, "POST", "/v1/tenants", status)
            return
        stats.admitted += 1
        stats.ok += 1
        status, ms = await send(due + t.hold_s / 2, t.phase, "GET", path + "/stats")
        stats.read_ms[t.phase].append((loop.time(), ms))
        if status == 200:
            stats.ok += 1
        elif status is not None:
            unexpected(t.phase, "GET", path + "/stats", status)
        status, ms = await send(due + t.hold_s, t.phase, "DELETE", path)
        if status in (200, 404):
            # 404: the fleet departed it first (its workload finished).
            stats.ok += 1
        elif status is not None:
            unexpected(t.phase, "DELETE", path, status)

    end = max(t.offset_s + t.hold_s for t in plan)
    peak_from = min((t.offset_s for t in plan if t.phase == "peak"), default=end)

    async def scraper() -> None:
        tick = 1.0
        while tick < end:
            phase = "nominal" if tick < peak_from else "peak"
            status, ms = await send(epoch + tick, phase, "GET", "/metrics")
            if status == 200:
                stats.scrape_ms.append(ms)
                stats.ok += 1
            elif status is not None:
                unexpected(phase, "GET", "/metrics", status)
            tick += 1.0

    async def calibrator() -> None:
        """Measure the host's speed between requests, never during one."""
        tick = CAL_PERIOD_S / 2
        while tick < end:
            delay = epoch + tick - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            while in_flight[0]:
                await asyncio.sleep(0.001)
            stats.slowness.append((loop.time(), calibrate()))
            tick += CAL_PERIOD_S

    await asyncio.gather(calibrator(), scraper(), *(tenant(t) for t in plan))


# -- one daemon under load -----------------------------------------------------------


@dataclass
class LoadRun:
    stats: LoadStats
    cpu_s: float
    peak_rss_mb: float
    setup_s: float
    fleet: Dict[str, Any]
    health: Dict[str, Any]
    trace: Dict[str, Any]
    metrics_text: str
    #: Wall seconds from the daemon's first 200 to the final ``/healthz``.
    served_s: float
    layer: Optional[Dict[str, Any]] = None


def load_daemon(config_path: Path, plan: List[Any], traced: bool, tag: str) -> LoadRun:
    daemon = spawn_daemon(config_path, traced=traced, tag=tag)
    try:
        pid = daemon.proc.pid
        cpu0 = proc_cpu_s(pid)
        stats = LoadStats()
        # The generator's own collector pauses would read as server latency.
        gc.disable()
        try:
            asyncio.run(drive(daemon.port, plan, stats))
        finally:
            gc.enable()
        cpu = proc_cpu_s(pid) - cpu0
        health = http_json(daemon.port, "/healthz")
        served = now() - daemon.ready_at
        fleet = http_json(daemon.port, "/v1/fleet")
        trace = http_json(daemon.port, "/v1/trace")
        _, text = asyncio.run(http(daemon.port, "GET", "/metrics"))
        rss = proc_peak_rss_mb(pid)
    finally:
        daemon.stop()
    layer = None
    if daemon.layer_path is not None:
        layer = json.loads(daemon.layer_path.read_text())
    return LoadRun(
        stats=stats, cpu_s=cpu, peak_rss_mb=rss, setup_s=daemon.setup_s,
        fleet=fleet, health=health, trace=trace, metrics_text=text.decode(),
        served_s=served, layer=layer,
    )


def replay_matches(config_path: Path, trace: Dict[str, Any]) -> bool:
    """Replay the served journal offline; the snapshot digest must match."""
    from repro.cloud.handle import replay_journal
    from repro.service.config import load_service_config

    config = load_service_config(str(config_path))
    replayed = replay_journal(lambda: config.build().fleet, trace["journal"])
    try:
        return replayed.snapshot_digest() == trace["snapshot_sha256"]
    finally:
        replayed.fleet.close()


def histogram_p50_ms(text: str, metric: str, route: str) -> float:
    """Median of a Prometheus histogram, interpolated inside its bucket."""
    buckets: List[Tuple[float, float]] = []
    pattern = re.compile(
        rf'^{metric}_bucket\{{(?=[^}}]*route="{re.escape(route)}")[^}}]*le="([^"]+)"\}} (\S+)$'
    )
    for line in text.splitlines():
        match = pattern.match(line)
        if match:
            le = float("inf") if match.group(1) == "+Inf" else float(match.group(1))
            buckets.append((le, float(match.group(2))))
    buckets.sort()
    if not buckets or buckets[-1][1] == 0:
        return 0.0
    half = buckets[-1][1] / 2.0
    lower_le, lower_count = 0.0, 0.0
    for le, count in buckets:
        if count >= half:
            if le == float("inf"):
                return lower_le * 1e3
            share = (half - lower_count) / (count - lower_count) if count > lower_count else 0.0
            return (lower_le + share * (le - lower_le)) * 1e3
        lower_le, lower_count = le, count
    return lower_le * 1e3


# -- the workload -----------------------------------------------------------------------


def check_run(run: LoadRun, config_path: Path, problems: List[str]) -> None:
    stats = run.stats
    if stats.errors:
        problems.append(f"{len(stats.errors)} failed request(s); first: {stats.errors[0]}")
    if run.health.get("invariant_violations", 0) != 0:
        problems.append(f"{run.health['invariant_violations']} invariant violation(s)")
    if not replay_matches(config_path, run.trace):
        problems.append("journal replay did not reproduce the live snapshot digest")


def scaled_ms(samples: List[Tuple[float, float]],
              slowness: List[Tuple[float, float]]) -> List[float]:
    """Latencies divided by the median slowness calibrated within
    :data:`CAL_WINDOW_S` of their completion (the nearest one if none)."""
    out = []
    for done, ms in samples:
        near = [s for t, s in slowness if abs(t - done) <= CAL_WINDOW_S]
        if not near:
            near = [min(slowness, key=lambda c: abs(c[0] - done))[1]]
        out.append(ms / median(near))
    return out


def e2e_values(run: LoadRun) -> Dict[str, float]:
    stats = run.stats
    summary = run.fleet["summary"]

    def ms(samples: List[Tuple[float, float]]) -> List[float]:
        return scaled_ms(samples, stats.slowness)

    values: Dict[str, float] = {
        "peak_rss_mb": run.peak_rss_mb,
        "tenant_intervals_per_s": summary["active_intervals"] / run.cpu_s,
        "norm_ipc_mean": summary["mean_normalized_ipc"],
        "read_ms_p95.peak": percentile(ms(stats.read_ms["peak"]), 95),
        "requests_per_cpu_s": stats.ok / run.cpu_s,
    }
    for phase in PHASES:
        values[f"admit_ms_p50.{phase}"] = percentile(ms(stats.admit_ms[phase]), 50)
        values[f"admit_ms_p95.{phase}"] = percentile(ms(stats.admit_ms[phase]), 95)
    return values


def report_phases(stats: LoadStats) -> None:
    for phase in PHASES:
        log(
            f"service_open {phase}: attempted {stats.attempted[phase]}, "
            f"failed {stats.failed[phase]}, admits {len(stats.admit_ms[phase])}"
        )


def run_service(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run the workload; returns values, correctness and request counts."""
    from inputs import service_plan

    OUT.mkdir(parents=True, exist_ok=True)
    config_path = OUT / f"service-seed{seed}.json"
    config_path.write_text(json.dumps(service_config(seed)))
    problems: List[str] = []
    if not trace:
        setups = []
        for _ in range(2):
            daemon = spawn_daemon(config_path)
            setups.append(daemon.setup_s)
            daemon.stop()
        run = load_daemon(config_path, service_plan(seed, seconds), False, "")
        setups.append(run.setup_s)
        check_run(run, config_path, problems)
        report_phases(run.stats)
        values = e2e_values(run)
        values["setup_s"] = median(setups)
        stats = run.stats
        return {
            "values": values,
            "problems": problems,
            "attempted": sum(stats.attempted.values()),
            "failed": sum(stats.failed.values()),
        }
    # Traced run: the same plan at half length, untraced then traced.
    plan = service_plan(seed, seconds / 2.0)
    base = load_daemon(config_path, plan, False, "")
    check_run(base, config_path, problems)
    run = load_daemon(config_path, plan, True, f"seed{seed}")
    check_run(run, config_path, problems)
    report_phases(run.stats)
    if run.layer is None:
        raise BenchError("the traced daemon wrote no per-layer metrics")
    layer = dict(run.layer["layer"])
    stats = run.stats
    handler = histogram_p50_ms(run.metrics_text, "dcat_http_request_seconds", "/v1/tenants")
    ticks = run.health["ticks"]
    arrived = stats.admitted + stats.rejected
    layer.update({
        "service.handler_ms_p50": handler,
        "service.queue_wait_ms_p50": max(0.0, handler - run.layer["apply_admit_ms_p50"]),
        "service.tick_lag_frac": 1.0 - ticks * TICK_S / run.served_s,
        "service.cpu_s": run.cpu_s,
        "obs.metrics_scrape_ms_p50": percentile(stats.scrape_ms, 50),
        "loadgen.lag_ms_p99": percentile(stats.lag_ms, 99),
        "cloud.admit_ratio": stats.admitted / arrived if arrived else 0.0,
        "cloud.slo_violation_frac": run.fleet["summary"]["violation_fraction"],
        "trace.overhead_frac": 1.0 - (run.stats.ok / run.cpu_s) / (base.stats.ok / base.cpu_s),
        "faults.intervals_checked": float(run.health["intervals_checked"]),
        "faults.violations": float(run.health["invariant_violations"]),
    })
    return {
        "values": layer,
        "problems": problems,
        "attempted": sum(stats.attempted.values()) + sum(base.stats.attempted.values()),
        "failed": sum(stats.failed.values()) + sum(base.stats.failed.values()),
    }
