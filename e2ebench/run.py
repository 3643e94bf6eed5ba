"""End-to-end benchmark of the dCat reproduction: one command, three workloads.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload churn_dense --seed 1 --seconds 30 --trace 0

Workloads: ``churn_dense`` (100 analytical hosts under churn),
``exact_llc`` (2 exact tag-array hosts, fixed residents) and
``service_open`` (open-loop HTTP load against ``dcat-experiment serve``).
``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric of a traced run.  Progress goes to stderr; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``e2ebench/README.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    ROOT,
    WORKLOADS,
    BenchError,
    child_env,
    log,
    median,
    now,
    require_program,
    result_line,
    use_checkout_source,
)

#: Wall-clock cap on one child process of the in-process workloads.
CHILD_TIMEOUT_S = 170.0
#: Set-up samples per run (their median is ``setup_s``).
SETUP_SAMPLES = 3
#: Complete episodes a measured window must hold.
MIN_EPISODES = 2


def spawn_fleetbench(args: argparse.Namespace, mode: str) -> Dict[str, Any]:
    spawned = now()
    cmd = [
        sys.executable, str(Path(__file__).with_name("fleetbench.py")),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--seconds", repr(float(args.seconds)), "--trace", str(args.trace),
        "--spawned-at", repr(spawned),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S, text=True,
    )
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} {mode} child exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{args.workload} {mode} child printed nothing")
    return json.loads(lines[-1])


def run_fleet(args: argparse.Namespace) -> Dict[str, Any]:
    """``churn_dense`` / ``exact_llc``: set-up samples, then the measured child."""
    children = [spawn_fleetbench(args, "setup") for _ in range(SETUP_SAMPLES - 1)]
    result = spawn_fleetbench(args, "run")
    children.append(result)
    setups = [c["built_at"] - c["spawned_at"] for c in children]
    tally = result["tally"]
    problems: List[str] = list(tally["problems"])
    if len(tally["digests"]) != 1:
        problems.append(f"episodes of one seed disagree: {len(tally['digests'])} digests")
    if tally["episodes"] < MIN_EPISODES:
        problems.append(
            f"only {tally['episodes']} episode(s) completed inside the measured "
            f"window; the medians need {MIN_EPISODES}"
        )
    counted = tally
    if args.trace:
        traced = result["traced_tally"]
        problems.extend(traced["problems"])
        if traced["violations"]:
            problems.append(f"{traced['violations']} invariant violation(s)")
        if traced["episodes"] < 1:
            problems.append("no traced episode completed")
        values = dict(result["layer"])
        values["setup.import_s"] = median(c["imported_at"] - c["spawned_at"] for c in children)
        values["setup.build_s"] = median(c["built_at"] - c["imported_at"] for c in children)
        counted = traced
    else:
        summary = tally["summary"] or {}
        values = dict(result["metrics"])
        values.update({
            "setup_s": median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "tenant_intervals_per_s": tally["throughput"],
            "norm_ipc_mean": summary.get("mean_normalized_ipc", 0.0),
            "requests_per_cpu_s": tally["request_rate"],
        })
    log(
        f"{args.workload} seed {args.seed}: {tally['episodes']} episode(s), "
        f"digest {tally['digests'][0][:16] if tally['digests'] else '-'}, "
        f"placements {tally['placements']}, samples {tally['samples']}"
    )
    return {
        "values": values,
        "problems": problems,
        "attempted": counted["requests"],
        "failed": 0,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        require_program()
        if args.workload == "service_open":
            use_checkout_source()
            from service import run_service

            outcome = run_service(args.seed, args.seconds, bool(args.trace))
        else:
            outcome = run_fleet(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        log(f"benchmark failed: {exc}")
        return 1
    for problem in outcome["problems"]:
        log(f"CHECK FAILED: {problem}")
    units = PER_LAYER if args.trace else END_TO_END
    print(
        result_line(
            correct=not outcome["problems"],
            attempted=outcome["attempted"],
            failed=outcome["failed"],
            values=outcome["values"],
            units=units,
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
