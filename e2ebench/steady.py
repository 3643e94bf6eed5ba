"""Check the benchmark's run-to-run spread the way its acceptance does.

Usage (from the root of a checkout)::

    python3 e2ebench/steady.py --workload churn_dense --seeds 1 2 3 4 5

Runs ``run.py`` once per seed (sequentially), then prints for every
metric its median, the interquartile distance over the median, and that
spread as a share of the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, median, relative_spread  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: Dict[str, List[float]] = {}
    for seed in args.seeds:
        started = time.monotonic()
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        took = time.monotonic() - started
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode} after {took:.1f}s")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {took:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        spread = relative_spread(series) if len(series) >= 2 else 0.0
        bound = bounds.get(name)
        share = f"{spread / bound:6.2f} of bound" if bound else ""
        print(f"{name:34s} median {median(series):12.4f}  spread {spread:7.4f} {share}")
        print(f"    values: {', '.join(f'{v:.4g}' for v in series)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
