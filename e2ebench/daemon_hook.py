"""Run ``dcat-experiment serve`` with the benchmark's tracing installed.

Used only by the traced ``service_open`` run::

    python3 e2ebench/daemon_hook.py --out PATH -- serve CONFIG --port 0

Installs the span wrappers and a ``StageProfiler`` around the CLI's own
``main``, counts the events the daemon's service bus carries, and when the
daemon has shut down (SIGTERM) writes the per-layer metrics to ``PATH``
as JSON, next to the span dump.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import percentile, use_checkout_source  # noqa: E402

use_checkout_source()

from repro.engine.pipeline import use_profiler  # noqa: E402
from repro.harness import cli  # noqa: E402
from repro.obs.profiler import StageProfiler  # noqa: E402
from repro.service.daemon import ControllerDaemon  # noqa: E402

import tracing  # noqa: E402

_T_IMPORTED = time.monotonic()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="per-layer metrics JSON path")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    tracer = tracing.Tracer()
    events = [0]
    builds: List[float] = []
    daemons: List[ControllerDaemon] = []
    original_init = ControllerDaemon.__init__

    def counting_init(self, *a, **kw):
        started = time.monotonic()
        original_init(self, *a, **kw)
        builds.append(time.monotonic() - started)
        daemons.append(self)

        def count(_event) -> None:
            events[0] += 1

        self.bus.subscribe(count)

    ControllerDaemon.__init__ = counting_init
    tracing.install(tracer)
    profiler = StageProfiler()
    try:
        with use_profiler(profiler):
            rc = cli.main(serve_args)
    finally:
        tracer.uninstall()
        ControllerDaemon.__init__ = original_init
    out = Path(args.out)
    tracer.dump(out.with_suffix(".npz"))
    ticks = daemons[0].handle.ticks if daemons else 0
    admits = tracer.durations("handle.admit")
    extra: Dict[str, float] = {
        "engine.events_per_interval": events[0] / ticks if ticks else 0.0,
        "setup.import_s": _T_IMPORTED - args.spawned_at,
        "setup.build_s": builds[0] if builds else 0.0,
    }
    payload = {
        "layer": tracing.layer_metrics(tracer, profiler, extra),
        "apply_admit_ms_p50": percentile(list(admits), 50) * 1e3 if admits.size else 0.0,
        "ticks": ticks,
    }
    out.write_text(json.dumps(payload))
    return rc


if __name__ == "__main__":
    sys.exit(main())
