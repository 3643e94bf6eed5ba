"""Span tracing for the traced run, installed from the benchmark's side.

:class:`Tracer` wraps public functions of each layer (class attributes or
module globals) with span-recording wrappers, and :func:`install` wires
the standard set.  Spans live in compact in-memory arrays (name, start,
end, parent, id) and are written once, when the run ends.  Every span
under one root call — a fleet tick or one client command — shares that
root's id.  Self time is a span's duration minus its direct children's.

Nothing here runs unless the traced run installs it; the untraced run
executes the program exactly as shipped.
"""

from __future__ import annotations

import functools
import json
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from common import PER_LAYER, percentile

#: Root spans: each call opens a new span id (one command or fleet tick).
ROOTS = ("handle.tick", "handle.admit", "handle.detach", "handle.tenant_stats")


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ids = array("i")
        self._stack: List[int] = []
        self._next_id = 0
        #: Plain counters fed by wrappers (accesses, hits, trace lines...).
        self.counts: Dict[str, float] = {}
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        count: Optional[Callable[[Tracer, tuple, Any], None]] = None,
        suffix: Optional[Callable[[Any], str]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``suffix(self_arg)`` names spans ``name.<suffix>`` per call (used
        for stages, whose one ``run`` serves every stage name).
        """
        original = getattr(owner, attr)
        tracer = self
        name_id = self._name_id(name)
        name_of = self._name_id
        root = name in ROOTS
        stack = self._stack
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, ids = self.parents, self.ids

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if stack:
                parent = stack[-1]
                span_id = ids[parent]
            else:
                parent = -1
                if root:
                    tracer._next_id += 1
                span_id = tracer._next_id
            index = len(starts)
            if suffix is None:
                name_ids.append(name_id)
            else:
                name_ids.append(name_of(name + "." + suffix(args[0])))
            parents.append(parent)
            ids.append(span_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if count is not None:
                count(tracer, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "id": np.frombuffer(self.ids, dtype=np.int32).copy(),
        }

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, durations."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][child], weights=dur[child], minlength=dur.size
        )[: dur.size]
        self_time = dur - covered
        out: Dict[str, Dict[str, float]] = {}
        for index, name in enumerate(self.names):
            sel = a["name"] == index
            out[name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
            }
        return out

    def durations(self, name: str) -> np.ndarray:
        index = self._name_index.get(name)
        if index is None:
            return np.zeros(0)
        a = self.arrays()
        sel = a["name"] == index
        return (a["end"] - a["start"])[sel]

    def dump(self, path: Path) -> None:
        """Write every span plus the per-name summary (run end only)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
        path.with_suffix(".summary.json").write_text(
            json.dumps({"spans": self.summary(), "counts": self.counts}, indent=1)
        )


# -- the standard wrapper set ----------------------------------------------------


def _count_accesses(tracer: Tracer, args: tuple, hits: Any) -> None:
    tracer.add("cache.accesses", len(args[1]))
    tracer.add("cache.hits", int(hits))


def _count_lines(tracer: Tracer, args: tuple, lines: Any) -> None:
    tracer.add("workloads.trace_lines", len(lines))


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    import repro.cloud.fleet as fleet_mod
    import repro.core.controller as controller_mod
    from repro.cache.analytical import AnalyticalCacheModel
    from repro.cache.setassoc import SetAssociativeCache
    from repro.cat.pqos import PqosLibrary
    from repro.cloud import placement
    from repro.cloud.handle import FleetHandle
    from repro.cloud.slo import SloAccountant
    from repro.cpu.coremodel import CoreTimingModel
    from repro.engine.pipeline import FunctionStage
    from repro.hwcounters.msr import CorePmu
    from repro.hwcounters.perfmon import PerfMonitor
    from repro.workloads.trace import TraceGenerator

    wrap = tracer.wrap
    wrap(FleetHandle, "tick", "handle.tick")
    wrap(FleetHandle, "admit", "handle.admit")
    wrap(FleetHandle, "detach", "handle.detach")
    wrap(FleetHandle, "tenant_stats", "handle.tenant_stats")
    wrap(fleet_mod.CloudFleet, "step", "cloud.step")
    wrap(fleet_mod.CloudFleet, "admit_tenant", "cloud.admit")
    wrap(fleet_mod.CloudFleet, "depart_tenant", "cloud.depart")
    wrap(fleet_mod, "entitled_ipc", "cloud.entitled_ipc")
    wrap(SloAccountant, "observe", "cloud.slo_observe")
    for cls in (
        placement.FirstFitPolicy,
        placement.LeastLoadedPolicy,
        placement.SensitivityAwarePolicy,
    ):
        wrap(cls, "place", "cloud.place")
    wrap(FunctionStage, "run", "stage", suffix=lambda stage: stage.name)
    wrap(PerfMonitor, "sample_core", "hwcounters.sample_core")
    wrap(CorePmu, "advance", "hwcounters.msr_advance")
    wrap(CoreTimingModel, "execute_interval", "cpu.execute_interval")
    wrap(PqosLibrary, "l3ca_set", "cat.l3ca_set")
    wrap(PqosLibrary, "l3ca_get", "cat.l3ca_get")
    wrap(controller_mod, "plan_allocation", "core.plan_allocation")
    wrap(AnalyticalCacheModel, "hit_rate_fp", "cache.hit_rate_fp")
    wrap(SetAssociativeCache, "access_many", "cache.access_many", _count_accesses)
    wrap(SetAssociativeCache, "occupancy_by_cos", "cache.occupancy")
    wrap(TraceGenerator, "generate", "workloads.trace_generate", _count_lines)


# -- per-layer metrics -------------------------------------------------------------


def layer_metrics(
    tracer: Tracer,
    profiler: Any,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric; a layer the workload never calls reads 0.

    ``profiler`` is the run's :class:`~repro.obs.profiler.StageProfiler`;
    ``extra`` carries the values measured outside the wrappers (set-up,
    daemon, load generator, invariant checkers, tracing overhead).
    """
    spans = tracer.summary()
    hi = profiler.invocations("sim", "execute_cores")

    def per_hi(value: float) -> float:
        return value / hi if hi else 0.0

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def total_us(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0) * 1e6

    def mean_us(name: str) -> float:
        n = calls(name)
        return total_us(name) / n if n else 0.0

    def stage_us(loop: str, stage: str) -> float:
        return per_hi(profiler.total_seconds(loop, stage) * 1e6)

    def pct_ms(name: str, q: float) -> float:
        d = tracer.durations(name)
        return percentile(list(d), q) * 1e3 if d.size else 0.0

    controller_stages = (
        "inject_faults", "collect", "detect_phase", "get_baseline",
        "categorize", "allocate", "commit",
    )
    control_self = profiler.total_seconds("sim", "control") - sum(
        profiler.total_seconds("controller", s) for s in controller_stages
    )
    accesses = tracer.counts.get("cache.accesses", 0.0)
    sets = calls("cat.l3ca_set")
    steps = calls("cloud.step")
    m: Dict[str, float] = {
        "hwcounters.sample_core_calls": per_hi(calls("hwcounters.sample_core")),
        "hwcounters.sample_core_us": per_hi(total_us("hwcounters.sample_core")),
        "hwcounters.msr_advance_calls": per_hi(calls("hwcounters.msr_advance")),
        "hwcounters.msr_advance_us": per_hi(total_us("hwcounters.msr_advance")),
        "cpu.execute_interval_calls": per_hi(calls("cpu.execute_interval")),
        "cpu.execute_interval_us": per_hi(total_us("cpu.execute_interval")),
        "platform.execute_cores_us": stage_us("sim", "execute_cores"),
        "platform.feed_pmus_us": stage_us("sim", "feed_pmus"),
        "platform.record_us": stage_us("sim", "record"),
        "platform.update_dram_us": stage_us("sim", "update_dram"),
        "platform.control_self_us": per_hi(control_self * 1e6),
        "platform.resolve_hit_rates_us": stage_us("sim", "resolve_hit_rates"),
        "core.collect_us": stage_us("controller", "collect"),
        "core.allocate_us": stage_us("controller", "allocate"),
        "core.commit_us": stage_us("controller", "commit"),
        "core.plan_allocation_us": per_hi(total_us("core.plan_allocation")),
        "core.plans_per_interval": per_hi(calls("core.plan_allocation")),
        "core.detect_phase_us": stage_us("controller", "detect_phase"),
        "core.get_baseline_us": stage_us("controller", "get_baseline"),
        "core.categorize_us": stage_us("controller", "categorize"),
        "cat.l3ca_set_calls": per_hi(sets),
        "cat.l3ca_set_us": per_hi(total_us("cat.l3ca_set")),
        "cat.l3ca_get_calls": per_hi(calls("cat.l3ca_get")),
        "cat.l3ca_get_us": per_hi(total_us("cat.l3ca_get")),
        "cat.readback_per_set": calls("cat.l3ca_get") / sets if sets else 0.0,
        "cache.hit_rate_fp_calls": per_hi(calls("cache.hit_rate_fp")),
        "cache.hit_rate_fp_us": per_hi(total_us("cache.hit_rate_fp")),
        "cache.accesses": per_hi(accesses),
        "cache.access_ns": (
            total_us("cache.access_many") * 1e3 / accesses if accesses else 0.0
        ),
        "cache.hit_ratio": (
            tracer.counts.get("cache.hits", 0.0) / accesses if accesses else 0.0
        ),
        "cache.occupancy_us": per_hi(total_us("cache.occupancy")),
        "workloads.trace_lines": per_hi(tracer.counts.get("workloads.trace_lines", 0.0)),
        "workloads.trace_generate_us": per_hi(total_us("workloads.trace_generate")),
        "cloud.place_calls": float(calls("cloud.place")),
        "cloud.place_us": mean_us("cloud.place"),
        "cloud.admit_us": mean_us("cloud.admit"),
        "cloud.depart_us": mean_us("cloud.depart"),
        "cloud.slo_observe_us": mean_us("cloud.slo_observe"),
        "cloud.entitled_ipc_us": mean_us("cloud.entitled_ipc"),
        "cloud.step_ms_p50": pct_ms("cloud.step", 50),
        "cloud.active_hosts": hi / steps if steps else 0.0,
        "service.tick_ms_p50": pct_ms("handle.tick", 50),
        "service.tick_ms_p99": pct_ms("handle.tick", 99),
        "service.apply_admit_us": mean_us("handle.admit"),
        "service.apply_detach_us": mean_us("handle.detach"),
    }
    for name, value in extra.items():
        m[name] = value
    for name in PER_LAYER:
        m.setdefault(name, 0.0)
    return m
