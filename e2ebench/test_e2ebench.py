"""Self-tests for the benchmark's own helpers.

Run with ``python3 -m pytest e2ebench -q`` from the root of a checkout.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import inputs  # noqa: E402
from common import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    BenchError,
    percentile,
    relative_spread,
    result_line,
    samples_beyond,
)

common.use_checkout_source()

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())


# -- percentiles -------------------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(1, 11))
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile(values, 99) == 10
    assert percentile(values, 100) == 10
    assert percentile([3.0], 99) == 3.0
    assert percentile(list(reversed(values)), 10) == 1


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_ten_beyond_rule():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    assert samples_beyond(100, 50) == 50
    assert samples_beyond(200, 95) == 10


def test_relative_spread():
    assert relative_spread([10.0] * 10) == 0.0
    values = [float(v) for v in range(1, 11)]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert relative_spread(values) == pytest.approx((q3 - q1) / med)


# -- seeded inputs -----------------------------------------------------------------


def test_churn_load_is_invariant_across_seeds():
    shape = inputs.ChurnShape()
    shapes = []
    for seed in (1, 2, 3, 17):
        initial, commands = inputs.churn_inputs(seed, shape)
        admits = [c for c in commands if c.kind == "admit"]
        per_phase = {p: sum(1 for c in admits if c.phase == p) for p in ("nominal", "peak")}
        per_type = {}
        for c in initial + admits:
            key = json.dumps(c.workload, sort_keys=True)
            per_type[key] = per_type.get(key, 0) + 1
        total_life = sum(c.lifetime_s for c in initial + admits)
        shapes.append((len(initial), per_phase, per_type, total_life))
        assert all(0.0 <= c.due_s < shape.intervals * shape.interval_s for c in commands)
        assert len({c.name for c in initial + admits}) == len(initial) + len(admits)
    for other in shapes[1:]:
        assert other[:3] == shapes[0][:3]
        assert other[3] == pytest.approx(shapes[0][3], rel=0.03)
    rate = inputs.steady_arrival_rate(shape)
    assert shapes[0][1]["nominal"] == round(rate * shape.nominal_intervals)
    assert shapes[0][1]["peak"] == round(rate * shape.peak_factor * shape.peak_intervals)


def test_churn_inputs_are_a_function_of_the_seed():
    assert inputs.churn_inputs(5) == inputs.churn_inputs(5)
    assert inputs.churn_inputs(5) != inputs.churn_inputs(6)


def test_service_generator_load_is_invariant_across_seeds():
    seconds = 30.0
    plans = {seed: inputs.service_plan(seed, seconds) for seed in (1, 2, 9)}
    for plan in plans.values():
        start = 0.0
        for phase in inputs.SERVICE_PHASES:
            span = seconds * phase.share
            entries = [t for t in plan if t.phase == phase.name]
            assert len(entries) == round(phase.rate_per_s * span)
            assert all(start <= t.offset_s < start + span for t in entries)
            start += span
        assert len(plan) >= 1000
    holds = [sum(t.hold_s for t in plan) for plan in plans.values()]
    assert max(holds) / min(holds) < 1.03
    assert inputs.service_plan(1, seconds) == plans[1]
    assert [t.workload for t in plans[1]] != [t.workload for t in plans[2]]


def test_service_phases_meet_the_ten_beyond_rule():
    plan = inputs.service_plan(1, BENCHMARK["run_seconds"])
    for phase in inputs.SERVICE_PHASES:
        admits = sum(1 for t in plan if t.phase == phase.name)
        assert samples_beyond(admits, 95) >= 10


# -- the output contract -------------------------------------------------------------


def test_metric_tables_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == END_TO_END
    assert layer == PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(common.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "e2ebench/run.py"]


def test_result_line_names_exactly_the_declared_metrics():
    values = {name: 1.5 for name in END_TO_END}
    payload = json.loads(result_line(True, 3, 0, values, END_TO_END))
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert set(payload["metrics"]) == set(END_TO_END)
    assert payload["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    with pytest.raises(BenchError):
        result_line(True, 3, 0, dict(values, extra=1.0), END_TO_END)
    del values["setup_s"]
    with pytest.raises(BenchError):
        result_line(True, 3, 0, values, END_TO_END)


def test_layer_metrics_cover_every_per_layer_name():
    import tracing
    from repro.obs.profiler import StageProfiler

    metrics = tracing.layer_metrics(tracing.Tracer(), StageProfiler(), {})
    assert set(metrics) == set(PER_LAYER)
    assert all(value == 0.0 for value in metrics.values())


# -- tracing ------------------------------------------------------------------------


class _Layer:
    def outer(self, n):
        for _ in range(n):
            self.inner()
        return n

    def inner(self):
        return sum(range(2000))


def test_tracer_nests_spans_and_computes_self_time():
    import tracing

    tracer = tracing.Tracer()
    tracer.wrap(_Layer, "outer", "handle.tick")
    tracer.wrap(_Layer, "inner", "layer.inner")
    try:
        layer = _Layer()
        assert layer.outer(3) == 3
        assert layer.outer(1) == 1
    finally:
        tracer.uninstall()
    assert _Layer.outer.__name__ == "outer" and not hasattr(_Layer.outer, "__wrapped__")
    a = tracer.arrays()
    outer = a["name"] == tracer.names.index("handle.tick")
    inner = ~outer
    assert outer.sum() == 2 and inner.sum() == 4
    # Every inner span points at an outer parent and shares its id.
    assert all(a["parent"][inner] >= 0)
    assert list(a["id"][inner]) == [a["id"][p] for p in a["parent"][inner]]
    assert len(set(a["id"][outer])) == 2
    summary = tracer.summary()
    total = summary["handle.tick"]["total_s"]
    children = summary["layer.inner"]["total_s"]
    assert summary["handle.tick"]["self_s"] == pytest.approx(total - children)
    assert summary["layer.inner"]["self_s"] == pytest.approx(children)


def test_histogram_median_interpolates_inside_the_bucket():
    from service import histogram_p50_ms

    text = "\n".join([
        'm_bucket{route="/a",le="0.001"} 0',
        'm_bucket{route="/a",le="0.002"} 10',
        'm_bucket{route="/a",le="+Inf"} 10',
        'm_bucket{route="/b",le="0.001"} 5',
        'm_bucket{route="/b",le="+Inf"} 5',
    ])
    assert histogram_p50_ms(text, "m", "/a") == pytest.approx(1.5)
    assert histogram_p50_ms(text, "m", "/b") == pytest.approx(0.5)
    assert histogram_p50_ms(text, "m", "/c") == 0.0


# -- host-speed scaling ---------------------------------------------------------------


def test_calibrate_reports_a_positive_slowness():
    assert common.calibration_pass() == common.calibration_pass()
    assert 0.0 < common.calibrate(repeats=1) < 1000.0


def test_episode_estimates_scale_each_sample_by_its_slowness():
    from fleetbench import Tally

    tally = Tally()
    # Three episodes of two ticks; the second episode ran on a host twice
    # as slow and its calibrations say so, the third hit one slow command.
    for speed, stall in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0)):
        tally.add_episode(
            [(0.1 * speed, 0.1 * speed, 10, True, speed),
             (0.3 * speed, 0.2 * speed, 30, True, speed)],
            [("admit", "peak", 4.0 * speed * stall, 0), ("read", "peak", 6.0 * speed, 1)],
        )
    assert not tally.problems
    assert tally.throughput == pytest.approx(40 / 0.4)
    assert tally.request_rate == pytest.approx(2 / 0.3)
    assert tally.latencies("admit", "peak") == pytest.approx([4.0])
    assert tally.latencies("read", "peak") == pytest.approx([6.0])
    assert tally.requests == 6
    tally.add_episode([(0.1, 0.1, 11, True, 1.0), (0.3, 0.2, 30, True, 1.0)], [])
    assert tally.problems == ["episodes of one seed ran different work"]


def test_service_latencies_use_the_nearby_calibrations():
    from service import scaled_ms

    slowness = [(0.0, 1.0), (0.5, 2.0), (1.0, 2.0), (5.0, 4.0)]
    assert scaled_ms([(0.6, 4.0)], slowness) == pytest.approx([2.0])
    assert scaled_ms([(4.5, 8.0)], slowness) == pytest.approx([2.0])
    assert scaled_ms([(9.0, 8.0)], slowness) == pytest.approx([2.0])
