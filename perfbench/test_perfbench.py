"""Tests of the benchmark's own arithmetic and tracing.

Run from the repository root: python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from summary import fail_frac, median, quartiles, spread  # noqa: E402
from tracing import FIT, HARNESS, Span, Tracer, install_graphit_spans, layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_nested_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0), Span("a", 1.0, 6.0, parent=0), Span("b", 4.0, 8.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_median_and_quartiles():
    values = list(range(1, 11))
    assert median(values) == 5.5
    assert quartiles(values) == (2.75, 5.5, 8.25)
    assert spread(values) == pytest.approx(5.5 / 5.5)
    assert spread([4.0, 4.0, 4.0, 4.0]) == 0.0


def test_fail_frac_with_mixed_outcomes():
    assert fail_frac([None, "raised ValueError", None, "rmse differs"]) == 0.5
    assert fail_frac([None, None]) == 0.0
    assert fail_frac(iter(["x"])) == 1.0
    with pytest.raises(ValueError):
        fail_frac([])


def test_layer_metrics_partition_the_traced_wall_time():
    tracer = Tracer(spans=[
        Span(HARNESS, 0.0, 10.0),
        Span(FIT, 1.0, 5.0, parent=0),
        Span("kalman.filter", 1.5, 3.5, parent=1),
        Span("solver.dr", 4.0, 4.5, parent=1),
        Span(FIT, 6.0, 9.0, parent=0),
        Span("kalman.filter", 6.0, 8.0, parent=4),
    ])
    tracer.counters.update({"kalman.filter_steps": 2000, "algorithms.outer_iters": 4,
                            "solver.dr_iters": 10, "solver.dr_converged": 1})
    m = layer_metrics(tracer, traced_wall=10.0, untraced_wall=8.0)
    assert m["trace.fits"] == 2
    assert m["kalman.filter_s"] == pytest.approx(2.0)
    assert m["kalman.filter_calls"] == 1.0
    assert m["kalman.filter_step_us"] == pytest.approx(1e6 * 4.0 / 2000)
    assert m["solver.dr_iter_us"] == pytest.approx(1e6 * 0.5 / 10)
    assert m["solver.dr_converged_frac"] == 1.0
    assert m["algorithms.self_s"] == pytest.approx((7.0 - 4.5) / 2)
    assert m["harness.self_s"] == pytest.approx(3.0 / 2)
    assert m["kalman.fit_share"] == pytest.approx(4.0 / 7.0)
    assert m["algorithms.outer_iter_ms"] == pytest.approx(1e3 * 7.0 / 4)
    assert m["trace.self_sum_frac"] == pytest.approx(1.0)
    assert m["trace.overhead_frac"] == pytest.approx(0.25)


def test_spans_wrap_the_names_callers_look_up():
    import numpy as np

    import graphit
    import graphit.algorithms
    import graphit.cli

    params = graphit.ModelParams(A=0.5 * np.eye(2), H=np.eye(2), Q=0.01 * np.eye(2),
                                 R=0.01 * np.eye(2), mu0=np.zeros(2), Sigma0=1e-4 * np.eye(2))
    y = graphit.simulate(params, 20, seed=0).observations
    api = SimpleNamespace(graphit=graphit.graphit)
    cfg = graphit.EstimatorConfig(potential=graphit.Potential("l1", gamma=1.0), max_outer=3)
    tracer = Tracer()
    install_graphit_spans(tracer, api, graphit.algorithms, graphit.cli)
    try:
        root = tracer.open(HARNESS)
        result = api.graphit(y, params, graphit.default_init(2), cfg)
        tracer.close(root)
    finally:
        tracer.restore()
    assert graphit.algorithms.kalman_filter is graphit.kalman.kalman_filter
    names = [s.name for s in tracer.spans]
    assert names.count(FIT) == 1
    assert names.count("kalman.filter") == result.outer_iterations + 1
    assert names.count("solver.dr") == result.outer_iterations
    assert tracer.counters["algorithms.outer_iters"] == result.outer_iterations
    assert tracer.counters["kalman.filter_steps"] == 20 * (result.outer_iterations + 1)
    assert sum(self_times(tracer.spans)) == pytest.approx(tracer.spans[0].end - tracer.spans[0].start)


def test_out_of_order_close_is_an_error():
    tracer = Tracer()
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_benchmark_json_lists_the_reported_metrics():
    import json

    from run import E2E_UNITS
    from tracing import LAYER_UNITS

    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
