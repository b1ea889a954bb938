"""In-memory span tracer for the traced benchmark run.

Spans are recorded around the calls into each graphit module, at the name the
caller looks up: ``graphit.algorithms`` and ``graphit.cli`` bind their
collaborators with ``from .x import y``, so the wrapper has to replace
``graphit.algorithms.kalman_filter``, not ``graphit.kalman.kalman_filter``.
Spans stay in memory until the run ends; ``layer_metrics`` turns them into
the per-layer numbers listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None


@dataclass
class Tracer:
    """Records nested spans and named counters; not thread-safe."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def wrap(self, fn, name: str, observe=None):
        """`fn` recording a span `name`; `observe(counters, args, kwargs, result)` runs after."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, observe=None) -> None:
        """Replace `module.attr` by its traced version until `restore`."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, observe))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                      "end": s.end, "parent": s.parent}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    result = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(s.end - s.start - covered)
    return result


# Span names recorded by the benchmark, grouped by the graphit module they time.
FIT = "algorithms.fit"
HARNESS = "harness"

_SELF_LAYERS = {
    "kalman.filter": "kalman.filter_s",
    "kalman.smoother": "kalman.smoother_s",
    "em_stats.compute": "em_stats.compute_s",
    "solver.dr": "solver.dr_s",
    "penalties.weight": "penalties.s",
    "penalties.value": "penalties.s",
    "model.generate": "model.generate_s",
    "model.simulate": "model.simulate_s",
    "metrics": "metrics.s",
    FIT: "algorithms.self_s",
    "algorithms.objective": "algorithms.self_s",
    "algorithms.mlem_update": "algorithms.self_s",
    "cli.main": "cli.self_s",
    "cli.load_scenario": "cli.self_s",
    "cli.export": "cli.self_s",
    HARNESS: "harness.self_s",
}


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced phase, normalized per completed fit.

    Times ending in ``_s`` are seconds per fit. The leaf layers (kalman,
    em_stats, solver, penalties, model, metrics) have no child spans, so their
    totals equal their self times; ``algorithms.self_s``, ``cli.self_s`` and
    ``harness.self_s`` are self times. Together they partition the root span,
    which ``trace.self_sum_frac`` checks against the traced wall time.
    """
    spans = tracer.spans
    total = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        total[s.name] += s.end - s.start
        calls[s.name] += 1
    self_by_layer = defaultdict(float)
    for s, st in zip(spans, self_times(spans)):
        self_by_layer[_SELF_LAYERS.get(s.name, "harness.self_s")] += st

    c = tracer.counters
    fits = max(calls[FIT], 1)
    dr_calls = max(calls["solver.dr"], 1)
    outer = max(c["algorithms.outer_iters"], 1)
    fit_s = total[FIT]
    m = {
        "kalman.filter_s": total["kalman.filter"] / fits,
        "kalman.filter_calls": calls["kalman.filter"] / fits,
        "kalman.filter_step_us": 1e6 * total["kalman.filter"] / max(c["kalman.filter_steps"], 1),
        "kalman.smoother_s": total["kalman.smoother"] / fits,
        "kalman.smoother_calls": calls["kalman.smoother"] / fits,
        "kalman.smoother_step_us": 1e6 * total["kalman.smoother"] / max(c["kalman.smoother_steps"], 1),
        "kalman.fit_share": (total["kalman.filter"] + total["kalman.smoother"]) / fit_s if fit_s else 0.0,
        "em_stats.compute_s": total["em_stats.compute"] / fits,
        "em_stats.compute_calls": calls["em_stats.compute"] / fits,
        "solver.dr_s": total["solver.dr"] / fits,
        "solver.dr_calls": calls["solver.dr"] / fits,
        "solver.dr_iters": c["solver.dr_iters"] / dr_calls,
        "solver.dr_iter_us": 1e6 * total["solver.dr"] / max(c["solver.dr_iters"], 1),
        "solver.dr_converged_frac": c["solver.dr_converged"] / dr_calls,
        "solver.dr_fallbacks": c["solver.dr_fallbacks"] / fits,
        "solver.fit_share": total["solver.dr"] / fit_s if fit_s else 0.0,
        "penalties.s": (total["penalties.weight"] + total["penalties.value"]) / fits,
        "algorithms.fit_s": fit_s / fits,
        "algorithms.outer_iters": c["algorithms.outer_iters"] / fits,
        "algorithms.outer_iter_ms": 1e3 * fit_s / outer,
        "algorithms.cap_stops": c["algorithms.cap_stops"] / fits,
        "algorithms.objective_s": total["algorithms.objective"] / fits,
        "algorithms.mlem_update_s": total["algorithms.mlem_update"] / fits,
        "algorithms.self_s": self_by_layer["algorithms.self_s"] / fits,
        "model.generate_s": total["model.generate"] / fits,
        "model.simulate_s": total["model.simulate"] / fits,
        "metrics.s": total["metrics"] / fits,
        "cli.load_scenario_s": total["cli.load_scenario"] / fits,
        "cli.export_s": total["cli.export"] / fits,
        "cli.self_s": self_by_layer["cli.self_s"] / fits,
        "harness.self_s": self_by_layer["harness.self_s"] / fits,
        "trace.fits": float(calls[FIT]),
        "trace.self_sum_frac": sum(self_by_layer.values()) / traced_wall,
        "trace.overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
    }
    return m


LAYER_UNITS = {
    "kalman.filter_s": "s/fit", "kalman.filter_calls": "1/fit", "kalman.filter_step_us": "us",
    "kalman.smoother_s": "s/fit", "kalman.smoother_calls": "1/fit", "kalman.smoother_step_us": "us",
    "kalman.fit_share": "ratio",
    "em_stats.compute_s": "s/fit", "em_stats.compute_calls": "1/fit",
    "solver.dr_s": "s/fit", "solver.dr_calls": "1/fit", "solver.dr_iters": "1/call",
    "solver.dr_iter_us": "us", "solver.dr_converged_frac": "ratio", "solver.dr_fallbacks": "1/fit",
    "solver.fit_share": "ratio",
    "penalties.s": "s/fit",
    "algorithms.fit_s": "s/fit", "algorithms.outer_iters": "1/fit", "algorithms.outer_iter_ms": "ms",
    "algorithms.cap_stops": "1/fit", "algorithms.objective_s": "s/fit",
    "algorithms.mlem_update_s": "s/fit", "algorithms.self_s": "s/fit",
    "model.generate_s": "s/fit", "model.simulate_s": "s/fit",
    "metrics.s": "s/fit",
    "cli.load_scenario_s": "s/fit", "cli.export_s": "s/fit", "cli.self_s": "s/fit",
    "harness.self_s": "s/fit",
    "trace.fits": "count", "trace.self_sum_frac": "ratio", "trace.overhead_frac": "ratio",
}

# Where each caller looks a graphit layer up, and the span recorded there.
# graphit.algorithms.graphit is left alone: graphem calls it internally, and
# the fit span belongs at the caller of the estimator, not inside it.
ALGORITHMS_SPANS = {
    "kalman_filter": "kalman.filter", "rts_smoother": "kalman.smoother",
    "compute_stats": "em_stats.compute", "douglas_rachford": "solver.dr",
    "weight_matrix": "penalties.weight", "penalty_value": "penalties.value",
    "mlem_update": "algorithms.mlem_update", "objective": "algorithms.objective",
}
CALLER_SPANS = {
    "graphit": FIT, "graphem": FIT, "mlem": FIT,
    "generate_sparse_A": "model.generate", "simulate": "model.simulate",
    "rmse": "metrics", "edge_confusion": "metrics", "f1": "metrics", "accuracy": "metrics",
    "load_scenario": "cli.load_scenario",
    "export_csv": "cli.export", "export_dot": "cli.export", "export_grid_csv": "cli.export",
    "cli_main": "cli.main",
}


def _fit_done(c, args, kwargs, result):
    c["algorithms.outer_iters"] += result.outer_iterations
    c["algorithms.cap_stops"] += result.stopped_by == "cap"


def _filter_done(c, args, kwargs, result):
    c["kalman.filter_steps"] += result.horizon


def _smoother_done(c, args, kwargs, result):
    c["kalman.smoother_steps"] += result.horizon


def _dr_done(c, args, kwargs, result):
    A_init = args[3] if len(args) > 3 else kwargs["A_init"]
    c["solver.dr_iters"] += result.iterations
    c["solver.dr_converged"] += result.converged
    c["solver.dr_fallbacks"] += bool(np.array_equal(result.minimizer, A_init))


_OBSERVERS = {"kalman.filter": _filter_done, "kalman.smoother": _smoother_done,
              "solver.dr": _dr_done, FIT: _fit_done}


def install_graphit_spans(tracer: Tracer, api, algorithms, cli) -> None:
    """Wrap the graphit calls made by graphit.algorithms, graphit.cli and the benchmark (`api`)."""
    for attr, name in ALGORITHMS_SPANS.items():
        tracer.patch(algorithms, attr, name, _OBSERVERS.get(name))
    for owner in (cli, api):
        for attr, name in CALLER_SPANS.items():
            if hasattr(owner, attr):
                tracer.patch(owner, attr, name, _OBSERVERS.get(name))
