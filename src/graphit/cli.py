"""Experiment harness (Monte-Carlo benchmark, grid search) and the command line.

Per-realization randomness is derived from the master seed by a counter-based
scheme, SeedSequence(master_seed, spawn_key=(r, j)), so results do not depend
on execution order or on the degree of parallelism.

Wall-clock timings are inherently non-reproducible, so ``bench`` writes two
tables: ``results.csv`` (metrics only; byte-deterministic) and
``results_with_times.csv`` (the full table including mean seconds).

The benchmark's tracer (``CALLER_SPANS`` in ``perfbench/tracing.py``) times
the estimators, models, metrics, config reader and exporters by replacing
their names on this module. Their callers therefore live here and look each
name up as a global of this module at call time: no table of functions built
at import, no call routed through another module. A grid of several points
is fitted in lockstep by `graphit_lockstep`, which the tracer does not wrap,
so it calls none of the traced estimator names: the tracer sees those fits
only through the layer names that `graphit.algorithms` still calls for each
fit (`rts_smoother`, `compute_stats`, `weight_matrix`, `penalty_value`,
`objective`), and, in the rounds with one fit left, `kalman_filter` and
`douglas_rachford`, outside any fit span.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import sys
import time
import warnings
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import TextIO

import numpy as np

from .algorithms import EstimatorConfig, check_graphem, default_init, graphem, graphit, graphit_lockstep, mlem
from .exceptions import ConfigError, GraphitError, attempt
from .export import (
    BenchmarkRow, _hyper_string, _point_string, export_csv, export_curve_csv, export_dot, export_grid_csv,
)
from .metrics import accuracy, edge_confusion, f1, rmse
from .model import ModelParams, check_count, generate_sparse_A, simulate
from .penalties import FAMILIES, SHAPE_FIELD, Potential, check_potential, emit_penalty_curve
from .scenario import PENALIZED, Scenario, load_scenario

# ---------------------------------------------------------------------------
# benchmark core

def _map(fn, arg_tuples: list[tuple], jobs: int) -> list:
    """[fn(*args) for args in arg_tuples], on a pool of up to `jobs` processes.

    The pool starts every worker at once, so it gets no more than there are tasks.
    """
    workers = min(jobs, len(arg_tuples))
    if workers <= 1:
        return [fn(*args) for args in arg_tuples]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args) for args in arg_tuples]
        return [fut.result() for fut in futures]


def _realization_data(scenario: Scenario, r: int):
    """Ground truth, model and simulated data for realization index r."""
    seed_a = np.random.SeedSequence(scenario.master_seed, spawn_key=(r, 0))
    seed_sim = np.random.SeedSequence(scenario.master_seed, spawn_key=(r, 1))
    A_true = generate_sparse_A(scenario.n_x, scenario.s, scenario.target_norm, seed_a)
    params = ModelParams(
        A=A_true,
        H=np.eye(scenario.n_y, scenario.n_x),
        Q=scenario.sigma_q**2 * np.eye(scenario.n_x),
        R=scenario.sigma_r**2 * np.eye(scenario.n_y),
        mu0=np.zeros(scenario.n_x),
        Sigma0=scenario.sigma_0**2 * np.eye(scenario.n_x),
    )
    trajectory = simulate(params, scenario.k, seed_sim)
    return A_true, params, trajectory


def _fit(method: str, scenario: Scenario, params: ModelParams, observations, A0, potentials: Sequence) -> list:
    """`method` fitted from A0 at each potential (None for mlem): its EstimatorResult or the error that ended it.

    Several potentials are fitted in lockstep by `graphit_lockstep` (graphem is
    graphit with an l1 potential), and a single one by its estimator; each
    estimator is looked up here at call time, not in a table built at import.
    """
    cfg = EstimatorConfig(epsilon=scenario.epsilon, max_outer=scenario.max_outer, dr=scenario.dr)
    if len(potentials) > 1:
        return graphit_lockstep(observations, params, A0, cfg, potentials)
    estimator = {"graphit": graphit, "graphem": graphem, "mlem": mlem}[method]
    return [attempt(estimator, observations, params, A0, dataclasses.replace(cfg, potential=potentials[0]))]


def _score(scenario: Scenario, method: str, potentials: Sequence, data: tuple, A0: np.ndarray) -> list[dict]:
    """Each potential's fit on a realization's data scored against its truth; {"ok": False, "error": ...} if it failed.

    `time_s` is the wall time of the call that made the fit, which is a
    lockstep batch when there are several potentials.
    """
    A_true, params, trajectory = data
    start = time.perf_counter()
    results = _fit(method, scenario, params, trajectory.observations, A0, potentials)
    elapsed = time.perf_counter() - start
    scores = []
    for result in results:
        if isinstance(result, Exception):
            scores.append({"ok": False, "error": str(result)})
            continue
        confusion = edge_confusion(result.A_hat, A_true, scenario.edge_threshold)
        scores.append({
            "ok": True,
            "rmse": rmse(result.A_hat, A_true),
            "accuracy": accuracy(confusion),
            "f1": f1(confusion),
            "time_s": elapsed,
            "A_hat": result.A_hat,
        })
    return scores


def _run_realization(scenario: Scenario, r: int) -> dict:
    """All configured methods on realization r; never raises on estimator failure."""
    data = _realization_data(scenario, r)
    A0 = default_init(scenario.n_x)
    fits = {method: _score(scenario, method, [scenario.potentials.get(method)], data, A0)[0] for method in scenario.methods}
    return {"A_true": data[0], "methods": fits}


# The scores that each row of the benchmark table averages over the fits that completed.
_AVERAGED = ("rmse", "accuracy", "f1", "time_s")


def _benchmark(scenario: Scenario, jobs: int = 1):
    """The rows of `run_benchmark` and the graphs of realization 0: the truth and each estimate."""
    check_count(jobs, "jobs")
    n = scenario.n_realizations
    outcomes = _map(_run_realization, [(scenario, r) for r in range(n)], jobs)

    rows: list[BenchmarkRow] = []
    for method in scenario.methods:
        fits = [outcome["methods"][method] for outcome in outcomes]
        good = [fit for fit in fits if fit["ok"]]
        if len(good) < n:
            why = "; ".join(f"realization {r}: {fit['error']}" for r, fit in enumerate(fits) if not fit["ok"])
            warnings.warn(f"{n - len(good)} of {n} realizations failed for method {method} ({why})")
        pot = scenario.potentials.get(method)
        means = {key: float(np.mean([fit[key] for fit in good])) if good else math.nan for key in _AVERAGED}
        rows.append(
            BenchmarkRow(
                scenario=scenario.scenario_id,
                method=method,
                potential=pot.family if pot else "",
                hyperparams=_hyper_string(pot),
                realizations=len(good),
                **means,
            )
        )

    graphs = {"true": outcomes[0]["A_true"]}
    graphs.update((method, fit["A_hat"]) for method, fit in outcomes[0]["methods"].items() if fit["ok"])
    return rows, graphs


def run_benchmark(scenario: Scenario, jobs: int = 1) -> list[BenchmarkRow]:
    """Monte-Carlo benchmark of every configured method; deterministic given the seed."""
    rows, _ = _benchmark(scenario, jobs=jobs)
    return rows


# ---------------------------------------------------------------------------
# grid search

def grid_search(scenario: Scenario, method: str, grid: Sequence[Potential], jobs: int = 1):
    """Pick the potential minimizing the estimation error on realization 0.

    Returns (best potential, table) where table lists (potential, rmse) in
    grid order, with rmse inf where the fit failed. Ties go to the earliest
    point in the grid. Raises GraphitError when every fit failed.
    """
    check_count(jobs, "jobs")
    if not grid:
        raise ConfigError("grid must be nonempty")
    if method not in PENALIZED:
        raise ConfigError(f"grid search needs a penalized method, not {method!r}")
    check_potential("grid point", *grid)
    if method == "graphem":
        check_graphem(*grid)

    data = _realization_data(scenario, 0)
    A0 = default_init(scenario.n_x)
    # --jobs splits the grid into that many contiguous lockstep batches, as equal as they come.
    n = min(jobs, len(grid))
    batches = [grid[len(grid) * b // n:len(grid) * (b + 1) // n] for b in range(n)]
    scored = _map(_score, [(scenario, method, batch, data, A0) for batch in batches], jobs)
    scores = [fit["rmse"] if fit["ok"] else math.inf for batch in scored for fit in batch]
    if all(score == math.inf for score in scores):
        raise GraphitError(f"every fit of the {method} grid failed")
    return grid[scores.index(min(scores))], list(zip(grid, scores))


# ---------------------------------------------------------------------------
# command-line interface

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors to exit code 1
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="graphit", description="Sparse transition-matrix estimation benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run a Monte-Carlo benchmark from a config file")
    bench.add_argument("config")
    bench.add_argument("--out", default="bench-out", help="output directory")
    bench.add_argument("--jobs", type=int, default=1, help="parallel realizations")
    bench.add_argument("--seed", type=int, help="override master_seed")
    bench.add_argument("--realizations", type=int, help="override n_realizations")
    bench.add_argument("--k", type=int, help="override the horizon")
    bench.add_argument("--threshold", type=float, help="override edge_threshold")

    grid = sub.add_parser("grid", help="hyperparameter grid search on one realization")
    grid.add_argument("config")
    grid.add_argument("--method", help="method to tune (default: first with a grid)")
    grid.add_argument("--out", help="write the per-tuple table to this CSV file")
    grid.add_argument("--jobs", type=int, default=1)
    grid.add_argument("--seed", type=int, help="override master_seed")

    curve = sub.add_parser("curve", help="tabulate a penalty curve as CSV")
    curve.add_argument("family", choices=FAMILIES)
    curve.add_argument("gamma", type=float)
    curve.add_argument("shape", type=float, nargs="?", help="lambda (or a, for scad)")
    curve.add_argument("--u-min", type=float, default=0.0)
    curve.add_argument("--u-max", type=float, default=2.0)
    curve.add_argument("--points", type=int, default=201)
    curve.add_argument("--out", help="output file (default: stdout)")

    dot = sub.add_parser("export-dot", help="emit the DOT graph of a matrix CSV file")
    dot.add_argument("matrix_file")
    dot.add_argument("threshold", type=float)
    dot.add_argument("--out", help="output file (default: stdout)")
    return parser


def _open(path) -> TextIO:
    """The file `path` opened for writing; a ConfigError naming it when it cannot be."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror}") from None


def _output(path: str | None) -> contextlib.AbstractContextManager:
    """Where a command writes its table: the file `path`, or stdout when no file is given."""
    return _open(path) if path else contextlib.nullcontext(sys.stdout)


def _scenario(args) -> Scenario:
    """The scenario of `bench` or `grid`: the config file with the options' overrides, after checking --jobs."""
    check_count(args.jobs, "--jobs")
    options = {"seed": "master_seed", "realizations": "n_realizations", "k": "k", "threshold": "edge_threshold"}
    overrides = {name: getattr(args, opt) for opt, name in options.items() if getattr(args, opt, None) is not None}
    return load_scenario(args.config, overrides)


def _cmd_bench(args) -> int:
    scenario = _scenario(args)
    out = Path(args.out)
    created = [path for path in (out, *out.parents) if not path.exists()]  # deepest first
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create directory {out}: {err.strerror}") from None
    rows, graphs = _benchmark(scenario, jobs=args.jobs)
    if all(row.realizations == 0 for row in rows):
        for path in created:  # leave no empty directory behind
            path.rmdir()
        raise GraphitError("every realization failed for every method")
    table = export_csv(rows, include_times=False)
    files = {"results.csv": table, "results_with_times.csv": export_csv(rows)}
    for name, matrix in graphs.items():
        files[f"graph_{name}.dot"] = export_dot(matrix, scenario.edge_threshold)
    for name, text in files.items():
        with _open(out / name) as f:
            f.write(text)
    sys.stdout.write(table)
    return 0


def _cmd_grid(args) -> int:
    scenario = _scenario(args)
    # "<method>" has no grid either, so it stands for "no method has one".
    method = args.method or next((m for m in scenario.methods if m in scenario.grids), "<method>")
    if method not in scenario.grids:
        raise ConfigError(f"no [grid.{method}] section found in config")
    with _output(args.out) as f:
        try:
            best, table = grid_search(scenario, method, scenario.grids[method], jobs=args.jobs)
        except GraphitError:
            if args.out:  # every fit failed: leave no empty table behind
                f.close()
                Path(args.out).unlink()
            raise
        f.write(export_grid_csv(method, table))
    print(f"best {method}: {_point_string(best)}")
    return 0


def _cmd_curve(args) -> int:
    shape = SHAPE_FIELD[args.family]
    if shape is None and args.shape is not None:
        raise ConfigError(f"{args.family} takes gamma only, got a shape of {args.shape}")
    potential = Potential(args.family, gamma=args.gamma, **({shape: args.shape} if shape else {}))
    check_count(args.points, "--points")
    if not math.isfinite(args.u_max - args.u_min):  # also when the span overflows
        raise ConfigError(f"--u-min and --u-max must be finite, as must their span, got {args.u_min}, {args.u_max}")
    grid = np.linspace(args.u_min, args.u_max, args.points)
    text = export_curve_csv(emit_penalty_curve(potential, grid))
    with _output(args.out) as f:
        f.write(text)
    return 0


def _cmd_export_dot(args) -> int:
    try:
        with warnings.catch_warnings():  # an empty file is reported below, by name
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            matrix = np.loadtxt(args.matrix_file, delimiter=",", ndmin=2)
    except OSError as err:
        raise ConfigError(f"cannot read matrix file: {err}") from None
    except ValueError as err:
        raise ConfigError(f"cannot parse matrix file: {err}") from None
    if not matrix.size:
        raise ConfigError(f"matrix file {args.matrix_file} has no data")
    text = export_dot(matrix, args.threshold)
    with _output(args.out) as f:
        f.write(text)
    return 0


def main(argv=None) -> int:
    """Entry point returning a process exit code (0 ok, 1 config, 2 numerical)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        commands = {"bench": _cmd_bench, "grid": _cmd_grid, "curve": _cmd_curve, "export-dot": _cmd_export_dot}
        return commands[args.command](args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1
    except (GraphitError, np.linalg.LinAlgError, FloatingPointError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
