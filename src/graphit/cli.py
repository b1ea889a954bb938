"""Experiment harness: scenario configs, Monte-Carlo benchmarks, exports.

Scenario files use an INI-style ``key = value`` grammar (see README for the
full schema). Per-realization randomness is derived from the master seed by a
counter-based scheme, SeedSequence(master_seed, spawn_key=(r, j)), so results
do not depend on execution order or on the degree of parallelism.

Wall-clock timings are inherently non-reproducible, so ``bench`` writes two
tables: ``results.csv`` (metrics only; byte-deterministic) and
``results_with_times.csv`` (the full table including mean seconds).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import math
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .algorithms import EstimatorConfig, default_init, graphem, graphit, mlem
from .exceptions import ConfigError, GraphitError
from .metrics import accuracy, edge_confusion, f1, rmse
from .model import ModelParams, generate_sparse_A, simulate
from .penalties import FAMILIES, Potential, emit_penalty_curve
from .solver import DRConfig

METHODS = ("graphit", "graphem", "mlem")


@dataclass(frozen=True)
class Scenario:
    """One benchmark setup: model sizes, noise levels, methods, seeds."""

    scenario_id: str
    n_x: int
    n_y: int
    s: int
    k: int
    sigma_q: float
    sigma_r: float
    sigma_0: float
    n_realizations: int
    master_seed: int
    methods: tuple[str, ...]
    potentials: dict[str, Potential] = field(default_factory=dict)
    grids: dict[str, tuple[tuple[float, ...], ...]] = field(default_factory=dict)
    epsilon: float = 1e-3
    max_outer: int = 50
    dr: DRConfig = field(default_factory=DRConfig)
    edge_threshold: float = 1e-10
    target_norm: float = 0.9

    def __post_init__(self):
        if min(self.n_x, self.n_y, self.k, self.n_realizations) < 1:
            raise ConfigError("dimensions, horizon and realization count must be positive")
        if not 1 <= self.s <= self.n_x * self.n_x:
            raise ConfigError(f"support size s={self.s} outside [1, {self.n_x * self.n_x}]")
        if min(self.sigma_q, self.sigma_r, self.sigma_0) <= 0:
            raise ConfigError("sigma_q, sigma_r and sigma_0 must be > 0")
        if not self.edge_threshold >= 0:
            raise ConfigError(f"edge_threshold must be >= 0, got {self.edge_threshold}")
        if not self.target_norm > 0:
            raise ConfigError(f"target_norm must be > 0, got {self.target_norm}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if not self.methods:
            raise ConfigError("at least one method must be selected")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")
            if m in ("graphit", "graphem") and m not in self.potentials:
                raise ConfigError(f"method {m} requires a [potential.{m}] section")


@dataclass(frozen=True)
class BenchmarkRow:
    """Per-method averages over the realizations that completed."""

    scenario: str
    method: str
    potential: str
    hyperparams: str
    rmse: float
    accuracy: float
    f1: float
    time_s: float
    realizations: int


# ---------------------------------------------------------------------------
# number formatting (5 significant digits, fixed decimal notation)

def _fmt5(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    s = np.format_float_positional(x, precision=5, unique=False, fractional=False, trim="-")
    neg = s.startswith("-")
    digits = s.lstrip("-")
    sig = len(digits.replace(".", "").lstrip("0"))
    if sig == 0:
        return "0.0000"
    if sig < 5:
        if "." not in digits:
            digits += "."
        digits += "0" * (5 - sig)
    return ("-" if neg else "") + digits


def _hyper_string(p: Potential | None) -> str:
    if p is None:
        return ""
    parts = [f"gamma={_fmt5(p.gamma)}"]
    if p.lam is not None:
        parts.append(f"lam={_fmt5(p.lam)}")
    if p.a is not None:
        parts.append(f"a={_fmt5(p.a)}")
    return ";".join(parts)


# ---------------------------------------------------------------------------
# benchmark core

def _map(fn, arg_tuples: list[tuple], jobs: int) -> list:
    """[fn(*args) for args in arg_tuples], on a process pool when jobs > 1."""
    if jobs <= 1:
        return [fn(*args) for args in arg_tuples]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
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


def _estimator_config(scenario: Scenario, potential: Potential | None) -> EstimatorConfig:
    return EstimatorConfig(
        potential=potential,
        epsilon=scenario.epsilon,
        max_outer=scenario.max_outer,
        dr=scenario.dr,
    )


def _fit(method: str, scenario: Scenario, params: ModelParams, observations, A0, potential=None):
    if potential is None:
        potential = scenario.potentials.get(method)
    cfg = _estimator_config(scenario, potential)
    if method == "graphit":
        return graphit(observations, params, A0, cfg)
    if method == "graphem":
        return graphem(observations, params, A0, cfg)
    return mlem(observations, params, A0, cfg)


def _run_realization(scenario: Scenario, r: int, keep_estimates: bool = False) -> dict:
    """All configured methods on realization r; never raises on estimator failure."""
    A_true, params, trajectory = _realization_data(scenario, r)
    A0 = default_init(scenario.n_x)
    out: dict = {"A_true": A_true if keep_estimates else None, "methods": {}}
    for method in scenario.methods:
        start = time.perf_counter()
        try:
            result = _fit(method, scenario, params, trajectory.observations, A0)
        except (GraphitError, np.linalg.LinAlgError) as err:
            out["methods"][method] = {"ok": False, "error": str(err)}
            continue
        elapsed = time.perf_counter() - start
        confusion = edge_confusion(result.A_hat, A_true, scenario.edge_threshold)
        out["methods"][method] = {
            "ok": True,
            "rmse": rmse(result.A_hat, A_true),
            "accuracy": accuracy(confusion),
            "f1": f1(confusion),
            "time_s": elapsed,
            "A_hat": result.A_hat if keep_estimates else None,
        }
    return out


def _benchmark(scenario: Scenario, jobs: int = 1, keep_graphs: bool = False):
    n = scenario.n_realizations
    outcomes = _map(_run_realization, [(scenario, r, keep_graphs and r == 0) for r in range(n)], jobs)

    rows: list[BenchmarkRow] = []
    for method in scenario.methods:
        per = [outcomes[r]["methods"][method] for r in range(n)]
        good = [p for p in per if p["ok"]]
        failed = len(per) - len(good)
        if failed:
            warnings.warn(f"{failed} of {n} realizations failed for method {method}")
        pot = scenario.potentials.get(method)
        rows.append(
            BenchmarkRow(
                scenario=scenario.scenario_id,
                method=method,
                potential=pot.family if pot else "",
                hyperparams=_hyper_string(pot),
                rmse=float(np.mean([p["rmse"] for p in good])) if good else math.nan,
                accuracy=float(np.mean([p["accuracy"] for p in good])) if good else math.nan,
                f1=float(np.mean([p["f1"] for p in good])) if good else math.nan,
                time_s=float(np.mean([p["time_s"] for p in good])) if good else math.nan,
                realizations=len(good),
            )
        )

    graphs = None
    if keep_graphs:
        graphs = {"true": outcomes[0]["A_true"]}
        for method in scenario.methods:
            entry = outcomes[0]["methods"][method]
            if entry["ok"]:
                graphs[method] = entry["A_hat"]
    return rows, graphs


def run_benchmark(scenario: Scenario, jobs: int = 1) -> list[BenchmarkRow]:
    """Monte-Carlo benchmark of every configured method; deterministic given the seed."""
    rows, _ = _benchmark(scenario, jobs=jobs, keep_graphs=False)
    return rows


# ---------------------------------------------------------------------------
# grid search

def potential_from_tuple(template: Potential, values: tuple[float, ...]) -> Potential:
    """Fill a potential's free hyperparameters from a grid tuple.

    Tuple layout: (gamma,) for l1, (gamma, a) for scad, (gamma, lam) otherwise.
    """
    if template.family == "l1":
        (gamma,) = values
        return Potential("l1", gamma=gamma)
    if template.family == "scad":
        gamma, a = values
        return Potential("scad", gamma=gamma, a=a)
    gamma, lam = values
    return Potential(template.family, gamma=gamma, lam=lam)


def _eval_grid_point(
    scenario: Scenario, method: str, data: tuple, A0: np.ndarray, values: tuple[float, ...]
) -> float:
    A_true, params, trajectory = data
    potential = potential_from_tuple(scenario.potentials[method], values)
    try:
        result = _fit(method, scenario, params, trajectory.observations, A0, potential=potential)
    except (GraphitError, np.linalg.LinAlgError):
        return math.inf
    return rmse(result.A_hat, A_true)


def grid_search(
    scenario: Scenario,
    method: str,
    grid: list[tuple[float, ...]],
    jobs: int = 1,
):
    """Pick the tuple minimizing the estimation error on realization 0.

    Returns (best_tuple, table) where table lists (tuple, rmse) in grid
    order. Ties go to the earliest tuple in the grid.
    """
    if not grid:
        raise ConfigError("grid must be nonempty")
    if method not in ("graphit", "graphem"):
        raise ConfigError(f"grid search applies to penalized methods, not {method!r}")
    if method not in scenario.potentials:
        raise ConfigError(f"scenario has no potential for method {method}")

    data = _realization_data(scenario, 0)
    A0 = default_init(scenario.n_x)
    scores = _map(_eval_grid_point, [(scenario, method, data, A0, tup) for tup in grid], jobs)

    best_idx = min(range(len(grid)), key=lambda i: (scores[i], i))
    table = list(zip([tuple(t) for t in grid], scores))
    return tuple(grid[best_idx]), table


# ---------------------------------------------------------------------------
# serialization

CSV_HEADER = ["scenario", "method", "potential", "hyperparams", "rmse", "accuracy", "f1", "time_s", "realizations"]


def _render_csv(header: list[str], records) -> str:
    """CSV text of a header row and then each record, one line per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(records)
    return buf.getvalue()


def export_csv(rows: list[BenchmarkRow], include_times: bool = True) -> str:
    """Render benchmark rows as CSV, sorted by (scenario, method)."""
    header = list(CSV_HEADER)
    if not include_times:
        header.remove("time_s")
    records = []
    for row in sorted(rows, key=lambda r: (r.scenario, r.method)):
        record = [
            row.scenario,
            row.method,
            row.potential,
            row.hyperparams,
            _fmt5(row.rmse),
            _fmt5(row.accuracy),
            _fmt5(row.f1),
        ]
        if include_times:
            record.append(_fmt5(row.time_s))
        record.append(str(row.realizations))
        records.append(record)
    return _render_csv(header, records)


def export_dot(A: np.ndarray, threshold: float = 1e-10) -> str:
    """DOT digraph of the supra-threshold support of a square matrix.

    Entry (i, j) above threshold in magnitude becomes the edge j -> i
    (column index drives row index), labeled with the entry value. Nodes
    are 1-based and always all present. A negative threshold is rejected.
    """
    if not threshold >= 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    lines = ["digraph transition {"]
    for node in range(1, n + 1):
        lines.append(f"  {node};")
    for j in range(n):
        for i in range(n):
            if abs(A[i, j]) > threshold:
                lines.append(f'  {j + 1} -> {i + 1} [label="{_fmt5(A[i, j])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_curve_csv(table: np.ndarray) -> str:
    return _render_csv(["u", "rho"], ([_fmt5(u), _fmt5(value)] for u, value in table))


def export_grid_csv(method: str, table) -> str:
    records = ([method, ";".join(_fmt5(v) for v in values), _fmt5(score)] for values, score in table)
    return _render_csv(["method", "hyperparams", "rmse"], records)


# ---------------------------------------------------------------------------
# config files

def _get_typed(section, key, cast, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing key {key!r} in section [{section.name}]")
        return default
    raw = section[key]
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"cannot parse {key} = {raw!r} in section [{section.name}]") from None


def _parse_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split())


def _load_potential(cp: configparser.ConfigParser, method: str) -> Potential | None:
    name = f"potential.{method}"
    if name not in cp:
        return None
    sec = cp[name]
    default_family = "l1" if method == "graphem" else None
    family = sec.get("family", default_family)
    if family is None:
        raise ConfigError(f"missing key 'family' in section [{name}]")
    if method == "graphem" and family != "l1":
        raise ConfigError("graphem uses the l1 potential only")
    gamma = _get_typed(sec, "gamma", float, required=True)
    lam = _get_typed(sec, "lambda", float)
    a = _get_typed(sec, "a", float)
    try:
        return Potential(family, gamma=gamma, lam=lam, a=a)
    except ValueError as err:
        raise ConfigError(f"invalid [{name}]: {err}") from None


def _load_grid(cp: configparser.ConfigParser, method: str, family: str):
    name = f"grid.{method}"
    if name not in cp:
        return None
    sec = cp[name]
    gammas = _parse_floats(sec.get("gamma", ""))
    if not gammas:
        raise ConfigError(f"missing key 'gamma' in section [{name}]")
    if family == "l1":
        return tuple((g,) for g in gammas)
    shape_key = "a" if family == "scad" else "lambda"
    shapes = _parse_floats(sec.get(shape_key, ""))
    if not shapes:
        raise ConfigError(f"missing key {shape_key!r} in section [{name}]")
    return tuple((g, s) for g in gammas for s in shapes)


def load_scenario(path: str | Path, overrides: dict | None = None) -> Scenario:
    """Parse a scenario config file, then apply CLI overrides on top."""
    path = Path(path)
    cp = configparser.ConfigParser(interpolation=None)
    if not cp.read(path):
        raise ConfigError(f"cannot read config file {path}")
    if "scenario" not in cp:
        raise ConfigError(f"{path}: missing [scenario] section")
    sec = cp["scenario"]

    n_x = _get_typed(sec, "n_x", int, required=True)
    methods = tuple(sec.get("methods", "graphit graphem mlem").split())
    potentials = {}
    grids = {}
    for method in ("graphit", "graphem"):
        pot = _load_potential(cp, method)
        if pot is not None:
            potentials[method] = pot
            grid = _load_grid(cp, method, pot.family)
            if grid is not None:
                grids[method] = grid

    # A proxy of an absent section reads as empty.
    est = configparser.SectionProxy(cp, "estimator")
    try:
        dr = DRConfig(
            step=_get_typed(est, "dr_step", float, default=1.0),
            relaxation=_get_typed(est, "dr_relaxation", float, default=1.0),
            tol=_get_typed(est, "dr_tol", float, default=1e-6),
            max_iter=_get_typed(est, "dr_max_iter", int, default=1000),
        )
        scenario = Scenario(
            scenario_id=sec.get("id", path.stem),
            n_x=n_x,
            n_y=_get_typed(sec, "n_y", int, default=n_x),
            s=_get_typed(sec, "s", int, required=True),
            k=_get_typed(sec, "k", int, required=True),
            sigma_q=_get_typed(sec, "sigma_q", float, default=0.1),
            sigma_r=_get_typed(sec, "sigma_r", float, default=0.1),
            sigma_0=_get_typed(sec, "sigma_0", float, default=1e-4),
            n_realizations=_get_typed(sec, "n_realizations", int, default=1),
            master_seed=_get_typed(sec, "master_seed", int, default=0),
            methods=methods,
            potentials=potentials,
            grids=grids,
            epsilon=_get_typed(est, "epsilon", float, default=1e-3),
            max_outer=_get_typed(est, "max_outer", int, default=50),
            dr=dr,
            edge_threshold=_get_typed(sec, "edge_threshold", float, default=1e-10),
            target_norm=_get_typed(sec, "target_norm", float, default=0.9),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from None

    if overrides:
        scenario = replace(scenario, **overrides)
    return scenario


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


def _emit(text: str, out: str | None) -> None:
    """Write text to the file `out`, or to stdout when no file is given."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _bench_overrides(args) -> dict:
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.realizations is not None:
        overrides["n_realizations"] = args.realizations
    if args.k is not None:
        overrides["k"] = args.k
    if getattr(args, "threshold", None) is not None:
        overrides["edge_threshold"] = args.threshold
    return overrides


def _cmd_bench(args) -> int:
    scenario = load_scenario(args.config, _bench_overrides(args))
    rows, graphs = _benchmark(scenario, jobs=args.jobs, keep_graphs=True)
    if all(row.realizations == 0 for row in rows):
        raise GraphitError("every realization failed for every method")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.csv").write_text(export_csv(rows, include_times=False), encoding="utf-8")
    (out / "results_with_times.csv").write_text(export_csv(rows), encoding="utf-8")
    for name, matrix in (graphs or {}).items():
        text = export_dot(matrix, scenario.edge_threshold)
        (out / f"graph_{name}.dot").write_text(text, encoding="utf-8")
    sys.stdout.write(export_csv(rows, include_times=False))
    return 0


def _cmd_grid(args) -> int:
    overrides = {"master_seed": args.seed} if args.seed is not None else None
    scenario = load_scenario(args.config, overrides)
    method = args.method
    if method is None:
        candidates = [m for m in scenario.methods if m in scenario.grids]
        if not candidates:
            raise ConfigError("no [grid.<method>] section found in config")
        method = candidates[0]
    if method not in scenario.grids:
        raise ConfigError(f"no [grid.{method}] section found in config")
    best, table = grid_search(scenario, method, list(scenario.grids[method]), jobs=args.jobs)
    _emit(export_grid_csv(method, table), args.out)
    best_str = ";".join(_fmt5(v) for v in best)
    print(f"best {method}: {best_str}")
    return 0


def _cmd_curve(args) -> int:
    kwargs = {"gamma": args.gamma}
    if args.family == "scad":
        kwargs["a"] = args.shape
    elif args.family != "l1":
        kwargs["lam"] = args.shape
    try:
        potential = Potential(args.family, **kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if args.points < 1:
        raise ConfigError(f"--points must be >= 1, got {args.points}")
    grid = np.linspace(args.u_min, args.u_max, args.points)
    _emit(export_curve_csv(emit_penalty_curve(potential, grid)), args.out)
    return 0


def _cmd_export_dot(args) -> int:
    try:
        matrix = np.loadtxt(args.matrix_file, delimiter=",", ndmin=2)
    except OSError as err:
        raise ConfigError(f"cannot read matrix file: {err}") from None
    except ValueError as err:
        raise ConfigError(f"cannot parse matrix file: {err}") from None
    try:
        text = export_dot(matrix, args.threshold)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    _emit(text, args.out)
    return 0


def main(argv=None) -> int:
    """Entry point returning a process exit code (0 ok, 1 config, 2 numerical)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "grid":
            return _cmd_grid(args)
        if args.command == "curve":
            return _cmd_curve(args)
        return _cmd_export_dot(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1
    except (GraphitError, np.linalg.LinAlgError, FloatingPointError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())
