"""The benchmark's three workloads and their correctness check.

Every workload draws its inputs from a fixed pool of POOL entries; the
benchmark seed chooses the order in which a run walks the pool, and the run
cycles through that order until its time is up. A fixed pool lets each fit be
checked against the seed-commit reference in ``reference.json`` whatever the
seed, while different seeds still see different inputs.

* ``table2-8-4``: the ``configs/table2_8_4.cfg`` scenario (n_x=8, K=1000,
  isotropic Q, graphit + graphem + mlem), one realization per pool entry,
  generated exactly as the Monte-Carlo harness does. The filter and smoother
  dominate: the E-step workload.
* ``wide-short``: n_x=32, K=120, anisotropic Q, built through the library API
  because a scenario config only expresses isotropic Q. DR runs on the general
  eigenbasis path of the quadratic prox with non-convex reweighting, so the
  M-step (solver, em_stats) carries a visible share.
* ``quick-cli``: ``graphit bench`` then ``graphit grid`` on
  ``configs/quick.cfg`` through ``graphit.cli.main``, one master seed per pool
  entry. Tiny fits, so per-call overhead, config parsing and exports show; its
  grid makes 9 fits on one dataset.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import graphit
from graphit import cli

POOL = 24

# Tolerances of the correctness check against reference.json, in the spirit
# of the acceptance suite: fits must reproduce the seed commit's estimate
# (rmse within the DR-minimizer tolerance 1e-6, the same edge set, the same
# number of outer iterations, the final objective within 1e-6 nats), and the
# CLI must reproduce results.csv byte for byte and the same best grid tuple.
RMSE_TOL = 1e-6
F1_TOL = 1e-9
OBJECTIVE_TOL = 1e-6

WIDE_MASTER_SEED = 3212


@dataclass
class Outcome:
    """One attempted fit. `reason` is None when it completed and passed the check."""

    key: str
    seconds: float
    error: str | None = None
    reason: str | None = None
    values: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)  # metric -> (value, reference value)


@dataclass
class Op:
    key: str
    run: Callable[[], list[Outcome]]


def public_api() -> SimpleNamespace:
    """The graphit functions the benchmark calls itself; tracing wraps these."""
    return SimpleNamespace(
        graphit=graphit.graphit,
        graphem=graphit.graphem,
        mlem=graphit.mlem,
        generate_sparse_A=graphit.generate_sparse_A,
        simulate=graphit.simulate,
        rmse=graphit.rmse,
        edge_confusion=graphit.edge_confusion,
        f1=graphit.f1,
        cli_main=cli.main,
    )


def _error_text(err: BaseException) -> str:
    return f"{type(err).__name__}: {err}"


def _check_fit(values: dict, ref: dict | None) -> str | None:
    if ref is None or "rmse" not in ref:
        return "no reference"
    if abs(values["rmse"] - ref["rmse"]) > RMSE_TOL:
        return f"rmse {values['rmse']!r} != reference {ref['rmse']!r}"
    if abs(values["f1"] - ref["f1"]) > F1_TOL:
        return f"f1 {values['f1']!r} != reference {ref['f1']!r}"
    if values["outer_iterations"] != ref["outer_iterations"]:
        return f"outer_iterations {values['outer_iterations']} != reference {ref['outer_iterations']}"
    if abs(values["objective_final"] - ref["objective_final"]) > OBJECTIVE_TOL:
        return f"objective {values['objective_final']!r} != reference {ref['objective_final']!r}"
    return None


class _Workload:
    """A pool walked in the seed's order; `reference` maps op keys to seed-commit results."""

    name = ""

    def __init__(self, root: Path, seed: int, api: SimpleNamespace, reference: dict,
                 scratch: Path):
        self.root = root
        self.api = api
        self.reference = reference
        self.scratch = scratch
        self.order = random.Random(seed).sample(range(POOL), POOL)

    def reset(self) -> None:
        """Forget state kept between ops, so that a replay repeats the same work."""


class _LibraryWorkload(_Workload):
    """Fits made by calling the estimators directly, one dataset per pool entry."""

    _cached: tuple[int, tuple] | None = None

    # subclasses define: fits (label -> (estimator name, EstimatorConfig)),
    # edge_threshold, n_x and _generate(i) -> (A_true, params, observations)

    def setup(self) -> None:
        """Everything before the first fit: the first dataset and the initial iterate."""
        self.A0 = graphit.default_init(self.n_x)
        self._dataset(self.order[0])

    def reset(self) -> None:
        self._cached = None

    def _dataset(self, i: int):
        if self._cached is None or self._cached[0] != i:
            self._cached = (i, self._generate(i))
        return self._cached[1]

    def _fit(self, i: int, label: str) -> list[Outcome]:
        key = f"{i}/{label}"
        A_true, params, observations = self._dataset(i)
        method, cfg = self.fits[label]
        start = time.perf_counter()
        try:
            result = getattr(self.api, method)(observations, params, self.A0, cfg)
        except Exception as err:  # every failure is counted, none aborts the run
            return [Outcome(key, time.perf_counter() - start, error=_error_text(err),
                            reason=_error_text(err))]
        seconds = time.perf_counter() - start
        confusion = self.api.edge_confusion(result.A_hat, A_true, self.edge_threshold)
        values = {
            "rmse": self.api.rmse(result.A_hat, A_true),
            "f1": self.api.f1(confusion),
            "outer_iterations": result.outer_iterations,
            "objective_final": result.objective_trace[-1],
        }
        ref = self.reference.get(key)
        quality = {}
        if ref is not None and "rmse" in ref:
            quality = {"rmse": (values["rmse"], ref["rmse"]), "f1": (values["f1"], ref["f1"])}
        return [Outcome(key, seconds, reason=_check_fit(values, ref), values=values, quality=quality)]

    def ops(self):
        for i in itertools.cycle(self.order):
            for label in self.fits:
                yield Op(f"{i}/{label}", lambda i=i, label=label: self._fit(i, label))


class Table284(_LibraryWorkload):
    name = "table2-8-4"

    def setup(self) -> None:
        self.scenario = graphit.load_scenario(self.root / "configs" / "table2_8_4.cfg")
        sc = self.scenario
        self.n_x = sc.n_x
        self.edge_threshold = sc.edge_threshold
        self.fits = {
            m: (m, graphit.EstimatorConfig(potential=sc.potentials.get(m), epsilon=sc.epsilon,
                                           max_outer=sc.max_outer, dr=sc.dr))
            for m in sc.methods
        }
        super().setup()

    def _generate(self, i: int):
        # The harness's per-realization seeding: SeedSequence(master_seed, spawn_key=(r, j)).
        sc = self.scenario
        seed_a = np.random.SeedSequence(sc.master_seed, spawn_key=(i, 0))
        seed_sim = np.random.SeedSequence(sc.master_seed, spawn_key=(i, 1))
        A_true = self.api.generate_sparse_A(sc.n_x, sc.s, sc.target_norm, seed_a)
        params = graphit.ModelParams(
            A=A_true,
            H=np.eye(sc.n_y, sc.n_x),
            Q=sc.sigma_q**2 * np.eye(sc.n_x),
            R=sc.sigma_r**2 * np.eye(sc.n_y),
            mu0=np.zeros(sc.n_x),
            Sigma0=sc.sigma_0**2 * np.eye(sc.n_x),
        )
        return A_true, params, self.api.simulate(params, sc.k, seed_sim).observations


class WideShort(_LibraryWorkload):
    name = "wide-short"
    n_x, s, k = 32, 16, 120
    edge_threshold = 1e-10

    def setup(self) -> None:
        dr = graphit.DRConfig(tol=1e-8)
        P, C = graphit.Potential, graphit.EstimatorConfig
        self.fits = {
            "graphit-mcp": ("graphit", C(potential=P("mcp", gamma=30.0, lam=0.01), dr=dr)),
            "graphit-log-sum": ("graphit", C(potential=P("log-sum", gamma=30.0, lam=0.05), dr=dr)),
            "graphem-l1": ("graphem", C(potential=P("l1", gamma=10.0), dr=dr)),
        }
        super().setup()

    def _generate(self, i: int):
        n = self.n_x
        seed_a = np.random.SeedSequence(WIDE_MASTER_SEED, spawn_key=(i, 0))
        seed_sim = np.random.SeedSequence(WIDE_MASTER_SEED, spawn_key=(i, 1))
        A_true = self.api.generate_sparse_A(n, self.s, 0.9, seed_a)
        params = graphit.ModelParams(
            A=A_true,
            H=np.eye(n),
            Q=np.diag(0.01 * np.linspace(0.5, 2.0, n)),
            R=0.01 * np.eye(n),
            mu0=np.zeros(n),
            Sigma0=1e-8 * np.eye(n),
        )
        return A_true, params, self.api.simulate(params, self.k, seed_sim).observations


def _parse_results(text: str) -> dict[str, dict]:
    return {row["method"]: row for row in csv.DictReader(io.StringIO(text))}


def _op_outcomes(key: str, seconds: float, fits: int, reason: str | None, failed: int,
                 values: dict, quality: dict | None = None) -> list[Outcome]:
    """Outcomes of a CLI call making `fits` fits: all fail on `reason`, else `failed` of them."""
    reasons = [reason] * fits if reason else ["failed inside the CLI"] * failed + [None] * (fits - failed)
    outcomes = [Outcome(key, seconds, reason=r) for r in reasons]
    outcomes[0].values = values
    outcomes[0].quality = quality or {}
    return outcomes


class QuickCli(_Workload):
    """``graphit bench`` and ``graphit grid`` on configs/quick.cfg, in process."""

    name = "quick-cli"

    def setup(self) -> None:
        self.config = str(self.root / "configs" / "quick.cfg")
        sc = graphit.load_scenario(self.config)
        self.realizations = sc.n_realizations
        self.bench_fits = sc.n_realizations * len(sc.methods)
        self.grid_fits = len(sc.grids[next(m for m in sc.methods if m in sc.grids)])

    def _main(self, argv) -> tuple[str, str | None]:
        """Standard output of ``graphit <argv>`` and the error, if it did not exit with 0."""
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = self.api.cli_main(argv)
        except Exception as err:  # e.g. a raw ValueError escaping main
            return out.getvalue(), _error_text(err)
        return out.getvalue(), None if code == 0 else f"exit code {code}"

    def _bench(self, m: int) -> list[Outcome]:
        key = f"bench/{m}"
        out_dir = self.scratch / "bench"
        shutil.rmtree(out_dir, ignore_errors=True)
        start = time.perf_counter()
        _, error = self._main(["bench", self.config, "--out", str(out_dir), "--seed", str(m)])
        seconds = (time.perf_counter() - start) / self.bench_fits
        if error is not None:
            return [Outcome(key, seconds, error=error, reason=error) for _ in range(self.bench_fits)]
        text = (out_dir / "results.csv").read_text(encoding="utf-8")
        rows = _parse_results(text)
        ref = self.reference.get(key, {}).get("results_csv")
        ref_rows = _parse_results(ref) if ref else {}
        quality = {}
        if ref_rows.keys() == rows.keys():
            quality = {metric: (sum(float(r[metric]) for r in rows.values()),
                                sum(float(r[metric]) for r in ref_rows.values()))
                       for metric in ("rmse", "f1")}
        reason = ("no reference" if ref is None
                  else "results.csv differs from reference" if text != ref else None)
        failed = sum(self.realizations - int(r["realizations"]) for r in rows.values())
        return _op_outcomes(key, seconds, self.bench_fits, reason, failed,
                            {"results_csv": text}, quality)

    def _grid(self, m: int) -> list[Outcome]:
        key = f"grid/{m}"
        start = time.perf_counter()
        stdout, error = self._main(["grid", self.config, "--seed", str(m)])
        seconds = (time.perf_counter() - start) / self.grid_fits
        if error is not None:
            return [Outcome(key, seconds, error=error, reason=error) for _ in range(self.grid_fits)]
        *table, best = stdout.splitlines()
        ref = self.reference.get(key, {}).get("best")
        reason = ("no reference" if ref is None
                  else f"{best!r} != reference {ref!r}" if best != ref else None)
        failed = sum(row["rmse"] == "inf" for row in csv.DictReader(table))
        return _op_outcomes(key, seconds, self.grid_fits, reason, failed, {"best": best})

    def ops(self):
        for m in itertools.cycle(self.order):
            yield Op(f"bench/{m}", lambda m=m: self._bench(m))
            yield Op(f"grid/{m}", lambda m=m: self._grid(m))


WORKLOADS = {"table2-8-4": Table284, "wide-short": WideShort, "quick-cli": QuickCli}


def make(name: str, root: Path, seed: int, api: SimpleNamespace, reference: dict, scratch: Path):
    return WORKLOADS[name](root, seed, api, reference.get(name, {}), scratch)
