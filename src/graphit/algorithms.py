"""The three transition-matrix estimators and their shared outer loop.

All three alternate a majorization step (filter + smoother at the current
iterate, yielding the quadratic bound statistics) with a minimization step:

* ``graphit``  solves the reweighted-l1 surrogate by Douglas-Rachford, with
  weights refreshed from the potential's derivative at each outer iterate;
* ``graphem``  is the same loop restricted to the l1 potential, whose weights
  are constant;
* ``mlem``     performs the unpenalized closed-form update Delta Phi^{-1}.

The tracked objective is penalty(A) plus the filtering negative
log-likelihood; by construction of the bounds it never increases along the
iterates.

``graphit_lockstep`` runs several graphit fits that share their data and
start, one per potential, with each outer iteration's covariance passes and
Douglas-Rachford sweeps stacked over the fits still running. Each fit's
result is bit for bit the one ``graphit`` returns; a grid search is its use.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Literal

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .em_stats import EMStats, compute_stats
from .exceptions import SingularPredictiveCovarianceError, SingularStatisticsError, attempt
from .kalman import kalman_filter, kalman_filter_lockstep, rts_smoother, rts_smoother_lockstep
from .model import ModelParams, spectral_norm
from .penalties import Potential, penalty_value, weight_matrix
from .solver import DRConfig, QFactors, douglas_rachford, douglas_rachford_lockstep


@dataclass(frozen=True)
class EstimatorConfig:
    """Outer-loop settings; `potential` is None for the unpenalized estimator."""

    potential: Potential | None = None
    epsilon: float = 1e-3
    max_outer: int = 50
    dr: DRConfig = field(default_factory=DRConfig)

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be >= 1, got {self.max_outer}")


@dataclass(frozen=True)
class EstimatorResult:
    A_hat: np.ndarray
    objective_trace: tuple[float, ...]
    outer_iterations: int
    stopped_by: Literal["precision", "cap"]
    iterates: tuple[np.ndarray, ...]


def objective(
    A: np.ndarray,
    params_rest: ModelParams,
    observations: np.ndarray,
    potential: Potential | None = None,
) -> float:
    """Penalized negative log-likelihood at A (penalty omitted when absent).

    The transition matrix stored in `params_rest` is ignored and replaced
    by A.
    """
    run = kalman_filter(dataclasses.replace(params_rest, A=np.asarray(A, dtype=float)), observations)
    value = run.neg_log_lik
    if potential is not None:
        value += penalty_value(potential, A)
    return value


def _tagged(err: Exception, i: int) -> Exception:
    """The error of an E-step at outer iteration i; a singular covariance names the iteration."""
    if not isinstance(err, SingularPredictiveCovarianceError):
        return err
    tagged = SingularPredictiveCovarianceError(err.step, f"{err} (outer iteration {i})")
    tagged.__cause__ = err
    return tagged


class _Fit:
    """One fit along the outer loop: its iterate, its objective trace and how it stopped."""

    def __init__(self, A0: np.ndarray, cfg: EstimatorConfig):
        self.cfg = cfg
        self.A = np.array(A0, dtype=float)
        self.trace: list[float] = []
        self.iterates: list[np.ndarray] = []
        self.stopped_by: Literal["precision", "cap"] = "cap"
        self.outer = 0

    def record(self, neg_log_lik: float) -> None:
        """Trace the objective at the current iterate, whose filter gave `neg_log_lik`."""
        if self.cfg.potential is not None:
            neg_log_lik += penalty_value(self.cfg.potential, self.A)
        self.trace.append(neg_log_lik)

    def advance(self, A_new: np.ndarray, i: int) -> bool:
        """Move to the iterate of outer iteration i; True when the fit stops there."""
        self.iterates.append(A_new)
        self.outer = i
        change = float(np.linalg.norm(A_new - self.A))
        threshold = self.cfg.epsilon * float(np.linalg.norm(self.A))
        self.A = A_new
        if change <= threshold:
            self.stopped_by = "precision"
        return change <= threshold or i == self.cfg.max_outer

    def result(self, params_rest: ModelParams, observations: np.ndarray) -> EstimatorResult:
        self.trace.append(objective(self.A, params_rest, observations, self.cfg.potential))
        return EstimatorResult(
            A_hat=self.A,
            objective_trace=tuple(self.trace),
            outer_iterations=self.outer,
            stopped_by=self.stopped_by,
            iterates=tuple(self.iterates),
        )


def _outer_loop(observations, params_rest, A0, cfg, minimize_step):
    """Shared majorization-minimization loop.

    `minimize_step(stats, A_prev, i)` produces the next iterate from the
    bound statistics; everything else (stopping, tracing) is common.
    """
    fit = _Fit(A0, cfg)
    for i in range(1, cfg.max_outer + 1):
        params_i = dataclasses.replace(params_rest, A=fit.A)
        try:
            frun = kalman_filter(params_i, observations)
            srun = rts_smoother(params_i, frun)
        except SingularPredictiveCovarianceError as err:
            raise _tagged(err, i) from err
        stats = compute_stats(srun)
        fit.record(frun.neg_log_lik)
        if fit.advance(minimize_step(stats, fit.A, i), i):
            break
    return fit.result(params_rest, observations)


def graphit(
    observations: np.ndarray,
    params_rest: ModelParams,
    A0: np.ndarray,
    cfg: EstimatorConfig,
) -> EstimatorResult:
    """Reweighted-l1 MM estimator for any potential in the family."""
    if cfg.potential is None:
        raise ValueError("graphit requires a potential; use mlem for the unpenalized estimator")
    Q = params_rest.Q
    q_factors = None

    def step(stats: EMStats, A_prev: np.ndarray, _i: int) -> np.ndarray:
        nonlocal q_factors
        if q_factors is None:  # once per fit, after the first filter pass has checked Q
            q_factors = QFactors.of(Q)
        Omega = weight_matrix(cfg.potential, A_prev)
        return douglas_rachford(stats, Q, Omega, A_prev, cfg.dr, q_factors).minimizer

    return _outer_loop(observations, params_rest, A0, cfg, step)


def graphem(
    observations: np.ndarray,
    params_rest: ModelParams,
    A0: np.ndarray,
    cfg: EstimatorConfig,
) -> EstimatorResult:
    """l1-penalized estimator: the constant-weight special case of graphit."""
    if cfg.potential is None or cfg.potential.family != "l1":
        raise ValueError("graphem requires an l1 potential")
    return graphit(observations, params_rest, A0, cfg)


def graphit_lockstep(
    observations: np.ndarray,
    params_rest: ModelParams,
    A0: np.ndarray,
    cfg: EstimatorConfig,
    potentials: Sequence[Potential],
) -> list:
    """`graphit` from A0 at each potential (cfg's own is ignored), with the fits in lockstep.

    Each outer iteration makes one covariance pass of the filter, one of the
    smoother and one Douglas-Rachford loop over the fits still running
    (`kalman_filter_lockstep`, `rts_smoother_lockstep`,
    `douglas_rachford_lockstep`); the rest runs per fit as in `graphit`, so
    each fit's result is bit for bit the one `graphit` returns. A fit leaves
    when it stops or fails. Each entry is the EstimatorResult of its fit, or
    the error in `FIT_ERRORS` that `graphit` raises there.
    """
    fits = [_Fit(A0, dataclasses.replace(cfg, potential=potential)) for potential in potentials]
    outcomes: list = [None] * len(fits)
    Q = params_rest.Q
    q_factors = None

    def going(batch: Sequence[int], results: list) -> dict:
        """{fit: result} of the fits in `batch` whose step succeeded; each error ends its fit."""
        kept = {}
        for j, result in zip(batch, results):
            if isinstance(result, Exception):
                outcomes[j] = _tagged(result, i)
            else:
                kept[j] = result
        return kept

    live = range(len(fits))
    i = 0
    while live:
        i += 1
        params = {j: dataclasses.replace(params_rest, A=fits[j].A) for j in live}
        fruns = going(params, kalman_filter_lockstep(list(params.values()), observations))
        sruns = going(fruns, rts_smoother_lockstep([params[j] for j in fruns], list(fruns.values())))
        problems = {}
        for j, srun in sruns.items():
            fit = fits[j]
            stats = compute_stats(srun)
            fit.record(fruns[j].neg_log_lik)
            problems[j] = (stats, weight_matrix(fit.cfg.potential, fit.A), fit.A)
        if problems and q_factors is None:  # once, after the first filter pass has checked Q
            q_factors = attempt(QFactors.of, Q)
        if isinstance(q_factors, Exception):
            reports = going(problems, [q_factors] * len(problems))
        else:
            reports = going(problems, douglas_rachford_lockstep(list(problems.values()), Q, cfg.dr, q_factors))
        live = [j for j, report in reports.items() if not fits[j].advance(report.minimizer, i)]
    return [
        outcome if outcome is not None else attempt(fit.result, params_rest, observations)
        for fit, outcome in zip(fits, outcomes)
    ]


def mlem_update(stats: EMStats, iteration: int = 1) -> np.ndarray:
    """Closed-form unpenalized update Delta Phi^{-1} via a Cholesky solve."""
    try:
        factor = cho_factor(stats.Phi, lower=True)
    except np.linalg.LinAlgError:
        raise SingularStatisticsError(iteration) from None
    return cho_solve(factor, stats.Delta.T).T


def mlem(
    observations: np.ndarray,
    params_rest: ModelParams,
    A0: np.ndarray,
    cfg: EstimatorConfig,
) -> EstimatorResult:
    """Unpenalized maximum-likelihood estimator with closed-form updates."""

    def step(stats: EMStats, _A_prev: np.ndarray, i: int) -> np.ndarray:
        return mlem_update(stats, i)

    cfg = dataclasses.replace(cfg, potential=None)
    return _outer_loop(observations, params_rest, A0, cfg, step)


def default_init(N_x: int) -> np.ndarray:
    """Benchmark initialization: entries 0.1^|i-j|, rescaled to spectral norm 0.99."""
    if N_x < 1:
        raise ValueError(f"N_x must be >= 1, got {N_x}")
    idx = np.arange(N_x)
    A = 0.1 ** np.abs(idx[:, None] - idx[None, :]).astype(float)
    return A * (0.99 / spectral_norm(A))
