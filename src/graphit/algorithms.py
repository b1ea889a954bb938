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
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Literal

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .em_stats import EMStats, compute_stats
from .exceptions import SingularPredictiveCovarianceError, SingularStatisticsError
from .kalman import kalman_filter, rts_smoother
from .model import ModelParams, spectral_norm
from .penalties import Potential, penalty_value, weight_matrix
from .solver import DRConfig, QFactors, douglas_rachford


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


def _outer_loop(observations, params_rest, A0, cfg, minimize_step):
    """Shared majorization-minimization loop.

    `minimize_step(stats, A_prev, i)` produces the next iterate from the
    bound statistics; everything else (stopping, tracing) is common.
    """
    A_prev = np.array(A0, dtype=float)
    trace: list[float] = []
    iterates: list[np.ndarray] = []
    stopped_by: Literal["precision", "cap"] = "cap"

    outer = 0
    for i in range(1, cfg.max_outer + 1):
        params_i = dataclasses.replace(params_rest, A=A_prev)
        try:
            frun = kalman_filter(params_i, observations)
            srun = rts_smoother(params_i, frun)
        except SingularPredictiveCovarianceError as err:
            raise SingularPredictiveCovarianceError(
                err.step, f"{err} (outer iteration {i})"
            ) from err
        stats = compute_stats(srun)
        value = frun.neg_log_lik
        if cfg.potential is not None:
            value += penalty_value(cfg.potential, A_prev)
        trace.append(value)

        A_new = minimize_step(stats, A_prev, i)
        iterates.append(A_new)
        outer = i
        change = float(np.linalg.norm(A_new - A_prev))
        threshold = cfg.epsilon * float(np.linalg.norm(A_prev))
        A_prev = A_new
        if change <= threshold:
            stopped_by = "precision"
            break

    trace.append(objective(A_prev, params_rest, observations, cfg.potential))

    return EstimatorResult(
        A_hat=A_prev,
        objective_trace=tuple(trace),
        outer_iterations=outer,
        stopped_by=stopped_by,
        iterates=tuple(iterates),
    )


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
