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

One loop, `_mm_loop`, runs every fit, with the M-step as a callable; a lone
fit is a batch of one. ``graphit_lockstep`` runs several graphit fits that
share their data and start, one per potential, with each outer iteration's
filter covariances and Douglas-Rachford sweeps stacked over the fits still
running; a grid search is its use. This module alone picks the 2-D kernels,
for a batch down to one fit; each fit's result has the same bits either way.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Literal

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .em_stats import EMStats, QFactors, compute_stats
from .exceptions import ConfigError, NonFiniteError, SingularPredictiveCovarianceError, SingularStatisticsError, attempt
from .kalman import kalman_filter, kalman_filter_lockstep, rts_smoother
from .model import ModelParams, check_count, check_positive, real_array, spectral_norm
from .penalties import Potential, penalty_value, weight_matrix
from .solver import DRConfig, douglas_rachford, douglas_rachford_lockstep


@dataclass(frozen=True)
class EstimatorConfig:
    """Outer-loop settings; `potential` is None for the unpenalized estimator."""

    potential: Potential | None = None
    epsilon: float = 1e-3
    max_outer: int = 50
    dr: DRConfig = field(default_factory=DRConfig)

    def __post_init__(self):
        check_positive(self.epsilon, "epsilon")
        check_count(self.max_outer, "max_outer")


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
    run = kalman_filter(dataclasses.replace(params_rest, A=A), observations)
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
        self.A = real_array(A0, "A0").copy()
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


def _mm_loop(observations, params_rest, fits: Sequence[_Fit], minimize) -> list:
    """The majorization-minimization loop of fits that share their data, in lockstep.

    Outer iteration i runs the E-step of each fit still running, then the
    M-step `minimize(batch, i)`: for the (stats, fit) of each fit whose E-step
    succeeded, the next iterate or the error in `FIT_ERRORS` that ends the fit.
    The filter covariance passes of several fits run stacked
    (`kalman_filter_lockstep`), and that of one fit by the 2-D `kalman_filter`,
    which dispatches faster; the smoother runs per fit. Each fit gets its lone
    bits either way. Each entry is the EstimatorResult of its fit, or its error.
    """
    outcomes: list = [None] * len(fits)

    def going(batch, results: list) -> dict:
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
        if len(params) == 1:
            [p] = params.values()
            fruns = going(params, [attempt(kalman_filter, p, observations)])
        else:
            fruns = going(params, kalman_filter_lockstep(list(params.values()), observations))
        sruns = going(fruns, [attempt(rts_smoother, params[j], frun) for j, frun in fruns.items()])
        batch = {}
        for j, srun in sruns.items():
            batch[j] = (compute_stats(srun), fits[j])
            fits[j].record(fruns[j].neg_log_lik)
        steps = going(batch, minimize(list(batch.values()), i)) if batch else {}
        live = [j for j, A_new in steps.items() if not fits[j].advance(A_new, i)]
    return [
        outcome if outcome is not None else attempt(fit.result, params_rest, observations)
        for fit, outcome in zip(fits, outcomes)
    ]


def _alone(outcomes: list) -> EstimatorResult:
    """The result of a batch of one fit; its error is raised."""
    [outcome] = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def graphit(
    observations: np.ndarray,
    params_rest: ModelParams,
    A0: np.ndarray,
    cfg: EstimatorConfig,
) -> EstimatorResult:
    """Reweighted-l1 MM estimator for any potential in the family."""
    if cfg.potential is None:
        raise ConfigError("graphit requires a potential; use mlem for the unpenalized estimator")
    return _alone(graphit_lockstep(observations, params_rest, A0, cfg, [cfg.potential]))


def check_graphem(*potentials: Potential | None) -> None:
    """Require each potential of a graphem fit to be l1, the family whose weights are constant."""
    if any(potential is None or potential.family != "l1" for potential in potentials):
        raise ConfigError("graphem uses the l1 potential only")


def graphem(
    observations: np.ndarray,
    params_rest: ModelParams,
    A0: np.ndarray,
    cfg: EstimatorConfig,
) -> EstimatorResult:
    """l1-penalized estimator: the constant-weight special case of graphit."""
    check_graphem(cfg.potential)
    return graphit(observations, params_rest, A0, cfg)


def graphit_lockstep(
    observations: np.ndarray,
    params_rest: ModelParams,
    A0: np.ndarray,
    cfg: EstimatorConfig,
    potentials: Sequence[Potential],
) -> list:
    """`graphit` from A0 at each potential (cfg's own is ignored), with the fits in lockstep.

    Each M-step runs one Douglas-Rachford loop over the fits still running
    (`douglas_rachford` for one), with Q factored once; a bad Q fails each fit's
    first filter pass, by name, before any M-step. Each entry is the EstimatorResult
    of its fit, bit for bit the one `graphit` returns, or the error `graphit` raises.
    """
    Q = params_rest.Q
    q_factors = attempt(QFactors.of, Q)

    def minimize(batch: list, _i: int) -> list:
        if isinstance(q_factors, Exception):
            return [q_factors] * len(batch)
        problems = [(stats, weight_matrix(fit.cfg.potential, fit.A), fit.A) for stats, fit in batch]
        if len(problems) == 1:
            [(stats, Omega, A_prev)] = problems
            reports = [attempt(douglas_rachford, stats, Q, Omega, A_prev, cfg.dr, q_factors)]
        else:
            reports = douglas_rachford_lockstep(problems, Q, cfg.dr, q_factors)
        return [report if isinstance(report, Exception) else report.minimizer for report in reports]

    fits = [_Fit(A0, dataclasses.replace(cfg, potential=potential)) for potential in potentials]
    return _mm_loop(observations, params_rest, fits, minimize)


def mlem_update(stats: EMStats, iteration: int = 1) -> np.ndarray:
    """Closed-form unpenalized update Delta Phi^{-1} via a Cholesky solve."""
    if not (np.isfinite(stats.Phi).all() and np.isfinite(stats.Delta).all()):
        raise NonFiniteError(f"second-moment statistics not finite at outer iteration {iteration}")
    factor, info = dpotrf(stats.Phi, lower=1)
    if info:
        raise SingularStatisticsError(iteration)
    return dpotrs(factor, stats.Delta.T, lower=1)[0].T


def mlem(
    observations: np.ndarray,
    params_rest: ModelParams,
    A0: np.ndarray,
    cfg: EstimatorConfig,
) -> EstimatorResult:
    """Unpenalized maximum-likelihood estimator with closed-form updates."""

    def minimize(batch: list, i: int) -> list:
        return [attempt(mlem_update, stats, i) for stats, _ in batch]

    fit = _Fit(A0, dataclasses.replace(cfg, potential=None))
    return _alone(_mm_loop(observations, params_rest, [fit], minimize))


def default_init(N_x: int) -> np.ndarray:
    """Benchmark initialization: entries 0.1^|i-j|, rescaled to spectral norm 0.99."""
    check_count(N_x, "N_x")
    idx = np.arange(N_x)
    A = 0.1 ** np.abs(idx[:, None] - idx[None, :]).astype(float)
    return A * (0.99 / spectral_norm(A))
