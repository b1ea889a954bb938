"""Exact Kalman filtering and Rauch-Tung-Striebel smoothing.

The filter also accumulates the negative log-likelihood of the observations
through the predictive residuals z_k and covariances S_k,

    nll = sum_k 1/2 log|2 pi S_k| + 1/2 z_k^T S_k^{-1} z_k,

which is the data-fit term minimized by all estimators in this package.

Both recursions run in two passes. The covariances (P_k|k-1, S_k, the
filter gains, Sigma_k and the smoother gains G_k) do not depend on y, and
for a fixed model they settle to the fixed point of the Riccati recursion
within a few steps. The covariance pass therefore runs step by step only
until two consecutive steps agree to a few ulps,

    max|X_k - X_{k-1}| <= 1e-15 * scale,

for Sigma_k (scaled by max|P_k|k-1|, from which it is computed) and S_k
(scaled by max|S_k|), and repeats the settled values over the remaining
steps. The step at which this happens is `FilterRun.steady_step`. The mean
pass then runs the mean recursion with the per-step gains, and the
quadratic likelihood term takes one triangular solve per distinct factor.
When the covariances never settle (no process noise on a marginally stable
model, or a diverging iterate) the covariance pass simply runs to K.

The smoother does the same: its gains change only up to the steady step,
and its backward covariance recursion stops once it settles in the
constant-gain stretch; the middle of that stretch is filled with the
settled value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .exceptions import NonFiniteError, SingularPredictiveCovarianceError
from .model import ModelParams, validate

# Cholesky-diagonal condition estimate beyond which S_k is treated as singular.
CONDITION_LIMIT = 1e12

# Consecutive covariances closer than this, relative to their scale, have settled.
SETTLE_TOL = 1e-15

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class FilterRun:
    """Forward-pass outputs for k = 1..K plus the accumulated likelihood.

    `steady_step` is the 1-based step from which the covariances, the
    gains and S_k are constant, or None if they never settled.
    """

    filtered_means: np.ndarray    # (K, N_x)
    filtered_covs: np.ndarray     # (K, N_x, N_x)
    residuals: np.ndarray         # (K, N_y)
    predictive_covs: np.ndarray   # (K, N_y, N_y)
    neg_log_lik: float
    steady_step: int | None = None

    @property
    def horizon(self) -> int:
        return self.filtered_means.shape[0]


@dataclass(frozen=True)
class SmootherRun:
    """Backward-pass outputs for k = 0..K and the gains G_0..G_{K-1}."""

    smoothed_means: np.ndarray  # (K+1, N_x)
    smoothed_covs: np.ndarray   # (K+1, N_x, N_x)
    gains: np.ndarray           # (K, N_x, N_x)

    @property
    def horizon(self) -> int:
        return self.gains.shape[0]


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _settled(new: np.ndarray, old: np.ndarray, scale: np.ndarray) -> bool:
    return np.abs(new - old).max() <= SETTLE_TOL * np.abs(scale).max()


def _segments(n: int, K: int) -> list[slice]:
    """Steps served by each of n distinct covariance steps: one each, the last the rest."""
    return [slice(j, j + 1) for j in range(n - 1)] + [slice(n - 1, K)]


def _affine_scan(mats: list, offsets: np.ndarray, x: np.ndarray, order: range) -> np.ndarray:
    """x <- mats[min(k, last)] x + offsets[k] for k in `order`; the iterates, indexed by k."""
    out = np.empty_like(offsets)
    last = len(mats) - 1
    for k in order:
        x = mats[min(k, last)].dot(x)
        x += offsets[k]
        out[k] = x
    return out


def _chol_spd(S: np.ndarray, step: int) -> np.ndarray:
    """Lower Cholesky factor of S with a finiteness and condition guard.

    A NaN or infinity anywhere in S reaches the diagonal of its factor.
    For SPD S, (max diag(L) / min diag(L))^2 is a lower bound on the
    2-norm condition number; it is cheap and catches the near-singular
    runs this package can produce.
    """
    L, info = dpotrf(S, lower=1)
    d = np.abs(np.diag(L))
    if not np.isfinite(d).all():
        raise NonFiniteError(f"non-finite covariance at step {step}")
    if info != 0 or d.min() == 0.0 or (d.max() / d.min()) ** 2 > CONDITION_LIMIT:
        raise SingularPredictiveCovarianceError(step)
    return L


def kalman_filter(params: ModelParams, observations: np.ndarray) -> FilterRun:
    """Run the forward Kalman recursion on y_1..y_K.

    Parameters
    ----------
    params : ModelParams
        Model parameters; covariances may be semidefinite as long as every
        predictive covariance S_k stays well conditioned.
    observations : ndarray (K, N_y)

    Raises
    ------
    NonFiniteError
        If the observations, a covariance or the likelihood is not finite.
    SingularPredictiveCovarianceError
        If some S_k is numerically singular (estimated condition > 1e12).
    """
    validate(params, semidefinite_ok=True)
    ys = np.asarray(observations, dtype=float)
    if ys.ndim == 1:
        ys = ys[:, None]
    K = ys.shape[0]
    if K < 1 or ys.shape[1] != params.ny:
        raise ValueError(f"observations must have shape (K, {params.ny}), got {ys.shape}")
    if not np.isfinite(ys).all():
        raise NonFiniteError("observations contain NaN or infinite values")
    A, H, Q, R = params.A, params.H, params.Q, params.R

    covs = np.empty((K, params.nx, params.nx))
    pred_covs = np.empty((K, params.ny, params.ny))
    gains, factors = [], []
    steady_step = None
    Sigma = params.Sigma0
    for k in range(K):
        P_pred = _sym(A @ Sigma @ A.T + Q)
        PHt = P_pred @ H.T
        S = _sym(H @ PHt + R)
        L = _chol_spd(S, step=k + 1)
        gain = dpotrs(L, PHt.T, lower=1)[0].T
        Sigma = _sym(P_pred - gain @ S @ gain.T)
        covs[k], pred_covs[k] = Sigma, S
        gains.append(gain)
        factors.append(L)
        if k and _settled(Sigma, covs[k - 1], P_pred) and _settled(S, pred_covs[k - 1], S):
            steady_step = k + 1
            covs[k + 1:], pred_covs[k + 1:] = Sigma, S
            break
    steps = _segments(len(gains), K)

    # mu_k = (A - G_k H A) mu_{k-1} + G_k y_k and z_k = y_k - H A mu_{k-1}.
    HA = H @ A
    drive = np.empty((K, params.nx))
    for rows, gain in zip(steps, gains):
        drive[rows] = ys[rows] @ gain.T
    means = _affine_scan([A - gain @ HA for gain in gains], drive, params.mu0, range(K))
    residuals = ys - np.vstack([params.mu0, means[:-1]]) @ HA.T

    quad = logdet = 0.0
    for rows, L in zip(steps, factors):
        W = dtrtrs(L, residuals[rows].T, lower=1)[0]
        quad += float(np.vdot(W, W))
        logdet += (rows.stop - rows.start) * 2.0 * float(np.sum(np.log(np.diag(L))))
    nll = 0.5 * (K * params.ny * LOG_2PI + logdet + quad)
    if not math.isfinite(nll):
        raise NonFiniteError("negative log-likelihood is not finite")

    return FilterRun(
        filtered_means=means,
        filtered_covs=covs,
        residuals=residuals,
        predictive_covs=pred_covs,
        neg_log_lik=nll,
        steady_step=steady_step,
    )


def rts_smoother(params: ModelParams, filter_run: FilterRun) -> SmootherRun:
    """Backward smoothing pass over a completed filter run.

    Produces the smoothed moments down to k = 0 (the initial state, smoothed
    against all observations) and the gains

        G_k = Sigma_k A^T (A Sigma_k A^T + Q)^{-1},  k = 0..K-1,

    where Sigma_0 is the prior initial covariance. A singular
    A Sigma_k A^T + Q is reported at the 1-based step k + 1 it predicts,
    the earliest such step first.
    """
    A, Q = params.A, params.Q
    K = filter_run.horizon
    fmeans, fcovs = filter_run.filtered_means, filter_run.filtered_covs

    # Sigma_k, hence G_k, is constant for k >= steady_step.
    last = K - 1 if filter_run.steady_step is None else min(filter_run.steady_step, K - 1)
    priors, preds, distinct = [], [], []
    for k in range(last + 1):
        Sigma_k = params.Sigma0 if k == 0 else fcovs[k - 1]
        P_pred = _sym(A @ Sigma_k @ A.T + Q)
        priors.append(Sigma_k)
        preds.append(P_pred)
        distinct.append(dpotrs(_chol_spd(P_pred, step=k + 1), A @ Sigma_k, lower=1)[0].T)
    gains = np.empty((K, params.nx, params.nx))
    gains[:last + 1] = distinct
    gains[last + 1:] = distinct[last]

    covs = np.empty((K + 1, params.nx, params.nx))
    covs[K] = fcovs[K - 1]
    k = K - 1
    while k >= 0:
        i = min(k, last)
        covs[k] = _sym(priors[i] + distinct[i] @ (covs[k + 1] - preds[i]) @ distinct[i].T)
        if k > last and _settled(covs[k], covs[k + 1], preds[last]):
            covs[last:k] = covs[k]
            k = last
        k -= 1

    # m_k = (mu_k - G_k A mu_k) + G_k m_{k+1}, with mu_k the filtered mean.
    prior_means = np.vstack([params.mu0, fmeans[:-1]])
    offsets = np.empty((K, params.nx))
    for rows, G in zip(_segments(last + 1, K), distinct):
        offsets[rows] = prior_means[rows] - prior_means[rows] @ (G @ A).T
    means = np.empty((K + 1, params.nx))
    means[K] = fmeans[K - 1]
    means[:K] = _affine_scan(distinct, offsets, means[K], range(K - 1, -1, -1))

    return SmootherRun(smoothed_means=means, smoothed_covs=covs, gains=gains)
