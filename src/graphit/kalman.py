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
(scaled by max|S_k|). The step at which this happens is
`FilterRun.steady_step`; its values serve every later step. When the
covariances never settle (no process noise on a marginally stable model, or
a diverging iterate) the covariance pass simply runs to K.

Covariances and gains are therefore held in run-length form: each distinct
value once, with the number of consecutive steps it serves. A filter run
lists its transient values one step each, the last the rest of the horizon
(the `_segments` layout); a smoother run lists (Sigma_k^s, G_{k-1}) pairs
with explicit run lengths. Memory is O(K n) for the means and O(runs n^2)
for the covariances, whatever K. Means and residuals are dense.

The mean pass is the affine recurrence mu_k = M_k mu_{k-1} + G_k y_k with
M_k = A - G_k H A. It steps one by one through the transient steps, which
have distinct matrices, and evaluates the settled stretch, where M_k is the
constant steady closed-loop matrix M, by doubling: with the carry folded
into the first offset b_0, the pass with stride s = 1, 2, 4, ... adds
M^s b_{j-s} to every b_j, after which b_j sums the last 2s terms of its
iterate. ceil(log2 n) vectorised products replace n interpreted steps. The
quadratic likelihood term takes one triangular solve per distinct factor.

The smoother does the same. Its gains G_k = (P_{k+1|k}^{-1} A Sigma_k)^T
change only up to the steady step, and it takes P_{k+1|k} and A Sigma_k
from the filter, so its transient loop only factors and solves. Its
backward covariance recursion stops once it settles in the constant-gain
stretch, whose middle is one run of the settled value. Its means run
backward through the same scan on reversed views, so the constant smoother
gain serves the first stretch of the scan.
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

    `filtered_covs[j]` and `predictive_covs[j]` are Sigma_{j+1} and S_{j+1}.
    Each serves one step, and the last one every step from there to K.
    `predicted_covs[j]` and `cross_covs[j]` are P_{j+1|j} = A Sigma_j A^T + Q
    and A Sigma_j, the covariance of x_{j+1} with x_j given y_1..y_j
    (Sigma_0 is the prior), in the same layout. When the
    covariances settle before K they hold one entry more than
    `filtered_covs`, because P_{k+1|k} is constant only from the step after
    the one at which Sigma_k settles.

    `steady_step` is the 1-based step from which the covariances, the
    gains and S_k are constant, or None if they never settled.
    """

    filtered_means: np.ndarray    # (K, N_x)
    filtered_covs: np.ndarray     # (m, N_x, N_x)
    residuals: np.ndarray         # (K, N_y)
    predictive_covs: np.ndarray   # (m, N_y, N_y)
    predicted_covs: np.ndarray    # (p, N_x, N_x), p = min(m + 1, K)
    cross_covs: np.ndarray        # (p, N_x, N_x)
    neg_log_lik: float
    steady_step: int | None = None

    @property
    def horizon(self) -> int:
        return self.filtered_means.shape[0]


@dataclass(frozen=True)
class SmootherRun:
    """Backward-pass outputs: smoothed moments of x_0..x_K and the gains G_0..G_{K-1}.

    Covariances and gains are held by runs over the steps k = 1..K: run j
    covers `run_lengths[j]` consecutive steps, at each of which
    Sigma_k^s = smoothed_covs[j] and G_{k-1} = gains[j]. Neighbouring runs
    of `rts_smoother` hold different pairs. Sigma_0^s is `initial_cov`.
    """

    smoothed_means: np.ndarray  # (K+1, N_x)
    initial_cov: np.ndarray     # (N_x, N_x)
    smoothed_covs: np.ndarray   # (r, N_x, N_x)
    gains: np.ndarray           # (r, N_x, N_x)
    run_lengths: np.ndarray     # (r,), summing to K

    @property
    def horizon(self) -> int:
        return self.smoothed_means.shape[0] - 1


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _settled(new: np.ndarray, old: np.ndarray, scale: np.ndarray) -> bool:
    return np.abs(new - old).max() <= SETTLE_TOL * np.abs(scale).max()


def _segments(n: int, K: int) -> list[slice]:
    """Steps served by each of n distinct covariance steps: one each, the last the rest."""
    return [slice(j, j + 1) for j in range(n - 1)] + [slice(n - 1, K)]


def _run_scan(runs: list, offsets: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Iterates of x_j = M x_{j-1} + offsets[j] from x_{-1} = x.

    `runs` lists (M, n) in step order: M serves the next n steps. A run of
    one step is one matrix-vector product; a longer run is evaluated by
    doubling, in ceil(log2 n) vectorised products. After the pass with
    stride s, row j holds sum_{i=j-2s+1}^{j} M^{j-i} b_i, so once s >= n
    every row holds its iterate.
    """
    out = offsets.copy()
    start = 0
    for M, n in runs:
        b = out[start:start + n]
        b[0] += M @ x
        power, s = M, 1
        while s < n:
            b[s:] += b[:-s] @ power.T
            s *= 2
            if s < n:
                power = power @ power
        x = b[-1]
        start += n
    return out


def _chol_spd(S: np.ndarray, step: int) -> np.ndarray:
    """Lower Cholesky factor of S with a finiteness and condition guard.

    A NaN or infinity anywhere in S reaches the diagonal of its factor.
    For SPD S, (max diag(L) / min diag(L))^2 is a lower bound on the
    2-norm condition number; it is cheap and catches the near-singular
    runs this package can produce.
    """
    L, info = dpotrf(S, lower=1)
    d = np.abs(L.diagonal())
    lo, hi = d.min(), d.max()
    if not math.isfinite(hi):  # a NaN makes the max NaN too
        raise NonFiniteError(f"non-finite covariance at step {step}")
    if info != 0 or lo == 0.0 or (hi / lo) ** 2 > CONDITION_LIMIT:
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

    covs, pred_covs, preds, crosses, gains, factors = [], [], [], [], [], []
    steady_step = None
    Sigma = params.Sigma0
    for k in range(K):
        cross = A @ Sigma
        P_pred = _sym(cross @ A.T + Q)
        PHt = P_pred @ H.T
        S = _sym(H @ PHt + R)
        L = _chol_spd(S, step=k + 1)
        gain = dpotrs(L, PHt.T, lower=1)[0].T
        Sigma = _sym(P_pred - gain @ S @ gain.T)
        if k and _settled(Sigma, covs[-1], P_pred) and _settled(S, pred_covs[-1], S):
            steady_step = k + 1
        covs.append(Sigma)
        pred_covs.append(S)
        preds.append(P_pred)
        crosses.append(cross)
        gains.append(gain)
        factors.append(L)
        if steady_step is not None:
            break
    if len(preds) < K:
        # P_{k+1|k} from the settled Sigma_k serves every later step.
        cross = A @ Sigma
        preds.append(_sym(cross @ A.T + Q))
        crosses.append(cross)
    steps = _segments(len(gains), K)

    # mu_k = (A - G_k H A) mu_{k-1} + G_k y_k and z_k = y_k - H A mu_{k-1}.
    HA = H @ A
    drive = np.empty((K, params.nx))
    for rows, gain in zip(steps, gains):
        drive[rows] = ys[rows] @ gain.T
    runs = [(A - gain @ HA, rows.stop - rows.start) for rows, gain in zip(steps, gains)]
    means = _run_scan(runs, drive, params.mu0)
    residuals = ys - np.vstack([params.mu0, means[:-1]]) @ HA.T

    quad = logdet = 0.0
    for rows, L in zip(steps, factors):
        W = dtrtrs(L, residuals[rows].T, lower=1)[0]
        quad += float(np.vdot(W, W))
        logdet += (rows.stop - rows.start) * 2.0 * float(np.log(L.diagonal()).sum())
    nll = 0.5 * (K * params.ny * LOG_2PI + logdet + quad)
    if not math.isfinite(nll):
        raise NonFiniteError("negative log-likelihood is not finite")

    return FilterRun(
        filtered_means=means,
        filtered_covs=np.array(covs),
        residuals=residuals,
        predictive_covs=np.array(pred_covs),
        predicted_covs=np.array(preds),
        cross_covs=np.array(crosses),
        neg_log_lik=nll,
        steady_step=steady_step,
    )


def rts_smoother(params: ModelParams, filter_run: FilterRun) -> SmootherRun:
    """Backward smoothing pass over a completed filter run.

    Produces the smoothed moments down to k = 0 (the initial state, smoothed
    against all observations) and the gains

        G_k = Sigma_k A^T (A Sigma_k A^T + Q)^{-1},  k = 0..K-1,

    where Sigma_0 is the prior initial covariance; A Sigma_k A^T + Q and
    A Sigma_k are the filter's. A singular A Sigma_k A^T + Q is reported at
    the 1-based step k + 1 it predicts, the earliest such step first.
    """
    A = params.A
    K = filter_run.horizon
    fmeans, fcovs = filter_run.filtered_means, filter_run.filtered_covs
    preds = filter_run.predicted_covs

    # G_0..G_last from the filter's distinct predictions; G_last serves every k >= last.
    last = len(preds) - 1
    gains = [
        dpotrs(_chol_spd(P_pred, step=k + 1), cross, lower=1)[0].T
        for k, (P_pred, cross) in enumerate(zip(preds, filter_run.cross_covs))
    ]
    priors = [params.Sigma0, *fcovs[:last]]

    # Runs of (Sigma_k^s, G_{k-1}) backward from k = K, as (covariance, gain index, length).
    covs, which, lengths = [], [], []
    cov = fcovs[-1]  # Sigma_K^s = Sigma_K
    k = K - 1
    while k >= 0:
        i = min(k, last)
        prev = _sym(priors[i] + gains[i] @ (cov - preds[i]) @ gains[i].T)
        covs.append(cov)
        which.append(i)
        lengths.append(1)
        if k > last and _settled(prev, cov, preds[last]):
            # Sigma_j^s = prev for j = last..k; steps last+1..k pair it with G_last.
            covs.append(prev)
            which.append(last)
            lengths.append(k - last)
            k = last
        cov = prev
        k -= 1
    covs = np.array(covs[::-1])
    run_gains = np.array(gains)[which[::-1]]
    # Where a recursion settles bit for bit, neighbouring runs hold the same pair. Merging them
    # keeps runs maximal, which fixes how compute_stats rounds its weighted sums.
    first = np.ones(len(lengths), dtype=bool)
    first[1:] = (covs[1:] != covs[:-1]).any(axis=(1, 2)) | (run_gains[1:] != run_gains[:-1]).any(axis=(1, 2))
    starts = np.flatnonzero(first)

    # m_k = (mu_k - G_k A mu_k) + G_k m_{k+1}, with mu_k the filtered mean.
    prior_means = np.vstack([params.mu0, fmeans[:-1]])
    offsets = np.empty((K, params.nx))
    runs = []
    for rows, G in zip(_segments(last + 1, K), gains):
        offsets[rows] = prior_means[rows] - prior_means[rows] @ (G @ A).T
        runs.append((G, rows.stop - rows.start))
    means = np.empty((K + 1, params.nx))
    means[K] = fmeans[K - 1]
    means[K - 1::-1] = _run_scan(runs[::-1], offsets[::-1], means[K])

    return SmootherRun(
        smoothed_means=means,
        initial_cov=cov,
        smoothed_covs=covs[starts],
        gains=run_gains[starts],
        run_lengths=np.add.reduceat(np.array(lengths[::-1]), starts),
    )
