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
lists its transient values one step each, the last the rest of the horizon;
a smoother run lists (Sigma_k^s, G_{k-1}) pairs with explicit run lengths.
Memory is O(K n) for the means and O(runs n^2) for the covariances, whatever
K. Means and residuals are dense.

The loops that remain are the covariance recursions and the transient means,
and each costs interpreter time per step rather than flops, so they are kept
to the few calls a recursion needs. Their 2-D products go through
`ndarray.dot`, which computes the same BLAS product as `@` with less
dispatch. A covariance loop stops at the first factorization that fails,
and the condition guard checks every factor at once afterwards, reporting
the earliest bad step; the filter's steps after a bad one only repeat its
failure, so their floating-point warnings are silenced. Everything that is
not a recursion runs once over the stacked transient values: the filter's
drive G_k y_k and closed-loop matrices M_k = A - G_k H A, the likelihood's
log-determinants and quadratic terms, and the smoother's offsets.

The mean pass is the affine recurrence mu_k = M_k mu_{k-1} + G_k y_k. It
steps through the transient steps with one matrix-vector product each, and
evaluates the settled stretch, where M_k is the constant steady closed-loop
matrix M, by doubling: with the carry folded into the first offset b_0, the
pass with stride s = 1, 2, 4, ... adds M^s b_{j-s} to every b_j, after which
b_j sums the last 2s terms of its iterate. ceil(log2 n) vectorised products
replace n interpreted steps.

The smoother does the same. Its gains G_k = (P_{k+1|k}^{-1} A Sigma_k)^T
change only up to the steady step, and it takes P_{k+1|k} and A Sigma_k
from the filter, so its transient loop only factors and solves. Its
backward covariance recursion stops once it settles in the constant-gain
stretch, whose middle is one run of the settled value. Its means run
backward through the same scan on a reversed copy, so the constant smoother
gain serves the first stretch of the scan and the transient gains follow.

At n_x = 8, K = 1000 (the `table2-8-4` data at `default_init(8)`) one
E-step, filter, smoother and `compute_stats`, takes 1.47 ms at best and
2.5 ms in the median of 400 calls, against 1.82 and 3.0 ms when each
transient step also ran the non-recursive work and the guard; at n_x = 4,
K = 60, 1.08 against 1.47 ms at best (2-core x86-64 VM, one BLAS thread).
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


def _steps(mats: np.ndarray, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """rows[j] += mats[j] x_{j-1} in step order, from x_{-1} = x; returns the last iterate."""
    for M, row in zip(mats, rows):
        row += M.dot(x)
        x = row
    return x


def _double(M: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """b[j] becomes the iterate j of x_j = M x_{j-1} + b[j] from x_{-1} = x; returns the last.

    After the pass with stride s, row j holds sum_{i=j-2s+1}^{j} M^{j-i} b_i,
    so once s >= len(b) every row holds its iterate.
    """
    b[0] += M @ x
    power, s = M, 1
    while s < len(b):
        b[s:] += b[:-s] @ power.T
        s *= 2
        if s < len(b):
            power = power @ power
    return b[-1]


def _run_scan(mats: np.ndarray, offsets: np.ndarray, x: np.ndarray, settled_first: bool = False) -> np.ndarray:
    """Iterates of x_j = M_j x_{j-1} + offsets[j] from x_{-1} = x.

    `mats` holds the distinct matrices in step order. Each serves one step
    except the settled one, which serves a stretch: the last matrix serves
    every step from len(mats) - 1 on, or, with `settled_first`, the first
    serves every step before the last len(mats) - 1. A transient step is one
    matrix-vector product; the stretch is evaluated by doubling, in
    ceil(log2 n) vectorised products for n steps.
    """
    out = offsets.copy()
    t = len(mats) - 1
    if settled_first:
        x = _double(mats[0], out[:len(out) - t], x)
        _steps(mats[1:], out[len(out) - t:], x)
    else:
        x = _steps(mats[:t], out[:t], x)
        _double(mats[t], out[t:], x)
    return out


def _guard(factors: np.ndarray, failed: bool) -> np.ndarray:
    """Check the stacked lower Cholesky factors of steps 1, 2, ...; return their |diagonals|.

    `failed` says that the factorization of the last one failed. A NaN or
    infinity anywhere in a factored matrix reaches the diagonal of its
    factor. For SPD S, (max diag(L) / min diag(L))^2 is a lower bound on the
    2-norm condition number; it is cheap and catches the near-singular runs
    this package can produce. The earliest bad step raises, a non-finite one
    as NonFiniteError.
    """
    d = np.abs(np.diagonal(factors, axis1=1, axis2=2))
    lo, hi = d.min(axis=1), d.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bad = ~((hi / lo) ** 2 <= CONDITION_LIMIT)  # also true for lo == 0 and for NaN
    bad[-1] |= failed
    if bad.any():
        j = int(bad.argmax())
        if not math.isfinite(hi[j]):
            raise NonFiniteError(f"non-finite covariance at step {j + 1}")
        raise SingularPredictiveCovarianceError(j + 1)
    return d


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
    At, Ht = A.T, H.T

    covs, pred_covs, preds, crosses, gains, factors = [], [], [], [], [], []
    steady_step = None
    Sigma = params.Sigma0
    # Steps after a bad one only repeat its failure, which the guard reports after the loop.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            cross = A.dot(Sigma)
            P_pred = _sym(cross.dot(At) + Q)
            PHt = P_pred.dot(Ht)
            S = _sym(H.dot(PHt) + R)
            L, info = dpotrf(S, lower=1)
            factors.append(L)
            if info:
                break
            gain = dpotrs(L, PHt.T, lower=1)[0].T
            Sigma = _sym(P_pred - gain.dot(S).dot(gain.T))
            if k and _settled(Sigma, covs[-1], P_pred) and _settled(S, pred_covs[-1], S):
                steady_step = k + 1
            covs.append(Sigma)
            pred_covs.append(S)
            preds.append(P_pred)
            crosses.append(cross)
            gains.append(gain)
            if steady_step is not None:
                break
    factors = np.array(factors)
    diagonals = _guard(factors, info != 0)
    if len(preds) < K:
        # P_{k+1|k} from the settled Sigma_k serves every later step.
        cross = A.dot(Sigma)
        preds.append(_sym(cross.dot(At) + Q))
        crosses.append(cross)
    # Steps 1..t are transient, one value each; value t serves steps t+1..K.
    gains = np.array(gains)
    t = len(gains) - 1

    # mu_k = (A - G_k H A) mu_{k-1} + G_k y_k and z_k = y_k - H A mu_{k-1}. The stacked
    # products make, per step, the BLAS call of the per-step product, so the bits are its.
    HA = H.dot(A)
    drive = np.empty((K, params.nx))
    np.matmul(ys[:t, None], gains[:t].transpose(0, 2, 1), out=drive[:t, None])
    drive[t:] = ys[t:] @ gains[t].T
    means = _run_scan(A - gains @ HA, drive, params.mu0)
    residuals = ys - np.vstack([params.mu0, means[:-1]]) @ HA.T

    # log|S_k| from the factors' diagonals; z_k^T S_k^{-1} z_k = |L_k^{-1} z_k|^2.
    logdets = np.log(diagonals).sum(axis=1)
    W = np.linalg.solve(factors[:t], residuals[:t, :, None])
    V = dtrtrs(factors[t], residuals[t:].T, lower=1)[0]
    quad = float(np.vdot(W, W) + np.vdot(V, V))
    logdet = 2.0 * float(logdets[:t].sum() + (K - t) * logdets[t])
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
    gains, factors = [], []
    for P_pred, cross in zip(preds, filter_run.cross_covs):
        L, info = dpotrf(P_pred, lower=1)
        factors.append(L)
        if info:
            break
        gains.append(dpotrs(L, cross, lower=1)[0].T)
    _guard(np.array(factors), info != 0)
    gains = np.array(gains)
    last = len(gains) - 1
    priors = [params.Sigma0, *fcovs[:last]]

    # Runs of (Sigma_k^s, G_{k-1}) backward from k = K, as (covariance, gain index, length).
    covs, which, lengths = [], [], []
    cov = fcovs[-1]  # Sigma_K^s = Sigma_K
    k = K - 1
    while k >= 0:
        i = min(k, last)
        G = gains[i]
        prev = _sym(priors[i] + G.dot(cov - preds[i]).dot(G.T))
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
    run_gains = gains[which[::-1]]
    # Where a recursion settles bit for bit, neighbouring runs hold the same pair. Merging them
    # keeps runs maximal, which fixes how compute_stats rounds its weighted sums.
    first = np.ones(len(lengths), dtype=bool)
    first[1:] = (covs[1:] != covs[:-1]).any(axis=(1, 2)) | (run_gains[1:] != run_gains[:-1]).any(axis=(1, 2))
    starts = np.flatnonzero(first)

    # m_k = (mu_k - G_k A mu_k) + G_k m_{k+1}, with mu_k the filtered mean.
    prior_means = np.vstack([params.mu0, fmeans[:-1]])
    GA = gains @ A
    offsets = np.empty((K, params.nx))
    np.matmul(prior_means[:last, None], GA[:last].transpose(0, 2, 1), out=offsets[:last, None])
    offsets[last:] = prior_means[last:] @ GA[last].T
    np.subtract(prior_means, offsets, out=offsets)
    means = np.empty((K + 1, params.nx))
    means[K] = fmeans[K - 1]
    means[K - 1::-1] = _run_scan(gains[::-1], offsets[::-1], means[K], settled_first=True)

    return SmootherRun(
        smoothed_means=means,
        initial_cov=cov,
        smoothed_covs=covs[starts],
        gains=run_gains[starts],
        run_lengths=np.add.reduceat(np.array(lengths[::-1]), starts),
    )
