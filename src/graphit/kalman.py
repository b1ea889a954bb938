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

The smoother, `rts_smoother`, is one pass in the same style. Its gains
G_k = (P_{k+1|k}^{-1} A Sigma_k)^T change only up to the steady step, and it
takes P_{k+1|k} and A Sigma_k from the filter, so its gain loop only factors
and solves. Its backward covariance recursion stops once it settles in the
constant-gain stretch, whose middle is one run of the settled value. Its
means run backward on a reversed copy of their offsets: by doubling over the
stretch the constant smoother gain serves, then step by step through the
transient gains.

Several models that differ in A only, as the fits of a grid search at one
outer iteration, can share the filter's covariance loop.
`kalman_filter_lockstep` makes each step of that pass once over the stack of
all the models (`_filter_passes`); a model that has settled or failed keeps
its slice but is no longer factored or recorded. Each stacked step makes the
2-D step's operations, so each model gets the 2-D bits. The smoother runs per
model. The caller keeps single fits on the 2-D `kalman_filter`, whose
`ndarray.dot` calls dispatch faster than stacked `@`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .exceptions import DimensionMismatchError, NonFiniteError, SingularPredictiveCovarianceError, attempt
from .model import ModelParams, check_transition, real_array, validate

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


def _sym_each(M: np.ndarray) -> np.ndarray:
    """`_sym` of each matrix of a stack."""
    return 0.5 * (M + M.transpose(0, 2, 1))


def _settled(new: np.ndarray, old: np.ndarray, scale: np.ndarray) -> bool:
    return np.abs(new - old).max() <= SETTLE_TOL * np.abs(scale).max()


def _settled_each(new: np.ndarray, old: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """`_settled` of each slice of a stack; a maximum is exact, so each is the 2-D test."""
    return np.abs(new - old).max(axis=(1, 2)) <= SETTLE_TOL * np.abs(scale).max(axis=(1, 2))


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


@dataclass
class _FilterPass:
    """The filter's covariance pass at one A: the values of each step it ran, in step order.

    It ends at the steady step, or at the first factorization that failed; that
    step's factor is the last of `factors`, and it has no entry in the other lists.
    """

    covs: list = field(default_factory=list)       # Sigma_k
    pred_covs: list = field(default_factory=list)  # S_k
    preds: list = field(default_factory=list)      # P_k|k-1
    crosses: list = field(default_factory=list)    # A Sigma_{k-1}
    gains: list = field(default_factory=list)
    factors: list = field(default_factory=list)    # lower Cholesky factors of S_k
    failed: bool = False
    steady_step: int | None = None


def _observations(params: ModelParams, observations) -> np.ndarray:
    """The observations as a finite (K, N_y) array, once the model has been validated."""
    validate(params)
    ys = real_array(observations, "observations")
    if ys.ndim == 1:
        ys = ys[:, None]
    if ys.ndim != 2 or ys.shape[0] < 1 or ys.shape[1] != params.ny:
        raise DimensionMismatchError(f"observations must have shape (K, {params.ny}), got {ys.shape}")
    if not np.isfinite(ys).all():
        raise NonFiniteError("observations contain NaN or infinite values")
    return ys


def _filter_pass(params: ModelParams, K: int) -> _FilterPass:
    A, H, Q, R = params.A, params.H, params.Q, params.R
    At, Ht, I = A.T, H.T, np.eye(params.nx)
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
            # Joseph form: PSD by construction, where P - G S G^T rounds at P's scale, not Sigma's.
            IGH = I - gain.dot(H)
            Sigma = _sym(IGH.dot(P_pred).dot(IGH.T) + gain.dot(R).dot(gain.T))
            if k and _settled(Sigma, covs[-1], P_pred) and _settled(S, pred_covs[-1], S):
                steady_step = k + 1
            covs.append(Sigma)
            pred_covs.append(S)
            preds.append(P_pred)
            crosses.append(cross)
            gains.append(gain)
            if steady_step is not None:
                break
    return _FilterPass(covs, pred_covs, preds, crosses, gains, factors, info != 0, steady_step)


def _filter_passes(params: Sequence[ModelParams], K: int) -> list[_FilterPass]:
    """`_filter_pass` at each of several parameter sets that differ in A only, in lockstep.

    Each step makes the 2-D step's products once over the stack of all the
    points. A stacked product computes each slice by the BLAS call that
    `ndarray.dot` makes, so every value is the 2-D pass's. The factorizations
    stay per slice, because numpy's stacked Cholesky rounds differently from
    `dpotrf`. A point that has settled or failed keeps its slice but gets no
    more factorizations or records, and the pass ends once every point has.
    """
    H, Q, R = params[0].H, params[0].Q, params[0].R
    Ht, I = H.T, np.eye(params[0].nx)
    passes = [_FilterPass() for _ in params]
    running = list(range(len(passes)))  # the points neither settled nor failed
    A = np.array([p.A for p in params])
    At = A.transpose(0, 2, 1)
    Sigma = params[0].Sigma0
    settled = np.zeros(len(passes), dtype=bool)
    # A failed or settled point's slice rides on unread, and may overflow to NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            cross = A @ Sigma
            P_pred = _sym_each(cross @ At + Q)
            PHt = P_pred @ Ht
            S = _sym_each(H @ PHt + R)
            gain = np.zeros_like(PHt)
            for j in running:
                L, info = dpotrf(S[j], lower=1)
                passes[j].factors.append(L)
                if info:
                    passes[j].failed = True
                else:
                    gain[j] = dpotrs(L, PHt[j].T, lower=1)[0].T
            IGH = I - gain @ H
            Sigma = _sym_each(IGH @ P_pred @ IGH.transpose(0, 2, 1) + gain @ R @ gain.transpose(0, 2, 1))
            if k:
                settled = _settled_each(Sigma, prev_Sigma, P_pred)
                if settled.any():
                    settled &= _settled_each(S, prev_S, S)
            for j in running:
                run = passes[j]
                if not run.failed:
                    run.covs.append(Sigma[j])
                    run.pred_covs.append(S[j])
                    run.preds.append(P_pred[j])
                    run.crosses.append(cross[j])
                    run.gains.append(gain[j])
                    if settled[j]:
                        run.steady_step = k + 1
            running = [j for j in running if not (passes[j].failed or passes[j].steady_step)]
            if not running:
                break
            prev_Sigma, prev_S = Sigma, S
    return passes


def _filter_run(params: ModelParams, ys: np.ndarray, cov_pass: _FilterPass) -> FilterRun:
    """The filter at params.A from its covariance pass: the guard, the means and the likelihood."""
    K = ys.shape[0]
    A, H = params.A, params.H
    factors = np.array(cov_pass.factors)
    diagonals = _guard(factors, cov_pass.failed)
    covs, preds, crosses = cov_pass.covs, cov_pass.preds, cov_pass.crosses
    if len(preds) < K:
        # P_{k+1|k} from the settled Sigma_k serves every later step.
        cross = A.dot(covs[-1])
        preds.append(_sym(cross.dot(A.T) + params.Q))
        crosses.append(cross)
    # Steps 1..t are transient, one value each; value t serves steps t+1..K.
    gains = np.array(cov_pass.gains)
    t = len(gains) - 1

    # mu_k = (A - G_k H A) mu_{k-1} + G_k y_k and z_k = y_k - H A mu_{k-1}. The stacked
    # products make, per step, the BLAS call of the per-step product, so the bits are its.
    HA = H.dot(A)
    drive = np.empty((K, params.nx))
    np.matmul(ys[:t, None], gains[:t].transpose(0, 2, 1), out=drive[:t, None])
    drive[t:] = ys[t:] @ gains[t].T
    closed = A - gains @ HA
    x = _steps(closed[:t], drive[:t], params.mu0)
    _double(closed[t], drive[t:], x)
    means = drive  # the scan leaves the iterates in place
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
        predictive_covs=np.array(cov_pass.pred_covs),
        predicted_covs=np.array(preds),
        cross_covs=np.array(crosses),
        neg_log_lik=nll,
        steady_step=cov_pass.steady_step,
    )


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
    ConfigError
        If the observations are ragged or not real numbers (`real_array`).
    NonFiniteError
        If the observations, a covariance or the likelihood is not finite.
    SingularPredictiveCovarianceError
        If some S_k is numerically singular (estimated condition > 1e12).
    """
    ys = _observations(params, observations)
    return _filter_run(params, ys, _filter_pass(params, ys.shape[0]))


def kalman_filter_lockstep(params: Sequence[ModelParams], observations: np.ndarray) -> list:
    """`kalman_filter` at each of several parameter sets that differ in A only.

    Each set's A gets the checks `validate` makes first (`check_transition`).
    The other checks of the model and the observations see A only through its
    shape, so they run once. One covariance pass runs over the sets that
    passed (`_filter_passes`); the rest runs per set. Each entry is the
    FilterRun of its set, or the error in `FIT_ERRORS` that `kalman_filter`
    raises there.
    """
    errors = [attempt(check_transition, p.A) for p in params]
    live = [p for p, error in zip(params, errors) if error is None]
    ys = attempt(_observations, live[0], observations) if live else None
    if not isinstance(ys, np.ndarray):
        return [ys if error is None else error for error in errors]
    passes = iter(_filter_passes(live, ys.shape[0]))
    return [attempt(_filter_run, p, ys, next(passes)) if error is None else error for p, error in zip(params, errors)]


def rts_smoother(params: ModelParams, filter_run: FilterRun) -> SmootherRun:
    """Backward smoothing pass over a completed filter run.

    Produces the smoothed moments down to k = 0 (the initial state, smoothed
    against all observations) and the gains

        G_k = Sigma_k A^T (A Sigma_k A^T + Q)^{-1},  k = 0..K-1,

    where Sigma_0 is the prior initial covariance; A Sigma_k A^T + Q and
    A Sigma_k are the filter's. A singular A Sigma_k A^T + Q is reported at
    the 1-based step k + 1 it predicts, the earliest such step first.
    """
    K = filter_run.horizon
    fmeans, fcovs, preds = filter_run.filtered_means, filter_run.filtered_covs, filter_run.predicted_covs
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

    # Backward from Sigma_K^s = Sigma_K, the runs of (Sigma_k^s, G_{k-1}) in reverse step order.
    priors = [params.Sigma0, *fcovs[:last]]
    tol = SETTLE_TOL * np.abs(preds[last]).max()  # `_settled`'s, as P_{last+1|last} serves every k > last
    covs, which, lengths = [], [], []  # which: the index in gains of each run's G
    k, cov = K - 1, fcovs[-1]
    while k >= 0:
        i = min(k, last)
        G = gains[i]
        prev = _sym(priors[i] + G.dot(cov - preds[i]).dot(G.T))
        covs.append(cov)
        which.append(i)
        lengths.append(1)
        if k > last and np.abs(prev - cov).max() <= tol:
            # Sigma_j^s = prev for j = last..k; steps last+1..k pair it with G_last.
            covs.append(prev)
            which.append(last)
            lengths.append(k - last)
            k = last
        cov = prev
        k -= 1
    covs, run_gains = np.array(covs[::-1]), gains[which[::-1]]
    # Where a recursion settles bit for bit, neighbouring runs hold the same pair. Merging them
    # keeps runs maximal, which fixes how compute_stats rounds its weighted sums.
    first = np.ones(len(lengths), dtype=bool)
    first[1:] = (covs[1:] != covs[:-1]).any(axis=(1, 2)) | (run_gains[1:] != run_gains[:-1]).any(axis=(1, 2))
    starts = np.flatnonzero(first)

    # m_k = (mu_k - G_k A mu_k) + G_k m_{k+1}, with mu_k the filtered mean.
    prior_means = np.vstack([params.mu0, fmeans[:-1]])
    GA = gains @ params.A
    offsets = np.empty((K, params.nx))
    np.matmul(prior_means[:last, None], GA[:last].transpose(0, 2, 1), out=offsets[:last, None])
    offsets[last:] = prior_means[last:] @ GA[last].T
    np.subtract(prior_means, offsets, out=offsets)
    # Backward from m_K: the settled gain serves the first K - last steps, then G_{last-1}..G_0.
    back = offsets[::-1].copy()
    x = _double(gains[last], back[:K - last], fmeans[K - 1])
    _steps(gains[:last][::-1], back[K - last:], x)
    means = np.vstack([back[::-1], fmeans[K - 1]])

    return SmootherRun(
        smoothed_means=means,
        initial_cov=cov,  # Sigma_0^s, where the recursion ended
        smoothed_covs=covs[starts],
        gains=run_gains[starts],
        run_lengths=np.add.reduceat(np.array(lengths[::-1]), starts),
    )
