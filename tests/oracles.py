"""Independent reference computations used by the test suite.

Everything here deliberately avoids the library's own recursions: the
likelihood and smoothing oracles build the dense joint Gaussian of the whole
trajectory and condition it directly, the reference filter and smoother run
every covariance step with no steady-state shortcut, the quadratic prox is
one dense Kronecker-form solve, and the inner-problem oracle is a plain
proximal-gradient loop. `reference_douglas_rachford` is the library's
Douglas-Rachford loop as it was before its sweep was restructured: one
temporary per operation, both factorizations per call, so the rewritten
solver can be checked iterate for iterate. `reference_simulate` is the
library's sampler as it was before its draws and products were stacked: one
generator call and one matrix-vector product per noise vector, so the stream
order and the bytes of every trajectory can be checked.

The library holds filter and smoother covariances in run-length form;
`dense_filter` and `dense_smoother` expand them to one row per step, and
`smoother_run` builds a run from dense arrays, every step a run of its own.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from graphit.em_stats import q_quadratic
from graphit.exceptions import SingularPredictiveCovarianceError
from graphit.kalman import FilterRun, SmootherRun
from graphit.model import ModelParams, Trajectory, validate

LOG_2PI = float(np.log(2.0 * np.pi))


def joint_moments(params: ModelParams, K: int):
    """Mean and covariance of the stacked vector (x_0..x_K, y_1..y_K)."""
    nx, ny = params.nx, params.ny
    A, H, Q, R = params.A, params.H, params.Q, params.R

    mean_x = np.zeros((K + 1, nx))
    mean_x[0] = params.mu0
    for k in range(1, K + 1):
        mean_x[k] = A @ mean_x[k - 1]

    P = [params.Sigma0]
    for k in range(1, K + 1):
        P.append(A @ P[-1] @ A.T + Q)

    cov_x = np.zeros(((K + 1) * nx, (K + 1) * nx))
    for i in range(K + 1):
        block = P[i]
        for j in range(i, K + 1):
            cov_x[i * nx:(i + 1) * nx, j * nx:(j + 1) * nx] = block @ np.linalg.matrix_power(A, j - i).T
    cov_x = np.triu(np.ones_like(cov_x)) * cov_x
    cov_x = cov_x + np.triu(cov_x, 1).T

    # y_k = H x_k + r_k for k = 1..K
    lift = np.zeros((K * ny, (K + 1) * nx))
    for k in range(1, K + 1):
        lift[(k - 1) * ny:k * ny, k * nx:(k + 1) * nx] = H
    mean_y = lift @ mean_x.reshape(-1)
    cov_y = lift @ cov_x @ lift.T + np.kron(np.eye(K), R)
    cov_xy = cov_x @ lift.T
    return mean_x.reshape(-1), cov_x, mean_y, cov_y, cov_xy


def nll_oracle(params: ModelParams, observations: np.ndarray) -> float:
    """Negative log density of y_1..y_K under the dense joint Gaussian."""
    K = observations.shape[0]
    _, _, mean_y, cov_y, _ = joint_moments(params, K)
    resid = observations.reshape(-1) - mean_y
    L = np.linalg.cholesky(cov_y)
    alpha = np.linalg.solve(L, resid)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return 0.5 * (resid.size * LOG_2PI + logdet + float(alpha @ alpha))


def smoother_oracle(params: ModelParams, observations: np.ndarray):
    """Smoothed means/covariances of x_0..x_K by dense joint conditioning."""
    K = observations.shape[0]
    nx = params.nx
    mean_x, cov_x, mean_y, cov_y, cov_xy = joint_moments(params, K)
    resid = observations.reshape(-1) - mean_y
    gain = cov_xy @ np.linalg.inv(cov_y)
    post_mean = mean_x + gain @ resid
    post_cov = cov_x - gain @ cov_xy.T
    means = post_mean.reshape(K + 1, nx)
    covs = np.array([post_cov[k * nx:(k + 1) * nx, k * nx:(k + 1) * nx] for k in range(K + 1)])
    return means, covs


def _sym(M):
    return 0.5 * (M + M.T)


def _reference_factor(S, step):
    """Cholesky factor of S, singular beyond the library's condition limit of 1e12."""
    try:
        factor = cho_factor(S, lower=True)
    except np.linalg.LinAlgError:
        raise SingularPredictiveCovarianceError(step) from None
    d = np.abs(np.diag(factor[0]))
    if d.min() == 0.0 or (d.max() / d.min()) ** 2 > 1e12:
        raise SingularPredictiveCovarianceError(step)
    return factor


def _expand_filter_runs(values, K):
    """Rows of a filter field, one per step: each value serves one step, the last the rest."""
    return np.repeat(values, [1] * (len(values) - 1) + [K - len(values) + 1], axis=0)


def dense_filter(run: FilterRun) -> SimpleNamespace:
    """The filter's per-step fields with one row per step k = 1..K."""
    K = run.horizon
    return SimpleNamespace(
        filtered_means=run.filtered_means,
        filtered_covs=_expand_filter_runs(run.filtered_covs, K),
        residuals=run.residuals,
        predictive_covs=_expand_filter_runs(run.predictive_covs, K),
        predicted_covs=_expand_filter_runs(run.predicted_covs, K),
        cross_covs=_expand_filter_runs(run.cross_covs, K),
    )


def dense_smoother(run: SmootherRun) -> SimpleNamespace:
    """Smoothed means and covariances of x_0..x_K and the gains G_0..G_{K-1}, one row per step."""
    covs = np.repeat(run.smoothed_covs, run.run_lengths, axis=0)
    return SimpleNamespace(
        smoothed_means=run.smoothed_means,
        smoothed_covs=np.concatenate([run.initial_cov[None], covs]),
        gains=np.repeat(run.gains, run.run_lengths, axis=0),
    )


def smoother_run(means, covs, gains) -> SmootherRun:
    """A smoother run from dense (K+1, n), (K+1, n, n) and (K, n, n) arrays."""
    return SmootherRun(
        smoothed_means=means,
        initial_cov=covs[0],
        smoothed_covs=covs[1:],
        gains=gains,
        run_lengths=np.ones(len(gains), dtype=int),
    )


def reference_filter(params: ModelParams, observations: np.ndarray) -> FilterRun:
    """Kalman filter with every covariance step computed."""
    A, H, Q, R = params.A, params.H, params.Q, params.R
    K = observations.shape[0]
    mu, Sigma = params.mu0.copy(), params.Sigma0.copy()
    means, covs, residuals, pred_covs, preds, crosses = [], [], [], [], [], []
    nll = 0.0
    for k in range(K):
        m_pred = A @ mu
        P_pred = _sym(A @ Sigma @ A.T + Q)
        preds.append(P_pred)
        crosses.append(A @ Sigma)
        z = observations[k] - H @ m_pred
        PHt = P_pred @ H.T
        S = _sym(H @ PHt + R)
        factor = _reference_factor(S, k + 1)
        gain = cho_solve(factor, PHt.T).T
        mu = m_pred + gain @ z
        Sigma = _sym(P_pred - gain @ S @ gain.T)
        logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
        nll += 0.5 * (params.ny * LOG_2PI + logdet) + 0.5 * float(z @ cho_solve(factor, z))
        means.append(mu)
        covs.append(Sigma)
        residuals.append(z)
        pred_covs.append(S)
    return FilterRun(
        filtered_means=np.array(means),
        filtered_covs=np.array(covs),
        residuals=np.array(residuals),
        predictive_covs=np.array(pred_covs),
        predicted_covs=np.array(preds),
        cross_covs=np.array(crosses),
        neg_log_lik=nll,
    )


def reference_smoother(params: ModelParams, run: FilterRun) -> SmootherRun:
    """RTS smoother with every gain and covariance step computed."""
    A, Q = params.A, params.Q
    K, nx = run.horizon, params.nx
    fcovs = dense_filter(run).filtered_covs
    means = np.empty((K + 1, nx))
    covs = np.empty((K + 1, nx, nx))
    gains = np.empty((K, nx, nx))
    means[K] = run.filtered_means[K - 1]
    covs[K] = fcovs[K - 1]
    for k in range(K - 1, -1, -1):
        if k == 0:
            mu_k, Sigma_k = params.mu0, params.Sigma0
        else:
            mu_k, Sigma_k = run.filtered_means[k - 1], fcovs[k - 1]
        P_pred = _sym(A @ Sigma_k @ A.T + Q)
        G = cho_solve(_reference_factor(P_pred, k + 1), A @ Sigma_k).T
        means[k] = mu_k + G @ (means[k + 1] - A @ mu_k)
        covs[k] = _sym(Sigma_k + G @ (covs[k + 1] - P_pred) @ G.T)
        gains[k] = G
    return smoother_run(means, covs, gains)


def reference_simulate(params: ModelParams, K: int, seed, *, noiseless: bool = False) -> Trajectory:
    """`simulate` one step at a time: x_0, then q_k and r_k drawn per step."""
    validate(params)
    nx, ny = params.nx, params.ny
    states = np.empty((K + 1, nx))
    obs = np.empty((K, ny))

    if noiseless:
        states[0] = params.mu0
        for k in range(1, K + 1):
            states[k] = params.A @ states[k - 1]
            obs[k - 1] = params.H @ states[k]
        return Trajectory(states=states, observations=obs)

    rng = np.random.Generator(np.random.PCG64(seed))
    L0 = np.linalg.cholesky(params.Sigma0)
    LQ = np.linalg.cholesky(params.Q)
    LR = np.linalg.cholesky(params.R)
    states[0] = params.mu0 + L0 @ rng.standard_normal(nx)
    for k in range(1, K + 1):
        states[k] = params.A @ states[k - 1] + LQ @ rng.standard_normal(nx)
        obs[k - 1] = params.H @ states[k] + LR @ rng.standard_normal(ny)
    return Trajectory(states=states, observations=obs)


def prox_quadratic_oracle(V, stats, Q, step):
    """Prox of the quadratic term by a direct solve of its vectorized stationarity condition.

    (1/step) Q A + A Phi = Delta + Q V / step, with column-major vec, reads
    [(1/step)(I kron Q) + (Phi^T kron I)] vec(A) = vec(Delta + Q V / step).
    """
    n = Q.shape[0]
    lhs = np.kron(np.eye(n), Q) / step + np.kron(stats.Phi.T, np.eye(n))
    rhs = stats.Delta + Q @ V / step
    return np.linalg.solve(lhs, rhs.reshape(-1, order="F")).reshape((n, n), order="F")


def forward_backward(stats, Q, Omega, A0, max_iter=500_000, tol=1e-14):
    """Proximal-gradient reference solver for the weighted-l1 quadratic."""
    Qinv = np.linalg.inv(Q)
    lips = np.linalg.norm(Qinv, 2) * max(np.linalg.norm(stats.Phi, 2), 1e-12)
    eta = 1.0 / lips
    A = np.array(A0, dtype=float)
    for _ in range(max_iter):
        grad = Qinv @ (A @ stats.Phi - stats.Delta)
        V = A - eta * grad
        A_new = np.sign(V) * np.maximum(np.abs(V) - eta * Omega, 0.0)
        done = np.linalg.norm(A_new - A) <= tol * (1.0 + np.linalg.norm(A))
        A = A_new
        if done:
            break
    return A


def _reference_prox_weighted_l1(V, Omega, step):
    return np.sign(V) * np.maximum(np.abs(V) - step * Omega, 0.0)


class _ReferenceQuadraticProx:
    def __init__(self, stats, Q, step):
        self.step = step
        self.Delta = stats.Delta
        self.Q = Q
        lam, U = np.linalg.eigh(Q)
        m, W = np.linalg.eigh(stats.Phi)
        self._U, self._W = U, W
        self._denom = np.maximum(m, 0.0)[None, :] + lam[:, None] / step

    def __call__(self, V):
        C = self.Delta + self.Q @ V / self.step
        Ct = self._U.T @ C @ self._W
        return self._U @ (Ct / self._denom) @ self._W.T


def _reference_surrogate_value(A, stats, Q, Omega):
    return q_quadratic(A, stats, Q) + float(np.sum(Omega * np.abs(A)))


def reference_douglas_rachford(stats, Q, Omega, A_init, cfg):
    """Douglas-Rachford as the library ran it with a temporary per operation.

    Returns (minimizer, iterations, final_residual, converged).
    """
    curvature = float(np.linalg.eigvalsh(stats.Phi).max()) / float(np.linalg.eigvalsh(Q).min())
    scale = cfg.step if curvature <= 0.0 else cfg.step / curvature
    prox_q = _ReferenceQuadraticProx(stats, Q, scale)
    z = np.array(A_init, dtype=float)
    x_prev = None
    x = z
    residual = math.inf
    converged = False
    n = 0
    for n in range(1, cfg.max_iter + 1):
        x = _reference_prox_weighted_l1(z, Omega, scale)
        y = prox_q(2.0 * x - z)
        z = z + cfg.relaxation * (y - x)
        if x_prev is not None:
            residual = float(np.linalg.norm(x - x_prev))
            if residual <= cfg.tol * (1.0 + float(np.linalg.norm(x_prev))):
                converged = True
                break
        x_prev = x

    if _reference_surrogate_value(x, stats, Q, Omega) > _reference_surrogate_value(A_init, stats, Q, Omega) + 1e-12:
        x = np.array(A_init, dtype=float)
    return x, n, residual, converged


def random_spd(rng, n, scale=1.0):
    B = rng.standard_normal((n, n))
    return scale * (B @ B.T + n * np.eye(n))


def random_stable_params(rng, nx, ny, norm=0.85):
    """Random well-conditioned model with a stable transition matrix."""
    A = rng.standard_normal((nx, nx))
    A *= norm / np.linalg.norm(A, 2)
    H = rng.standard_normal((ny, nx))
    Q = random_spd(rng, nx, scale=0.1 / nx)
    R = random_spd(rng, ny, scale=0.1 / ny)
    Sigma0 = random_spd(rng, nx, scale=0.5 / nx)
    mu0 = rng.standard_normal(nx)
    return ModelParams(A=A, H=H, Q=Q, R=R, mu0=mu0, Sigma0=Sigma0)
