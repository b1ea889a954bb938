"""Smoothed second-moment statistics and the quadratic bound they induce.

From a smoother run at the current transition matrix, three matrix sums
summarize everything the transition update needs:

    Psi   = sum_{k=1}^K  E[x_k x_k^T     | y]
    Phi   = sum_{k=1}^K  E[x_{k-1} x_{k-1}^T | y]
    Delta = sum_{k=1}^K  E[x_k x_{k-1}^T | y]

with the smoothed cross term E[x_k x_{k-1}^T | y] given exactly by
Sigma_k^s G_{k-1}^T + mu_k^s (mu_{k-1}^s)^T. These feed a convex quadratic
that upper-bounds the negative log-likelihood up to an additive constant,
with equality at the matrix the smoother was run with.

The covariance parts are summed over the smoother's runs of consecutive
steps with the same (Sigma_k^s, G_{k-1}) pair: each pair enters once,
weighted by the length of its run, in one product over all runs. A smoother
run whose covariances settle has a few dozen runs whatever K; when they
never settle, every step is a run of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .kalman import SmootherRun


@dataclass(frozen=True)
class EMStats:
    Psi: np.ndarray    # (N_x, N_x)
    Phi: np.ndarray    # (N_x, N_x), symmetric PSD
    Delta: np.ndarray  # (N_x, N_x)


def compute_stats(smoother: SmootherRun) -> EMStats:
    """Accumulate Psi, Phi, Delta from a smoother run with K >= 1 steps."""
    means = smoother.smoothed_means
    covs, gains = smoother.smoothed_covs, smoother.gains
    if smoother.horizon < 1:
        raise ValueError("smoother run must cover at least one step")

    runs, n = covs.shape[0], covs.shape[1]
    counts = smoother.run_lengths.astype(float)
    cov_sum = (counts @ covs.reshape(runs, -1)).reshape(n, n)

    Psi = cov_sum + means[1:].T @ means[1:]
    # Phi's covariances are Sigma_0^s..Sigma_{K-1}^s: Psi's without Sigma_K^s, with Sigma_0^s.
    Phi = smoother.initial_cov + (cov_sum - covs[-1]) + means[:-1].T @ means[:-1]
    # sum_r count_r Sigma_r G_r^T as one product over the stacked (run, column) axis.
    weighted = (counts[:, None, None] * covs).transpose(1, 0, 2).reshape(n, -1)
    Delta = weighted @ gains.transpose(0, 2, 1).reshape(-1, n) + means[1:].T @ means[:-1]
    return EMStats(Psi=Psi, Phi=0.5 * (Phi + Phi.T), Delta=Delta)


def q_quadratic(A: np.ndarray, stats: EMStats, Q: np.ndarray, Q_cholesky: tuple | None = None) -> float:
    """Quadratic transition term of the EM bound.

    Returns 1/2 tr(Q^{-1} (Psi - Delta A^T - A Delta^T + A Phi A^T)),
    evaluated through a Cholesky solve against Q. A caller holding
    `Q_cholesky = cho_factor(Q, lower=True)` passes it to skip the factorization.
    """
    if Q_cholesky is None:
        Q_cholesky = cho_factor(Q, lower=True)
    inner = stats.Psi - stats.Delta @ A.T - A @ stats.Delta.T + A @ stats.Phi @ A.T
    return 0.5 * float(np.trace(cho_solve(Q_cholesky, inner)))
