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

Q enters the bound through Q^{-1} and the M-step's prox through Q's
eigendecomposition. `QFactors.of` is the only code that checks Q's values and
factors it, once per fit; the bound and the Douglas-Rachford solver take its factors.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ._lapack import dpotrf, dpotrs
from .exceptions import ConfigError, NonFiniteError, NotPositiveDefiniteError
from .kalman import SmootherRun
from .model import check_shape, check_square, real_array


@dataclass(frozen=True)
class EMStats:
    Psi: np.ndarray    # (N_x, N_x)
    Phi: np.ndarray    # (N_x, N_x), symmetric PSD
    Delta: np.ndarray  # (N_x, N_x)

    def __post_init__(self):  # each field as a float array, all three of Psi's square shape
        for f in fields(self):
            object.__setattr__(self, f.name, real_array(getattr(self, f.name), f.name))
        shape = check_square(self.Psi, "Psi").shape
        check_shape(self.Phi, shape, "Phi")
        check_shape(self.Delta, shape, "Delta")


def compute_stats(smoother: SmootherRun) -> EMStats:
    """Accumulate Psi, Phi, Delta from a smoother run with K >= 1 steps.

    A run may be built by hand, so its fields are checked first, each made a
    float array by `real_array`. The means fix K and initial_cov fixes N_x;
    the r run lengths must be integers >= 1 that sum to K, and smoothed_covs
    and gains must hold r matrices of N_x by N_x. The error names the field.
    """
    means = real_array(smoother.smoothed_means, "smoothed_means")
    K = len(means) - 1 if means.ndim else 0
    if K < 1:
        raise ConfigError("smoother run must cover at least one step")
    initial_cov = check_square(real_array(smoother.initial_cov, "initial_cov"), "initial_cov")
    n = len(initial_cov)
    check_shape(means, (K + 1, n), "smoothed_means")
    counts = real_array(smoother.run_lengths, "run_lengths")
    runs = check_shape(counts, (counts.size,), "run_lengths").size
    if not (counts.sum() == K and counts.min() >= 1 and (counts == np.floor(counts)).all()):
        raise ConfigError(f"run_lengths must be integers >= 1 that sum to K = {K}, got {smoother.run_lengths}")
    covs = check_shape(real_array(smoother.smoothed_covs, "smoothed_covs"), (runs, n, n), "smoothed_covs")
    gains = check_shape(real_array(smoother.gains, "gains"), (runs, n, n), "gains")

    cov_sum = (counts @ covs.reshape(runs, -1)).reshape(n, n)
    Psi = cov_sum + means[1:].T @ means[1:]
    # Phi's covariances are Sigma_0^s..Sigma_{K-1}^s: Psi's without Sigma_K^s, with Sigma_0^s.
    Phi = initial_cov + (cov_sum - covs[-1]) + means[:-1].T @ means[:-1]
    # sum_r count_r Sigma_r G_r^T as one product over the stacked (run, column) axis.
    weighted = (counts[:, None, None] * covs).transpose(1, 0, 2).reshape(n, -1)
    Delta = weighted @ gains.transpose(0, 2, 1).reshape(-1, n) + means[1:].T @ means[:-1]
    return EMStats(Psi=Psi, Phi=0.5 * (Phi + Phi.T), Delta=Delta)


@dataclass(frozen=True)
class QFactors:
    """The factorizations of Q that every M-step of one fit shares, and the only check of Q's values.

    Q = U diag(lam) U^T, and `cholesky` is Q's lower Cholesky factor by `dpotrf`,
    which factors a NaN without complaint: hence the finite check first.
    """

    lam: np.ndarray
    U: np.ndarray
    cholesky: np.ndarray

    @classmethod
    def of(cls, Q: np.ndarray) -> QFactors:
        Q = check_square(real_array(Q, "Q"), "Q")
        if not np.isfinite(Q).all():
            raise NonFiniteError("Q is not finite, which the M-step needs")
        cholesky, info = dpotrf(Q, lower=1)
        if info:
            raise NotPositiveDefiniteError("Q is not positive definite, which the M-step needs")
        lam, U = np.linalg.eigh(Q)
        return cls(lam=lam, U=U, cholesky=cholesky)


def q_quadratic(A: np.ndarray, stats: EMStats, Q: np.ndarray) -> float:
    """Quadratic transition term of the EM bound.

    Returns 1/2 tr(Q^{-1} (Psi - Delta A^T - A Delta^T + A Phi A^T)),
    evaluated through a Cholesky solve against Q by `dpotrs`.
    """
    q_factors = QFactors.of(Q)
    check_shape(q_factors.U, stats.Psi.shape, "Q")
    return _q_value(check_shape(real_array(A, "A"), stats.Psi.shape, "A"), stats, q_factors)


def _q_value(A: np.ndarray, stats: EMStats, q_factors: QFactors) -> float:
    """`q_quadratic` without its checks: A is a float array of Psi's shape, and so are Q's factors."""
    # A Delta^T is (Delta A^T)^T bit for bit, and `ndarray.dot` makes `@`'s BLAS products.
    cross = stats.Delta.dot(A.T)
    inner = stats.Psi - cross - cross.T + A.dot(stats.Phi).dot(A.T)
    if not np.isfinite(inner).all():
        raise NonFiniteError("the quadratic term of the EM bound is not finite")
    return 0.5 * float(np.trace(dpotrs(q_factors.cholesky, inner, lower=1)[0]))
