"""Douglas-Rachford splitting for the weighted-l1 penalized quadratic.

The inner problem at each outer iteration is

    minimize_A  q(A) + ||Omega . A||_1,
    q(A) = 1/2 tr(Q^{-1} (Psi - Delta A^T - A Delta^T + A Phi A^T)),

with . the entrywise product. Both proximal maps are exact: the l1 part is
entrywise soft-thresholding, the quadratic part a Sylvester-type positive
definite linear solve, diagonalized by the symmetric eigendecompositions of Q
and Phi for every Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .em_stats import EMStats, q_quadratic


@dataclass(frozen=True)
class DRConfig:
    """Splitting parameters.

    `step` is a dimensionless prox scale relative to the curvature of the
    quadratic term: the internal proximal parameter is
    step / (lambda_max(Phi) / lambda_min(Q)). The minimizer does not depend
    on it, but convergence speed does; the default 1 keeps the two proximal
    maps balanced across problem scales.
    """

    step: float = 1.0
    relaxation: float = 1.0
    tol: float = 1e-6
    max_iter: int = 1000

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError(f"step must be > 0, got {self.step}")
        if not 0.0 < self.relaxation < 2.0:
            raise ValueError(f"relaxation must be in (0, 2), got {self.relaxation}")
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class SolverReport:
    minimizer: np.ndarray
    iterations: int
    final_residual: float
    converged: bool


def prox_weighted_l1(V: np.ndarray, Omega: np.ndarray, step: float) -> np.ndarray:
    """Entrywise soft-thresholding at thresholds step * Omega."""
    return np.sign(V) * np.maximum(np.abs(V) - step * Omega, 0.0)


class _QuadraticProx:
    """Proximal map of q at scale `step`, with factorizations precomputed.

    The stationarity condition Q^{-1} A Phi + A/step = Q^{-1} Delta + V/step
    becomes, after left-multiplying by Q,

        (1/step) Q A + A Phi = Delta + Q V / step.

    With Q = U diag(lam) U^T and Phi = W diag(m) W^T, the change of basis
    A = U X W^T turns it into the entrywise division
    X_ij = (U^T C W)_ij / (lam_i / step + m_j), C the right-hand side.
    """

    def __init__(self, stats: EMStats, Q: np.ndarray, step: float):
        self.step = step
        self.Delta = stats.Delta
        self.Q = Q
        lam, U = np.linalg.eigh(Q)
        m, W = np.linalg.eigh(stats.Phi)
        self._U, self._W = U, W
        self._denom = np.maximum(m, 0.0)[None, :] + lam[:, None] / step

    def __call__(self, V: np.ndarray) -> np.ndarray:
        C = self.Delta + self.Q @ V / self.step
        Ct = self._U.T @ C @ self._W
        return self._U @ (Ct / self._denom) @ self._W.T


def prox_quadratic(V: np.ndarray, stats: EMStats, Q: np.ndarray, step: float) -> np.ndarray:
    """Proximal map of the quadratic term: argmin_A q(A) + ||A - V||_F^2 / (2 step)."""
    return _QuadraticProx(stats, Q, step)(V)


def surrogate_value(A: np.ndarray, stats: EMStats, Q: np.ndarray, Omega: np.ndarray) -> float:
    """Full inner objective q(A) + ||Omega . A||_1."""
    return q_quadratic(A, stats, Q) + float(np.sum(Omega * np.abs(A)))


def effective_prox_scale(stats: EMStats, Q: np.ndarray, cfg: DRConfig) -> float:
    """Internal proximal parameter: cfg.step divided by the quadratic's curvature."""
    curvature = float(np.linalg.eigvalsh(stats.Phi).max()) / float(np.linalg.eigvalsh(Q).min())
    if curvature <= 0.0:
        return cfg.step
    return cfg.step / curvature


def douglas_rachford(
    stats: EMStats,
    Q: np.ndarray,
    Omega: np.ndarray,
    A_init: np.ndarray,
    cfg: DRConfig = DRConfig(),
) -> SolverReport:
    """Minimize the weighted-l1 penalized quadratic by Douglas-Rachford.

    The driver iterate z starts at A_init; each sweep computes
    x = prox_l1(z), then z += relaxation * (prox_quad(2x - z) - x), and stops
    once ||x_n - x_{n-1}||_F <= tol * (1 + ||x_{n-1}||_F) or at max_iter.

    The returned minimizer is guaranteed not to have a larger inner objective
    than A_init (up to 1e-12): if the final iterate does, A_init is returned
    instead, which keeps the outer descent property unconditional under
    inexact solves.
    """
    scale = effective_prox_scale(stats, Q, cfg)
    prox_q = _QuadraticProx(stats, Q, scale)
    z = np.array(A_init, dtype=float)
    x_prev = None
    x = z
    residual = math.inf
    converged = False
    n = 0
    for n in range(1, cfg.max_iter + 1):
        x = prox_weighted_l1(z, Omega, scale)
        y = prox_q(2.0 * x - z)
        z = z + cfg.relaxation * (y - x)
        if x_prev is not None:
            residual = float(np.linalg.norm(x - x_prev))
            if residual <= cfg.tol * (1.0 + float(np.linalg.norm(x_prev))):
                converged = True
                break
        x_prev = x

    if surrogate_value(x, stats, Q, Omega) > surrogate_value(A_init, stats, Q, Omega) + 1e-12:
        x = np.array(A_init, dtype=float)
    return SolverReport(minimizer=x, iterations=n, final_residual=residual, converged=converged)
