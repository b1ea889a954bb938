"""Douglas-Rachford splitting for the weighted-l1 penalized quadratic.

The inner problem at each outer iteration is

    minimize_A  q(A) + ||Omega . A||_1,
    q(A) = 1/2 tr(Q^{-1} (Psi - Delta A^T - A Delta^T + A Phi A^T)),

with . the entrywise product. Both proximal maps are exact: the l1 part is
entrywise soft-thresholding, V - clip(V, -t, t); the quadratic part is a
Sylvester-type positive definite linear solve, diagonalized by the symmetric
eigendecompositions of Q and Phi for every Q.

Q is fixed for a whole fit, so `graphit` factors it once (`em_stats.QFactors`,
the only code that checks Q's values and factors Q: its eigendecomposition and Cholesky
factor) and each solve adds one eigh(Phi).
In those eigenbases the quadratic prox is y = U (G . (U^T v W) + B) W^T with
G and B fixed for the solve, so a sweep is four small matrix products plus
entrywise passes over preallocated buffers.

`douglas_rachford_lockstep` solves several problems with one Q at once: one
prox holds them all as a stack, each sweep runs once over the whole stack,
and each problem stops by its own test, after as many sweeps as alone; a
problem that has stopped keeps its slice until the last one stops.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .em_stats import EMStats, QFactors, q_quadratic
from .exceptions import ConfigError, attempt
from .model import check_count, check_positive, check_shape, is_real, real_array


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
        check_positive(self.step, "step")
        if not (is_real(self.relaxation) and 0.0 < self.relaxation < 2.0):
            raise ConfigError(f"relaxation must be in (0, 2), got {self.relaxation}")
        check_positive(self.tol, "tol")
        check_count(self.max_iter, "max_iter")


@dataclass(frozen=True)
class SolverReport:
    """`fell_back`: the last iterate's inner objective exceeded A_init's, so A_init is the minimizer."""

    minimizer: np.ndarray
    iterations: int
    final_residual: float
    converged: bool
    fell_back: bool


def _clip(V: np.ndarray, t: np.ndarray, neg_t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """clip(V, -t, t) for t >= 0, in two ufunc passes (np.clip costs about three times as much)."""
    out = np.minimum(V, t, out=out)
    return np.maximum(out, neg_t, out=out)


def check_weights(Omega, shape: tuple) -> np.ndarray:
    """The l1 weights as a float array of `shape`, finite and >= 0: only then is the l1 prox a soft threshold."""
    Omega = check_shape(real_array(Omega, "Omega"), shape, "Omega")
    if Omega.size and not (Omega.min() >= 0 and Omega.max() < math.inf):
        raise ConfigError("Omega must be finite and >= 0")
    return Omega


def prox_weighted_l1(V: np.ndarray, Omega: np.ndarray, step: float) -> np.ndarray:
    """Entrywise soft-thresholding at thresholds step * Omega."""
    V = real_array(V, "V")
    Omega = check_weights(Omega, V.shape)
    check_positive(step, "step")
    t = step * Omega
    return V - _clip(V, t, -t)


class _QuadraticProx:
    """Proximal map of q at scale `step`, with factorizations precomputed.

    The stationarity condition Q^{-1} A Phi + A/step = Q^{-1} Delta + V/step
    becomes, after left-multiplying by Q,

        (1/step) Q A + A Phi = Delta + Q V / step.

    With Q = U diag(lam) U^T and Phi = W diag(m) W^T, the change of basis
    A = U X W^T turns it into X = G . (U^T V W) + B, with
    denom_ij = lam_i / step + m_j, G_ij = (lam_i / step) / denom_ij and
    B = (U^T Delta W) / denom: four matrix products per application.

    `Delta`, `m`, `W` and `step` may carry a leading stack axis, one slice per
    solve with this Q, and the map then applies to a stack of points. Stacked
    products compute each slice by the BLAS call that one solve's `np.dot`
    makes, so each slice is its lone value; `np.dot` dispatches faster.
    """

    def __init__(self, Delta: np.ndarray, lam, U, m, W, step):
        scaled = lam[:, None] / np.asarray(step)[..., None, None]
        denom = np.maximum(m, 0.0)[..., None, :] + scaled
        self._product = np.dot if W.ndim == 2 else np.matmul
        # Contiguous transposes: a product with a transposed view costs about 20% more at n = 32.
        self._U, self._Ut = U, np.ascontiguousarray(U.T)
        self._W, self._Wt = W, np.ascontiguousarray(np.swapaxes(W, -1, -2))
        self._G = scaled / denom
        self._B = (self._Ut @ Delta @ W) / denom
        self._left, self._inner = np.empty_like(denom), np.empty_like(denom)

    def __call__(self, V: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        product = self._product
        product(self._Ut, V, out=self._left)
        inner = product(self._left, self._W, out=self._inner)
        inner *= self._G
        inner += self._B
        product(self._U, inner, out=self._left)
        return product(self._left, self._Wt, out=out)


def prox_quadratic(V: np.ndarray, stats: EMStats, Q: np.ndarray, step: float) -> np.ndarray:
    """Proximal map of the quadratic term: argmin_A q(A) + ||A - V||_F^2 / (2 step)."""
    q_factors = QFactors.of(Q)
    check_shape(q_factors.U, stats.Psi.shape, "Q")
    V = check_shape(real_array(V, "V"), stats.Psi.shape, "V")
    m, W = np.linalg.eigh(stats.Phi)
    return _QuadraticProx(stats.Delta, q_factors.lam, q_factors.U, m, W, step)(V)


def surrogate_value(
    A: np.ndarray, stats: EMStats, Q: np.ndarray, Omega: np.ndarray, q_factors: QFactors | None = None
) -> float:
    """Full inner objective q(A) + ||Omega . A||_1 (`q_factors` as in `q_quadratic`)."""
    Omega = check_shape(real_array(Omega, "Omega"), stats.Psi.shape, "Omega")
    return q_quadratic(A, stats, Q, q_factors) + float(np.sum(Omega * np.abs(A)))


def _setup(stats: EMStats, Omega: np.ndarray, A_init: np.ndarray, cfg: DRConfig, q_factors: QFactors) -> tuple:
    """Of a solve whose Q, A_init and Omega have Psi's shape: Phi's (m, W), the prox scale (`DRConfig`), thresholds."""
    check_shape(q_factors.U, stats.Psi.shape, "Q")
    check_shape(A_init, stats.Psi.shape, "A_init")
    Omega = check_weights(Omega, stats.Psi.shape)
    m, W = np.linalg.eigh(stats.Phi)
    curvature = float(m.max()) / float(q_factors.lam.min())
    scale = cfg.step if curvature <= 0.0 else cfg.step / curvature
    return m, W, scale, scale * Omega


def _sweep(z, t, neg_t, prox_q, relaxation, c, v, y, x) -> None:
    """One sweep in place: x = prox_l1(z), then z += relaxation * (prox_quad(2x - z) - x).

    With c = clip(z, -t, t), x = z - c and 2x - z = x - c. Every step is
    entrywise or the prox's, so the sweep serves one problem or a stack alike.
    """
    _clip(z, t, neg_t, out=c)
    np.subtract(z, c, out=x)
    np.subtract(x, c, out=v)
    prox_q(v, out=y)
    if relaxation == 1.0:
        np.add(c, y, out=z)
    else:
        np.subtract(y, x, out=y)
        y *= relaxation
        np.add(c, x, out=z)
        z += y


def _report(x, iterations, residual, converged, stats, Q, Omega, A_init, q_factors) -> SolverReport:
    """The report of a finished solve, with A_init in place of an x whose inner objective is worse."""
    fell_back = (
        surrogate_value(x, stats, Q, Omega, q_factors) > surrogate_value(A_init, stats, Q, Omega, q_factors) + 1e-12
    )
    if fell_back:
        x = np.array(A_init, dtype=float)
    return SolverReport(
        minimizer=x, iterations=iterations, final_residual=residual, converged=converged, fell_back=fell_back
    )


def douglas_rachford(
    stats: EMStats,
    Q: np.ndarray,
    Omega: np.ndarray,
    A_init: np.ndarray,
    cfg: DRConfig = DRConfig(),
    q_factors: QFactors | None = None,
) -> SolverReport:
    """Minimize the weighted-l1 penalized quadratic by Douglas-Rachford.

    The driver iterate z starts at A_init; each sweep computes
    x = prox_l1(z), then z += relaxation * (prox_quad(2x - z) - x), and stops
    once ||x_n - x_{n-1}||_F <= tol * (1 + ||x_{n-1}||_F) or at max_iter.

    The returned minimizer is guaranteed not to have a larger inner objective
    than A_init (up to 1e-12): if the final iterate does, A_init is returned
    instead and the report says it fell back, which keeps the outer descent
    property unconditional under inexact solves.

    `q_factors`, Q's factorizations, lets a caller that solves many problems
    with one Q factor it once; they are computed here when absent.
    """
    if q_factors is None:
        q_factors = QFactors.of(Q)
    A_init = real_array(A_init, "A_init")
    m, W, scale, t = _setup(stats, Omega, A_init, cfg, q_factors)
    prox_q = _QuadraticProx(stats.Delta, q_factors.lam, q_factors.U, m, W, scale)
    neg_t = -t
    z = A_init.copy()
    c, v, y, x, x_prev = (np.empty_like(z) for _ in range(5))
    norm_prev = 0.0
    residual = math.inf
    converged = False
    n = 0
    for n in range(1, cfg.max_iter + 1):
        x, x_prev = x_prev, x
        _sweep(z, t, neg_t, prox_q, cfg.relaxation, c, v, y, x)
        if n > 1:
            np.subtract(x, x_prev, out=v)
            residual = math.sqrt(np.vdot(v, v))
            if residual <= cfg.tol * (1.0 + norm_prev):
                converged = True
                break
        norm_prev = math.sqrt(np.vdot(x, x))
    return _report(x, n, residual, converged, stats, Q, Omega, A_init, q_factors)


def _norms(V: np.ndarray) -> np.ndarray:
    """sqrt(np.vdot(v, v)) of each slice v of a stack, in one call.

    A stacked product of each flattened slice by itself makes, per slice, the
    `ddot` call that `np.vdot` makes, so each norm has the 2-D norm's bits; a
    stacked sum of squares would round differently.
    """
    rows = V.reshape(len(V), 1, -1)
    return np.sqrt(np.matmul(rows, rows.transpose(0, 2, 1))[:, 0, 0])


def douglas_rachford_lockstep(
    problems: Sequence[tuple[EMStats, np.ndarray, np.ndarray]],
    Q: np.ndarray,
    cfg: DRConfig,
    q_factors: QFactors,
) -> list:
    """`douglas_rachford` of each problem (stats, Omega, A_init), all with one Q, in lockstep.

    Each sweep runs once over the stack of all the problems, with the 2-D
    sweep's operations, so each slice takes the 2-D values (see
    `_QuadraticProx` and `_norms`). A problem is recorded at the sweep where it
    meets its tolerance, so each stops after as many sweeps as it would alone;
    its slice sweeps on, unread, until none is left running. Each
    entry is the SolverReport of its problem, or the error in `FIT_ERRORS`
    that `douglas_rachford` raises there.
    """
    reports = [attempt(_setup, stats, Omega, A_init, cfg, q_factors) for stats, Omega, A_init in problems]
    live = [j for j, setup in enumerate(reports) if not isinstance(setup, Exception)]
    if not live:
        return reports
    m, W, scale, t = (np.array(stack) for stack in zip(*(reports[j] for j in live)))
    Delta = np.array([problems[j][0].Delta for j in live])
    prox_q = _QuadraticProx(Delta, q_factors.lam, q_factors.U, m, W, scale)
    neg_t = -t

    z = np.array([problems[j][2] for j in live], dtype=float)
    c, v, y, x, x_prev = (np.empty_like(z) for _ in range(5))
    norms = residuals = np.full(len(live), math.inf)
    running = np.ones(len(live), dtype=bool)
    finished = {}  # problem -> (x, iterations, residual, converged)
    for n in range(1, cfg.max_iter + 1):
        x, x_prev = x_prev, x
        _sweep(z, t, neg_t, prox_q, cfg.relaxation, c, v, y, x)
        if n > 1:
            np.subtract(x, x_prev, out=v)
            residuals = _norms(v)
            done = residuals <= cfg.tol * (1.0 + norms)
            done &= running
            if done.any():
                for row in np.flatnonzero(done):
                    finished[live[row]] = (x[row].copy(), n, float(residuals[row]), True)
                running &= ~done
                if not running.any():
                    break
        norms = _norms(x)
    for row in np.flatnonzero(running):
        finished[live[row]] = (x[row].copy(), cfg.max_iter, float(residuals[row]), False)

    for j, (x, n, residual, converged) in finished.items():
        stats, Omega, A_init = problems[j]
        reports[j] = _report(x, n, residual, converged, stats, Q, Omega, A_init, q_factors)
    return reports
