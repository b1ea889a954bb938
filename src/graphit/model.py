"""Linear-Gaussian state-space model: parameters, simulation, sparse generators.

The model is

    x_k = A x_{k-1} + q_k,   q_k ~ N(0, Q)
    y_k = H x_k + r_k,       r_k ~ N(0, R)
    x_0 ~ N(mu0, Sigma0)

All randomness is driven by NumPy's PCG64 generator so that every draw is
reproducible across runs and platforms for a fixed NumPy version.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from ._lapack import dpotrf
from .exceptions import ConfigError, DimensionMismatchError, NonFiniteError, NotPositiveDefiniteError

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Parameter set of the linear-Gaussian state-space model, checked by `validate` when it is built.

    Attributes
    ----------
    A : ndarray (N_x, N_x)
        State transition matrix.
    H : ndarray (N_y, N_x)
        Observation matrix.
    Q : ndarray (N_x, N_x)
        State-noise covariance, symmetric positive semidefinite (see `validate`).
    R : ndarray (N_y, N_y)
        Observation-noise covariance, symmetric positive semidefinite.
    mu0 : ndarray (N_x,)
        Initial state mean.
    Sigma0 : ndarray (N_x, N_x)
        Initial state covariance, symmetric positive semidefinite.
    """

    A: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    mu0: np.ndarray
    Sigma0: np.ndarray

    def __post_init__(self):  # each field as a float array, then the filter's contract, once per model
        for f in fields(self):
            object.__setattr__(self, f.name, real_array(getattr(self, f.name), f.name))
        validate(self)

    def with_A(self, A) -> ModelParams:
        """This model with transition matrix A, which must have `self.A`'s shape and be finite.

        Those are the only rules of `validate` that see A's values, and `copy`, like `pickle`,
        does not rerun `__post_init__`, so no other field is checked again.
        """
        A = check_shape(real_array(A, "A"), self.A.shape, "A")
        _check_finite(A, "A")
        params = copy.copy(self)
        object.__setattr__(params, "A", A)
        return params

    @property
    def nx(self) -> int:
        return self.A.shape[0]

    @property
    def ny(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True)
class Trajectory:
    """A simulated run: states x_0..x_K and observations y_1..y_K."""

    states: np.ndarray        # (K+1, N_x)
    observations: np.ndarray  # (K, N_y)

    @property
    def horizon(self) -> int:
        return self.observations.shape[0]


def is_integer(value) -> bool:
    """An integral number that is not a bool: True is no size, cap or seed."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number that is not a bool: True is no scale, step or threshold."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def real_array(value, name: str) -> np.ndarray:
    """`value` as a float array, itself if it is one; a ConfigError naming it if ragged or not integers or floats."""
    try:
        array = np.asarray(value)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise ConfigError(f"{name} must be an array of real numbers, got a ragged sequence") from None
    if array.dtype.kind not in "iuf":  # bool is no number, as in `is_real`
        raise ConfigError(f"{name} must be an array of real numbers, got dtype {array.dtype}")
    return array.astype(float, copy=False)


def _rng(seed) -> np.random.Generator:
    """The generator of `seed`: an integer >= 0, a SeedSequence or None, else a ConfigError names it."""
    integer = is_integer(seed) and seed >= 0
    if not (integer or seed is None or isinstance(seed, np.random.SeedSequence)):
        raise ConfigError(f"seed must be an integer >= 0, a SeedSequence or None, got {seed!r}")
    # PCG64 is pinned explicitly so simulations are reproducible by contract.
    return np.random.Generator(np.random.PCG64(seed))


def check_count(value, name: str) -> None:
    """Require a size or an iteration cap to be an integer >= 1; the error names it."""
    if not (is_integer(value) and value >= 1):
        raise ConfigError(f"{name} must be >= 1 and an integer, got {value}")


def check_positive(value, name: str) -> None:
    """Require a scale, a step or a tolerance to be finite and > 0; the error names it."""
    if not (is_real(value) and 0 < value < math.inf):
        raise ConfigError(f"{name} must be finite and > 0, got {value}")


def check_support(S, N_x: int, name: str) -> None:
    """Require a support size to be an integer in [1, N_x^2]; the error names it."""
    if not (is_integer(S) and 1 <= S <= N_x * N_x):
        raise ConfigError(f"{name} must be an integer in [1, {N_x * N_x}], got {S}")


def _check_finite(M: np.ndarray, name: str) -> None:
    if not np.isfinite(M).all():
        raise NonFiniteError(f"{name} contains NaN or infinite values")


def check_square(M: np.ndarray, name: str) -> np.ndarray:
    """M, once it is a non-empty square matrix; the error names it."""
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not M.size:
        raise DimensionMismatchError(f"{name} must be a non-empty square matrix, got shape {M.shape}")
    return M


def check_shape(M: np.ndarray, shape: tuple, name: str) -> np.ndarray:
    """M, once it has exactly `shape`; the error names it."""
    if M.shape != shape:
        raise DimensionMismatchError(f"{name} must have shape {shape}, got {M.shape}")
    return M


def _check_covariance(M: np.ndarray, name: str) -> None:
    """Require M, of a checked shape, to be symmetric positive semidefinite; the error names it.

    A Cholesky factorization (about 1 µs at n = 8) that succeeds passes M at
    once: it is backward stable, so M is then a definite matrix up to a
    perturbation of order n^2 ulps of its scale, inside the eigenvalue floor
    below at the sizes a filter runs. Only a matrix it fails on, a singular
    or an indefinite one, pays for the eigenvalues (about 12 µs). Both read
    the lower triangle.
    """
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which the next test reports
        asym = np.max(np.abs(M - M.T))
    if not np.isfinite(asym):
        raise NonFiniteError(f"{name} contains NaN or infinite values")
    if asym > SYMMETRY_TOL:
        raise NotPositiveDefiniteError(f"{name} is not symmetric (max asymmetry {asym:.3e})")
    if not dpotrf(M, lower=1)[1]:
        return
    eigs = np.linalg.eigvalsh(M)
    floor = -SYMMETRY_TOL * max(1.0, float(np.max(np.abs(eigs))))
    if eigs.min() < floor:
        raise NotPositiveDefiniteError(f"{name} is not positive semidefinite (min eigenvalue {eigs.min():.3e})")


def validate(params: ModelParams) -> ModelParams:
    """Check the Kalman filter's contract: shapes, finite fields, and semidefinite covariances.

    A is a non-empty square matrix, H has A's columns and at least one row, and
    Q, R and Sigma0 are symmetric positive semidefinite, so a zero covariance
    passes; `simulate` factors each covariance it samples from, which needs more.

    Parameters
    ----------
    params : ModelParams

    Returns
    -------
    ModelParams
        The same object, returned for chaining.

    Raises
    ------
    DimensionMismatchError
        If a field has the wrong shape; the message names it.
    NonFiniteError
        If any field holds a NaN or an infinity; the message names it.
    NotPositiveDefiniteError
        If Q, R or Sigma0 is not symmetric positive semidefinite; the message names it.
    """
    A, H, Q, R, mu0, Sigma0 = params.A, params.H, params.Q, params.R, params.mu0, params.Sigma0
    check_square(A, "A")
    _check_finite(A, "A")
    nx = A.shape[0]
    if H.ndim != 2 or H.shape[1] != nx or H.shape[0] < 1:
        raise DimensionMismatchError(f"H must have shape (N_y, {nx}) with N_y >= 1, got {H.shape}")
    ny = H.shape[0]
    check_shape(Q, (nx, nx), "Q")
    check_shape(R, (ny, ny), "R")
    check_shape(mu0, (nx,), "mu0")
    check_shape(Sigma0, (nx, nx), "Sigma0")
    _check_finite(H, "H")
    _check_finite(mu0, "mu0")
    _check_covariance(Q, "Q")
    _check_covariance(R, "R")
    _check_covariance(Sigma0, "Sigma0")
    return params


def _cholesky(M: np.ndarray, name: str) -> np.ndarray:
    """The lower Cholesky factor of a covariance that `validate` passed; a NotPositiveDefiniteError names it."""
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(f"{name} is not positive definite (Cholesky failed)") from None


def _each(L: np.ndarray, z: np.ndarray) -> np.ndarray:
    """L z_k for each row z_k of z, as one stacked matrix-vector product."""
    return np.matmul(L, z[:, :, None])[:, :, 0]


def simulate(params: ModelParams, K: int, seed, *, noiseless: bool = False) -> Trajectory:
    """Draw one trajectory of length K from the model.

    Sampling uses the Cholesky factor of each covariance and one draw of
    N_x + K (N_x + N_y) standard normals, consumed in a fixed order (x_0
    first, then q_k, r_k per step), so the result is byte-identical for
    identical (params, K, seed). The drives, the observation noise and the
    observations are each one stacked product; only the state recursion is a
    loop. Peak extra memory is O(K (N_x + N_y)), the order of the trajectory.

    Q, R and Sigma0 are factored once each, in turn, so must be definite. With
    ``noiseless=True`` sampling is skipped entirely: x_0 = mu0 and the recursion
    runs without noise, which permits exactly zero covariances; the seed is still checked.
    """
    check_count(K, "K")
    rng = _rng(seed)
    nx, A = params.nx, params.A
    states = np.empty((K + 1, nx))
    if noiseless:
        states[0] = params.mu0
    else:
        LQ, LR, L0 = (_cholesky(getattr(params, name), name) for name in ("Q", "R", "Sigma0"))
        z = rng.standard_normal(nx + K * (nx + params.ny))
        steps = z[nx:].reshape(K, -1)
        states[0] = params.mu0 + L0 @ z[:nx]
        drives = _each(LQ, steps[:, :nx])
    x = states[0]
    for k in range(K):
        x = states[k + 1] = A @ x if noiseless else A @ x + drives[k]
    obs = _each(params.H, states[1:])
    if not noiseless:
        obs += _each(LR, steps[:, nx:])
    return Trajectory(states=states, observations=obs)


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value of M, computed exactly from its SVD; a vector or a number is one row."""
    M = real_array(M, "M")
    check_shape(M, M.shape[:2], "M")  # at most two axes
    if not np.all(np.isfinite(M)):
        raise ConfigError("spectral_norm requires finite entries")
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(np.atleast_2d(M), 2))


def generate_sparse_A(N_x: int, S: int, target_norm: float = 0.9, seed=0) -> np.ndarray:
    """Random sparse transition matrix with a prescribed spectral norm.

    Exactly S entries, at distinct uniformly-random positions anywhere in the
    N_x x N_x grid (diagonal included), are drawn i.i.d. standard normal; all
    nonzeros are then rescaled by a single common factor so the spectral norm
    equals `target_norm`. Deterministic given the seed.
    """
    check_count(N_x, "N_x")
    check_support(S, N_x, "S")
    check_positive(target_norm, "target_norm")
    rng = _rng(seed)
    flat_idx = rng.choice(N_x * N_x, size=S, replace=False)
    values = rng.standard_normal(S)
    # A zero draw would erase a support position; nudge deterministically.
    values[values == 0.0] = 1.0
    A = np.zeros(N_x * N_x)
    A[flat_idx] = values
    A = A.reshape(N_x, N_x)
    A *= target_norm / spectral_norm(A)
    return A
