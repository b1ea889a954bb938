"""Property tests for the two-pass Kalman filter and RTS smoother.

On generated models the steady-state shortcut must reproduce the per-step
reference recursion of `oracles.py` to 1e-10, and on short horizons the
dense joint-Gaussian oracles to 1e-8. The generator covers stable and
unstable transition matrices, a tiny initial covariance (1e-8 I, as in the
benchmarks) and Q = 0 with A = I, where the covariances never settle.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphit import (
    ModelParams,
    SingularPredictiveCovarianceError,
    compute_stats,
    kalman_filter,
    rts_smoother,
)

from oracles import (
    nll_oracle,
    random_spd,
    reference_filter,
    reference_smoother,
    smoother_oracle,
)

TOL = dict(rtol=1e-10, atol=1e-10)


@st.composite
def problems(draw, max_horizon=1000):
    """(params, observations) with N_x, N_y in 1..4 and K in 1..max_horizon."""
    nx = draw(st.integers(1, 4))
    ny = draw(st.integers(1, 4))
    K = draw(st.integers(1, max_horizon))
    kind = draw(st.sampled_from(["stable", "unstable", "noiseless-identity"]))
    tiny_prior = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    if kind == "noiseless-identity":
        A, Q = np.eye(nx), np.zeros((nx, nx))
    else:
        radius = draw(st.floats(0.1, 0.99) if kind == "stable" else st.floats(1.01, 1.2))
        A = rng.standard_normal((nx, nx))
        A *= radius / np.max(np.abs(np.linalg.eigvals(A)))
        Q = random_spd(rng, nx, scale=0.1 / nx)
    params = ModelParams(
        A=A,
        H=rng.standard_normal((ny, nx)),
        Q=Q,
        R=random_spd(rng, ny, scale=0.1 / ny),
        mu0=rng.standard_normal(nx),
        Sigma0=1e-8 * np.eye(nx) if tiny_prior else random_spd(rng, nx, scale=0.5 / nx),
    )
    return params, rng.standard_normal((K, ny))


@given(problems())
def test_two_pass_matches_per_step_reference(problem):
    params, ys = problem
    try:
        ref_filter = reference_filter(params, ys)
        ref_smoother = reference_smoother(params, ref_filter)
    except SingularPredictiveCovarianceError:
        with pytest.raises(SingularPredictiveCovarianceError):
            rts_smoother(params, kalman_filter(params, ys))
        return

    run = kalman_filter(params, ys)
    smo = rts_smoother(params, run)
    assert run.neg_log_lik == pytest.approx(ref_filter.neg_log_lik, rel=1e-10, abs=1e-10)
    for field in ("filtered_means", "filtered_covs", "residuals", "predictive_covs"):
        np.testing.assert_allclose(getattr(run, field), getattr(ref_filter, field), **TOL, err_msg=field)
    for field in ("smoothed_means", "smoothed_covs", "gains"):
        np.testing.assert_allclose(getattr(smo, field), getattr(ref_smoother, field), **TOL, err_msg=field)
    stats, ref_stats = compute_stats(smo), compute_stats(ref_smoother)
    for field in ("Psi", "Phi", "Delta"):
        np.testing.assert_allclose(getattr(stats, field), getattr(ref_stats, field), **TOL, err_msg=field)

    t = run.steady_step
    if t is not None:
        assert 2 <= t <= run.horizon
        assert np.all(run.filtered_covs[t - 1:] == run.filtered_covs[t - 1])
        assert np.all(run.predictive_covs[t - 1:] == run.predictive_covs[t - 1])


@given(problems(max_horizon=6))
def test_matches_dense_oracles_on_short_horizons(problem):
    params, ys = problem
    run = kalman_filter(params, ys)
    smo = rts_smoother(params, run)
    assert run.neg_log_lik == pytest.approx(nll_oracle(params, ys), abs=1e-8)
    means, covs = smoother_oracle(params, ys)
    np.testing.assert_allclose(smo.smoothed_means, means, atol=1e-8)
    np.testing.assert_allclose(smo.smoothed_covs, covs, atol=1e-8)
