"""Property tests for the two-pass Kalman filter and RTS smoother.

On generated models the steady-state shortcut must reproduce the per-step
reference recursion of `oracles.py` to 1e-10, and on short horizons the
dense joint-Gaussian oracles to 1e-8. The generator covers stable and
unstable transition matrices, a tiny initial covariance (1e-8 I, as in the
benchmarks) and Q = 0 with A = I, where the covariances never settle.

A second generator draws badly scaled models (Q and R spread over up to
eight decades, Sigma0 down to 1e-12 I, N_x up to 32) on short horizons;
every covariance the recursions hold must stay symmetric and positive
semidefinite to the rounding of the largest covariance they handle.
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
    dense_filter,
    dense_smoother,
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
    dense, ref_dense = dense_filter(run), dense_filter(ref_filter)
    for field in ("filtered_means", "filtered_covs", "residuals", "predictive_covs", "predicted_covs", "cross_covs"):
        np.testing.assert_allclose(getattr(dense, field), getattr(ref_dense, field), **TOL, err_msg=field)
    dense, ref_dense = dense_smoother(smo), dense_smoother(ref_smoother)
    for field in ("smoothed_means", "smoothed_covs", "gains"):
        np.testing.assert_allclose(getattr(dense, field), getattr(ref_dense, field), **TOL, err_msg=field)
    # Runs cover the horizon, and neighbouring runs hold different pairs.
    assert smo.run_lengths.sum() == run.horizon
    same_cov = (smo.smoothed_covs[1:] == smo.smoothed_covs[:-1]).all(axis=(1, 2))
    assert not (same_cov & (smo.gains[1:] == smo.gains[:-1]).all(axis=(1, 2))).any()
    stats, ref_stats = compute_stats(smo), compute_stats(ref_smoother)
    for field in ("Psi", "Phi", "Delta"):
        np.testing.assert_allclose(getattr(stats, field), getattr(ref_stats, field), **TOL, err_msg=field)

    t = run.steady_step
    if t is not None:
        assert 2 <= t <= run.horizon
        dense = dense_filter(run)
        assert np.all(dense.filtered_covs[t - 1:] == dense.filtered_covs[t - 1])
        assert np.all(dense.predictive_covs[t - 1:] == dense.predictive_covs[t - 1])


@given(problems(max_horizon=6))
def test_matches_dense_oracles_on_short_horizons(problem):
    params, ys = problem
    run = kalman_filter(params, ys)
    smo = rts_smoother(params, run)
    assert run.neg_log_lik == pytest.approx(nll_oracle(params, ys), abs=1e-8)
    means, covs = smoother_oracle(params, ys)
    np.testing.assert_allclose(smo.smoothed_means, means, atol=1e-8)
    np.testing.assert_allclose(dense_smoother(smo).smoothed_covs, covs, atol=1e-8)


# Largest negative eigenvalue allowed, relative to the largest covariance the
# recursions handle. The standard-form update Sigma_k = P_k|k-1 - G_k S_k G_k^T
# rounds at the scale of P_k|k-1; 1e-13 (some 450 ulps) covers N_x <= 32.
PSD_TOL = 1e-13


def _badly_scaled_spd(rng, n, log_scale, spread):
    """Exactly symmetric SPD matrix with eigenvalues 10**(log_scale +- spread/2)."""
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    M = (U * 10.0 ** (log_scale + spread * rng.uniform(-0.5, 0.5, n))) @ U.T
    return 0.5 * (M + M.T)


def _badly_scaled_model(seed, nx, ny, radius, log_q, spread_q, log_r, spread_r, log_sigma0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((nx, nx))
    A *= radius / np.max(np.abs(np.linalg.eigvals(A)))
    return ModelParams(
        A=A,
        H=rng.standard_normal((ny, nx)),
        Q=_badly_scaled_spd(rng, nx, log_q, spread_q),
        R=_badly_scaled_spd(rng, ny, log_r, spread_r),
        mu0=rng.standard_normal(nx),
        Sigma0=10.0 ** log_sigma0 * np.eye(nx),
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(1, 32),
    ny=st.integers(1, 32),
    K=st.integers(1, 12),
    radius=st.floats(0.1, 1.2),
    log_q=st.floats(-8.0, 2.0),
    spread_q=st.floats(0.0, 8.0),
    log_r=st.floats(-8.0, 2.0),
    spread_r=st.floats(0.0, 8.0),
    log_sigma0=st.floats(-12.0, 0.0),
)
def test_covariances_stay_symmetric_psd(seed, nx, ny, K, radius, log_q, spread_q, log_r, spread_r, log_sigma0):
    params = _badly_scaled_model(seed, nx, ny, radius, log_q, spread_q, log_r, spread_r, log_sigma0)
    ys = np.random.default_rng(seed).standard_normal((K, ny))
    try:
        run = kalman_filter(params, ys)
        smo = rts_smoother(params, run)
    except SingularPredictiveCovarianceError:
        return  # the condition guard refused the model: a typed failure, not a lost PSD
    scale = max(np.linalg.eigvalsh(C)[-1] for C in [params.Sigma0, *run.predicted_covs])
    held = {
        "filtered": run.filtered_covs,
        "predicted": run.predicted_covs,
        "smoothed": [smo.initial_cov, *smo.smoothed_covs],
    }
    for name, covs in held.items():
        for j, C in enumerate(covs):
            assert np.array_equal(C, C.T), (name, j)
            assert np.linalg.eigvalsh(C)[0] >= -PSD_TOL * scale, (name, j)


def test_filtered_covariance_psd_at_its_own_scale():
    # Q with eigenvalues up to 1e5 observed through R down to 1e-10 (N_y > N_x):
    # Sigma_1 is about 1e-12 of P_1|0. The standard update P - G S G^T rounds
    # it at the scale of P_1|0 and gave it an eigenvalue of -1.1e-11 against a
    # largest one of 6.9e-8; the Joseph form keeps it PSD at its own scale.
    params = _badly_scaled_model(155, 4, 5, 0.5, 2.0, 6.0, -8.0, 4.0, 0.0)
    run = kalman_filter(params, np.zeros((10, 5)))
    for C in run.filtered_covs:
        eigs = np.linalg.eigvalsh(C)
        assert eigs[0] >= -1e-8 * eigs[-1]
