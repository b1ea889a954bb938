import re
import tracemalloc

import numpy as np
import pytest

from graphit import (
    ConfigError,
    DimensionMismatchError,
    GraphitError,
    ModelParams,
    NonFiniteError,
    Potential,
    SingularPredictiveCovarianceError,
    compute_stats,
    kalman_filter,
    rts_smoother,
    simulate,
)
from graphit.algorithms import EstimatorConfig, graphit, graphit_lockstep
from graphit.kalman import _double, _steps

from oracles import dense_filter, dense_smoother, nll_oracle, random_stable_params, smoother_oracle


def _scalar_params(A=1.0, H=1.0, Q=0.0, R=1.0, mu0=0.0, Sigma0=1.0):
    shape = lambda v: np.array([[float(v)]])
    return ModelParams(
        A=shape(A), H=shape(H), Q=shape(Q), R=shape(R),
        mu0=np.array([float(mu0)]), Sigma0=shape(Sigma0),
    )


class TestKalmanFilter:
    def test_hand_computed_scalar_step(self):
        params = _scalar_params()
        run = kalman_filter(params, np.array([[1.0]]))
        dense = dense_filter(run)
        assert dense.predictive_covs[0, 0, 0] == pytest.approx(2.0, abs=1e-12)
        assert run.residuals[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert run.filtered_means[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert dense.filtered_covs[0, 0, 0] == pytest.approx(0.5, abs=1e-12)
        expected_nll = 0.5 * np.log(4.0 * np.pi) + 0.25
        assert run.neg_log_lik == pytest.approx(expected_nll, abs=1e-12)

    def test_zero_observation_matrix_gives_pure_prediction(self):
        rng = np.random.default_rng(0)
        params = random_stable_params(rng, nx=3, ny=2)
        params = ModelParams(**{**params.__dict__, "H": np.zeros((2, 3))})
        ys = rng.standard_normal((5, 2))
        run = kalman_filter(params, ys)
        expected = params.mu0
        for k in range(5):
            expected = params.A @ expected
            np.testing.assert_allclose(run.filtered_means[k], expected, atol=1e-12)

    def test_outputs_well_posed(self):
        rng = np.random.default_rng(5)
        params = random_stable_params(rng, nx=4, ny=3)
        traj = simulate(params, K=200, seed=2)
        run = kalman_filter(params, traj.observations)
        assert np.isfinite(run.neg_log_lik)
        dense = dense_filter(run)
        for S in dense.predictive_covs:
            assert np.all(np.linalg.eigvalsh(S) > 0)
        for Sigma in dense.filtered_covs:
            assert np.max(np.abs(Sigma - Sigma.T)) <= 1e-10

    def test_matches_dense_joint_likelihood(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            nx = int(rng.integers(1, 4))
            ny = int(rng.integers(1, 4))
            K = int(rng.integers(1, 30 // nx))
            params = random_stable_params(rng, nx=nx, ny=ny)
            traj = simulate(params, K=K, seed=int(rng.integers(1 << 30)))
            run = kalman_filter(params, traj.observations)
            assert run.neg_log_lik == pytest.approx(nll_oracle(params, traj.observations), abs=1e-8)

    def test_singular_predictive_covariance_raises_with_step(self):
        params = ModelParams(
            A=np.eye(1),
            H=np.ones((2, 1)),
            Q=np.zeros((1, 1)),
            R=1e-300 * np.eye(2),
            mu0=np.zeros(1),
            Sigma0=np.eye(1),
        )
        with pytest.raises(SingularPredictiveCovarianceError) as exc:
            kalman_filter(params, np.ones((3, 2)))
        assert exc.value.step == 1

    def test_rejects_wrong_observation_width(self):
        """Observations of the wrong rank or shape are a typed error; each lockstep fit gets it as its entry."""
        params, A0 = _scalar_params(Q=0.1), np.array([[0.5]])
        cfg = EstimatorConfig(potential=Potential("l1", gamma=1.0))
        points = [Potential("l1", gamma=g) for g in (1.0, 2.0)]
        # wrong width, rank 3, rank 0, no rows as a matrix and as a vector
        match = r"^observations must have shape \(K, 1\), got "
        for observations in (np.ones((4, 2)), np.ones((4, 1, 1)), np.array(1.0), np.ones((0, 1)), np.ones(0)):
            with pytest.raises(DimensionMismatchError, match=match):
                kalman_filter(params, observations)
            with pytest.raises(DimensionMismatchError, match=match):
                graphit(observations, params, A0, cfg)
            outcomes = graphit_lockstep(observations, params, A0, cfg, points)
            assert [type(outcome) for outcome in outcomes] == [DimensionMismatchError] * 2

    @pytest.mark.parametrize(
        "observations, error, match",
        [
            ([[1.0], [2.0, 3.0]], ConfigError, "^observations must be an array of real numbers, got a ragged sequence$"),
            ("ab", ConfigError, "^observations must be an array of real numbers, got dtype <U2$"),
            (["1.0", "2.0"], ConfigError, "^observations must be an array of real numbers, got dtype <U3$"),
            ([[1.0], [None]], ConfigError, "^observations must be an array of real numbers, got dtype object$"),
            (np.ones((4, 1)) + 1j, ConfigError, "^observations must be an array of real numbers, got dtype complex128$"),
        ],
        ids=["ragged", "string", "numeric-strings", "object", "complex"],
    )
    def test_rejects_ragged_or_non_real_observations(self, observations, error, match):
        """Ragged, non-numeric and complex observations are a ConfigError; each lockstep fit gets it as its entry."""
        params, A0 = _scalar_params(Q=0.1), np.array([[0.5]])
        cfg = EstimatorConfig(potential=Potential("l1", gamma=1.0))
        points = [Potential("l1", gamma=g) for g in (1.0, 2.0)]
        with pytest.raises(error, match=match):
            kalman_filter(params, observations)
        with pytest.raises(error, match=match):
            graphit(observations, params, A0, cfg)
        outcomes = graphit_lockstep(observations, params, A0, cfg, points)
        assert [type(outcome) for outcome in outcomes] == [error] * 2
        assert all(re.search(match, str(outcome)) for outcome in outcomes)

    def test_nan_observation_raises_non_finite(self):
        params = random_stable_params(np.random.default_rng(4), nx=3, ny=2)
        ys = np.ones((10, 2))
        ys[6, 1] = np.nan
        with pytest.raises(NonFiniteError) as exc:
            kalman_filter(params, ys)
        assert isinstance(exc.value, GraphitError)
        assert isinstance(exc.value, ValueError)

    def test_overflowing_transition_raises_non_finite(self):
        params = random_stable_params(np.random.default_rng(4), nx=3, ny=3)
        params = ModelParams(**{**params.__dict__, "A": 1e160 * np.eye(3)})
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
            kalman_filter(params, np.ones((10, 3)))


class TestSteadyState:
    def test_stable_model_settles_and_repeats_covariances(self):
        rng = np.random.default_rng(6)
        params = random_stable_params(rng, nx=4, ny=2)
        run = kalman_filter(params, simulate(params, K=300, seed=1).observations)
        t = run.steady_step
        assert t is not None and 2 <= t < 100
        # Each distinct value is held once: t filtered steps, and one prediction more.
        assert len(run.filtered_covs) == len(run.predictive_covs) == t
        assert len(run.predicted_covs) == len(run.cross_covs) == t + 1
        dense = dense_filter(run)
        assert np.all(dense.filtered_covs[t - 1:] == dense.filtered_covs[t - 1])
        assert np.all(dense.predictive_covs[t - 1:] == dense.predictive_covs[t - 1])
        assert not np.all(dense.filtered_covs[t - 2] == dense.filtered_covs[t - 1])

    def test_noiseless_random_walk_never_settles(self):
        # With Q = 0 and A = I the filtered variance decays like 1/k.
        params = _scalar_params(A=1.0, Q=0.0, R=0.5, Sigma0=1.0)
        run = kalman_filter(params, np.ones((500, 1)))
        assert run.steady_step is None
        expected = 1.0 / (1.0 + np.arange(1, 501) / 0.5)
        np.testing.assert_allclose(dense_filter(run).filtered_covs[:, 0, 0], expected, rtol=1e-12)

    def test_single_step_has_no_steady_step(self):
        assert kalman_filter(_scalar_params(), np.array([[1.0]])).steady_step is None

    def test_steady_state_is_scale_invariant(self):
        # Expressing the data in other units must not move the settle step.
        # Powers of two keep the rescaled arithmetic exact.
        rng = np.random.default_rng(7)
        params = random_stable_params(rng, nx=3, ny=3)
        ys = simulate(params, K=200, seed=2).observations
        c = 2.0 ** -20
        scaled = ModelParams(
            A=params.A, H=params.H, Q=c * c * params.Q, R=c * c * params.R,
            mu0=c * params.mu0, Sigma0=c * c * params.Sigma0,
        )
        run, run_scaled = kalman_filter(params, ys), kalman_filter(scaled, c * ys)
        assert run.steady_step is not None
        assert run_scaled.steady_step == run.steady_step
        np.testing.assert_array_equal(run_scaled.filtered_means, c * run.filtered_means)


def _loop_scan(runs, offsets, x):
    """Per-step reference: x <- M x + offsets[j], one step at a time."""
    out = np.empty_like(offsets)
    j = 0
    for M, n in runs:
        for _ in range(n):
            x = M @ x + offsets[j]
            out[j] = x
            j += 1
    return out


class TestRunScan:
    """The transient steps and the doubling scan against a per-step loop, at 1e-12 relative to the iterates."""

    @staticmethod
    def _inputs(seed, nx, lengths):
        rng = np.random.default_rng(seed)
        mats = []
        for _ in lengths:
            M = rng.standard_normal((nx, nx))
            mats.append(M * 0.95 / np.max(np.abs(np.linalg.eigvals(M))))
        offsets = rng.standard_normal((sum(lengths), nx))
        return list(zip(mats, lengths)), offsets, rng.standard_normal(nx)

    @staticmethod
    def _assert_close(got, want):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @staticmethod
    def _transients_then_stretch(mats, offsets, x):
        # The filter's layout: one step per matrix, the last one serving the rest.
        out, t = offsets.copy(), len(mats) - 1
        x = _steps(mats[:t], out[:t], x)
        _double(mats[t], out[t:], x)
        return out

    @pytest.mark.parametrize("stretch", [1, 2, 3, 64, 981])
    def test_transients_then_stretch(self, stretch):
        runs, offsets, x = self._inputs(stretch, nx=5, lengths=[1, 1, 1, stretch])
        mats = np.array([M for M, _ in runs])
        self._assert_close(self._transients_then_stretch(mats, offsets, x), _loop_scan(runs, offsets, x))

    @pytest.mark.parametrize("stretch", [1, 2, 3, 64, 981])
    def test_stretch_then_transients_on_reversed_views(self, stretch):
        # The smoother's layout: it runs backward over a reversed copy, so the
        # settled gain serves the first steps of the scan.
        runs, offsets, x = self._inputs(stretch, nx=5, lengths=[stretch, 1, 1, 1])
        want = _loop_scan(runs, offsets[::-1].copy(), x)
        mats = np.array([M for M, _ in runs])
        back = offsets[::-1].copy()
        x = _double(mats[0], back[:stretch], x)
        _steps(mats[1:], back[stretch:], x)
        self._assert_close(back, want)

    def test_transient_only(self):
        # Covariances that never settle: every step has its own matrix.
        runs, offsets, x = self._inputs(3, nx=4, lengths=[1] * 50)
        mats = np.array([M for M, _ in runs])
        self._assert_close(self._transients_then_stretch(mats, offsets, x), _loop_scan(runs, offsets, x))


class TestRTSSmoother:
    def test_final_step_equals_filter(self):
        rng = np.random.default_rng(1)
        params = random_stable_params(rng, nx=3, ny=3)
        traj = simulate(params, K=20, seed=3)
        run = kalman_filter(params, traj.observations)
        smo = rts_smoother(params, run)
        np.testing.assert_array_equal(smo.smoothed_means[-1], run.filtered_means[-1])
        np.testing.assert_array_equal(dense_smoother(smo).smoothed_covs[-1], dense_filter(run).filtered_covs[-1])

    def test_large_process_noise_kills_gains(self):
        rng = np.random.default_rng(2)
        params = random_stable_params(rng, nx=2, ny=2)
        params = ModelParams(**{**params.__dict__, "Q": 1e6 * np.eye(2)})
        traj = simulate(params, K=10, seed=4)
        run = kalman_filter(params, traj.observations)
        smo = rts_smoother(params, run)
        assert np.max(np.abs(dense_smoother(smo).gains)) < 1e-3
        np.testing.assert_allclose(smo.smoothed_means[1:], run.filtered_means, atol=1e-2)

    def test_matches_dense_joint_conditioning(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            nx = int(rng.integers(1, 3))
            params = random_stable_params(rng, nx=nx, ny=nx)
            K = int(rng.integers(2, 8))
            traj = simulate(params, K=K, seed=int(rng.integers(1 << 30)))
            run = kalman_filter(params, traj.observations)
            smo = rts_smoother(params, run)
            means_ref, covs_ref = smoother_oracle(params, traj.observations)
            np.testing.assert_allclose(smo.smoothed_means, means_ref, atol=1e-8)
            np.testing.assert_allclose(dense_smoother(smo).smoothed_covs, covs_ref, atol=1e-8)

    def test_scalar_chain_brute_force(self):
        params = _scalar_params(A=0.8, H=1.0, Q=0.3, R=0.5, mu0=0.4, Sigma0=0.7)
        ys = np.array([[1.0], [-0.5]])
        run = kalman_filter(params, ys)
        smo = rts_smoother(params, run)
        means_ref, covs_ref = smoother_oracle(params, ys)
        np.testing.assert_allclose(smo.smoothed_means, means_ref, atol=1e-10)
        np.testing.assert_allclose(dense_smoother(smo).smoothed_covs, covs_ref, atol=1e-10)

    def test_singular_state_prediction_reports_one_based_step(self):
        # R ~ 0 pins the first state coordinate after step 1, so with Q = 0
        # the predicted state covariance A Sigma_k A^T + Q is singular from
        # step 2 on, while every S_k stays well conditioned.
        params = ModelParams(
            A=np.eye(2),
            H=np.array([[1.0, 0.0]]),
            Q=np.zeros((2, 2)),
            R=1e-14 * np.eye(1),
            mu0=np.zeros(2),
            Sigma0=np.eye(2),
        )
        for K in (2, 5):
            run = kalman_filter(params, np.ones((K, 1)))
            with pytest.raises(SingularPredictiveCovarianceError) as exc:
                rts_smoother(params, run)
            assert exc.value.step == 2

    def test_symmetry_preserved_over_long_runs(self):
        rng = np.random.default_rng(9)
        params = random_stable_params(rng, nx=4, ny=4)
        traj = simulate(params, K=1000, seed=8)
        run = kalman_filter(params, traj.observations)
        smo = rts_smoother(params, run)
        assert max(np.max(np.abs(S - S.T)) for S in dense_smoother(smo).smoothed_covs) <= 1e-10


def test_e_step_memory_stays_below_one_dense_covariance_array():
    # Covariances are held once per distinct value, so one E-step at
    # N_x = 32, K = 20000 needs O(K N_x) memory for the means, well below the
    # 164 MB of one (K, N_x, N_x) array.
    nx, K = 32, 20_000
    rng = np.random.default_rng(11)
    params = random_stable_params(rng, nx=nx, ny=nx)
    ys = rng.standard_normal((K, nx))
    tracemalloc.start()
    try:
        run = kalman_filter(params, ys)
        compute_stats(rts_smoother(params, run))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert run.steady_step is not None
    assert peak < K * nx * nx * 8, f"peak {peak / 1e6:.1f} MB"
