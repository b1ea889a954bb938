import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphit import (
    SmootherRun,
    compute_stats,
    kalman_filter,
    q_quadratic,
    rts_smoother,
    simulate,
)

from oracles import dense_smoother, random_spd, random_stable_params, smoother_run


def _stats_resummation(smoother):
    """Plain-loop re-summation of the three statistics over the dense steps."""
    dense = dense_smoother(smoother)
    means, covs, gains = dense.smoothed_means, dense.smoothed_covs, dense.gains
    K = gains.shape[0]
    nx = means.shape[1]
    Psi = np.zeros((nx, nx))
    Phi = np.zeros((nx, nx))
    Delta = np.zeros((nx, nx))
    for k in range(1, K + 1):
        Psi += covs[k] + np.outer(means[k], means[k])
        Phi += covs[k - 1] + np.outer(means[k - 1], means[k - 1])
        Delta += covs[k] @ gains[k - 1].T + np.outer(means[k], means[k - 1])
    return Psi, Phi, Delta


class TestComputeStats:
    def test_single_step_identity(self):
        run = smoother_run(np.zeros((2, 1)), np.array([np.eye(1), np.eye(1)]), np.array([np.eye(1)]))
        stats = compute_stats(run)
        np.testing.assert_allclose(stats.Psi, np.eye(1))
        np.testing.assert_allclose(stats.Phi, np.eye(1))
        np.testing.assert_allclose(stats.Delta, np.eye(1))

    def test_rank_one_accumulation(self):
        K, nx = 5, 3
        e1 = np.zeros(nx)
        e1[0] = 1.0
        run = smoother_run(np.tile(e1, (K + 1, 1)), np.zeros((K + 1, nx, nx)), np.zeros((K, nx, nx)))
        stats = compute_stats(run)
        expected = K * np.outer(e1, e1)
        np.testing.assert_allclose(stats.Psi, expected)
        np.testing.assert_allclose(stats.Phi, expected)
        np.testing.assert_allclose(stats.Delta, expected)

    def test_matches_resummation_oracle(self):
        rng = np.random.default_rng(0)
        params = random_stable_params(rng, nx=1, ny=1)
        traj = simulate(params, K=3, seed=1)
        smo = rts_smoother(params, kalman_filter(params, traj.observations))
        stats = compute_stats(smo)
        Psi, Phi, Delta = _stats_resummation(smo)
        np.testing.assert_allclose(stats.Psi, Psi, atol=1e-12)
        np.testing.assert_allclose(stats.Phi, Phi, atol=1e-12)
        np.testing.assert_allclose(stats.Delta, Delta, atol=1e-12)

    def test_matches_resummation_oracle_matrix_case(self):
        rng = np.random.default_rng(4)
        params = random_stable_params(rng, nx=4, ny=3)
        traj = simulate(params, K=37, seed=5)
        smo = rts_smoother(params, kalman_filter(params, traj.observations))
        stats = compute_stats(smo)
        Psi, Phi, Delta = _stats_resummation(smo)
        np.testing.assert_allclose(stats.Psi, Psi, atol=1e-10)
        np.testing.assert_allclose(stats.Phi, Phi, atol=1e-10)
        np.testing.assert_allclose(stats.Delta, Delta, atol=1e-10)

    def test_phi_symmetric_psd(self):
        rng = np.random.default_rng(8)
        params = random_stable_params(rng, nx=3, ny=3)
        traj = simulate(params, K=50, seed=2)
        stats = compute_stats(rts_smoother(params, kalman_filter(params, traj.observations)))
        assert np.max(np.abs(stats.Phi - stats.Phi.T)) <= 1e-10
        assert np.linalg.eigvalsh(stats.Phi).min() >= -1e-10


def _assert_matches_resummation(run):
    stats = compute_stats(run)
    for name, want in zip(("Psi", "Phi", "Delta"), _stats_resummation(run)):
        got = getattr(stats, name)
        if name == "Phi":
            want = 0.5 * (want + want.T)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), name


@given(
    nx=st.integers(1, 6),
    ny=st.integers(1, 6),
    K=st.integers(1, 1000),
    seed=st.integers(0, 2**32 - 1),
)
def test_smoother_runs_match_resummation(nx, ny, K, seed):
    # Smoother runs on stable models settle within a few dozen steps, so most
    # of a long run is one repeated (covariance, gain) pair.
    rng = np.random.default_rng(seed)
    params = random_stable_params(rng, nx=nx, ny=ny)
    ys = simulate(params, K=K, seed=seed).observations
    _assert_matches_resummation(rts_smoother(params, kalman_filter(params, ys)))


@given(
    nx=st.integers(1, 6),
    lengths=st.lists(st.integers(1, 300), min_size=1, max_size=8),
    shared=st.sampled_from(["none", "covs", "gains", "both"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_hand_built_repeated_blocks_match_resummation(nx, lengths, shared, seed):
    # Runs of identical steps; with `shared`, one of the two arrays is the
    # same across runs, so neighbouring runs differ in the other one alone,
    # and with "both" neighbouring runs may hold the same pair.
    rng = np.random.default_rng(seed)
    K = sum(lengths)
    runs = len(lengths)
    cov_blocks = np.array([random_spd(rng, nx) for _ in range(1 if shared in ("covs", "both") else runs)])
    gain_blocks = rng.standard_normal((1 if shared in ("gains", "both") else runs, nx, nx))
    index = np.arange(runs)
    run = SmootherRun(
        smoothed_means=rng.standard_normal((K + 1, nx)),
        initial_cov=random_spd(rng, nx),
        smoothed_covs=cov_blocks[index % len(cov_blocks)],
        gains=gain_blocks[index % len(gain_blocks)],
        run_lengths=np.array(lengths),
    )
    _assert_matches_resummation(run)


def _stats_at(params, observations, A_anchor):
    anchored = dataclasses.replace(params, A=A_anchor)
    run = kalman_filter(anchored, observations)
    return compute_stats(rts_smoother(anchored, run)), run.neg_log_lik


class TestQQuadratic:
    def test_zero_matrix_keeps_constant_term(self):
        rng = np.random.default_rng(1)
        params = random_stable_params(rng, nx=3, ny=3)
        traj = simulate(params, K=10, seed=3)
        stats, _ = _stats_at(params, traj.observations, params.A)
        expected = 0.5 * np.trace(np.linalg.solve(params.Q, stats.Psi))
        assert q_quadratic(np.zeros((3, 3)), stats, params.Q) == pytest.approx(expected, rel=1e-12)

    def test_scalar_hand_value(self):
        from graphit.em_stats import EMStats

        stats = EMStats(Psi=np.array([[2.0]]), Phi=np.array([[1.0]]), Delta=np.array([[1.0]]))
        assert q_quadratic(np.array([[1.0]]), stats, np.array([[1.0]])) == pytest.approx(0.5)

    def test_gradient_vanishes_at_unpenalized_minimizer(self):
        rng = np.random.default_rng(2)
        params = random_stable_params(rng, nx=3, ny=3)
        traj = simulate(params, K=30, seed=4)
        stats, _ = _stats_at(params, traj.observations, params.A)
        A_star = np.linalg.solve(stats.Phi, stats.Delta.T).T

        h = 1e-6
        grad = np.zeros_like(A_star)
        for i in range(3):
            for j in range(3):
                E = np.zeros_like(A_star)
                E[i, j] = h
                grad[i, j] = (
                    q_quadratic(A_star + E, stats, params.Q)
                    - q_quadratic(A_star - E, stats, params.Q)
                ) / (2 * h)
        np.testing.assert_allclose(grad, 0.0, atol=1e-5)

    def test_hessian_bilinear_form_symmetric_psd(self):
        rng = np.random.default_rng(3)
        params = random_stable_params(rng, nx=2, ny=2)
        traj = simulate(params, K=20, seed=6)
        stats, _ = _stats_at(params, traj.observations, params.A)
        A0 = rng.standard_normal((2, 2))
        h = 1e-4

        def bilinear(v1, v2):
            # second-order central difference; exact for a quadratic up to fp
            return (
                q_quadratic(A0 + h * (v1 + v2), stats, params.Q)
                - q_quadratic(A0 + h * (v1 - v2), stats, params.Q)
                - q_quadratic(A0 - h * (v1 - v2), stats, params.Q)
                + q_quadratic(A0 - h * (v1 + v2), stats, params.Q)
            ) / (4 * h * h)

        vs = [rng.standard_normal((2, 2)) for _ in range(4)]
        for v1 in vs:
            for v2 in vs:
                assert bilinear(v1, v2) == pytest.approx(bilinear(v2, v1), rel=1e-4, abs=1e-6)
        for v in vs:
            assert bilinear(v, v) >= -1e-8


class TestMajorization:
    def test_em_bound_holds_and_is_tight(self):
        rng = np.random.default_rng(7)
        params = random_stable_params(rng, nx=3, ny=3)
        traj = simulate(params, K=40, seed=9)
        obs = traj.observations

        for trial in range(5):
            A_anchor = rng.standard_normal((3, 3))
            A_anchor *= 0.9 / np.linalg.norm(A_anchor, 2)
            stats, nll_anchor = _stats_at(params, obs, A_anchor)
            q_anchor = q_quadratic(A_anchor, stats, params.Q)
            for _ in range(20):
                A = rng.standard_normal((3, 3))
                A *= rng.uniform(0.1, 1.1) / np.linalg.norm(A, 2)
                _, nll = _stats_at(params, obs, A)
                lhs = nll - nll_anchor
                rhs = q_quadratic(A, stats, params.Q) - q_anchor
                assert lhs <= rhs + 1e-6

    def test_tangency_of_gradients_at_anchor(self):
        rng = np.random.default_rng(12)
        params = random_stable_params(rng, nx=2, ny=2)
        traj = simulate(params, K=25, seed=10)
        obs = traj.observations
        A_anchor = 0.5 * np.eye(2)
        stats, _ = _stats_at(params, obs, A_anchor)

        h = 1e-5
        for i in range(2):
            for j in range(2):
                E = np.zeros((2, 2))
                E[i, j] = h
                d_nll = (
                    _stats_at(params, obs, A_anchor + E)[1]
                    - _stats_at(params, obs, A_anchor - E)[1]
                ) / (2 * h)
                d_q = (
                    q_quadratic(A_anchor + E, stats, params.Q)
                    - q_quadratic(A_anchor - E, stats, params.Q)
                ) / (2 * h)
                assert d_nll == pytest.approx(d_q, rel=1e-4, abs=1e-6)
