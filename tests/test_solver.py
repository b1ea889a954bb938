import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphit import (
    DRConfig,
    douglas_rachford,
    prox_quadratic,
    prox_weighted_l1,
    surrogate_value,
)
from graphit.em_stats import EMStats

from oracles import forward_backward, prox_quadratic_oracle, random_spd


def random_instance(rng, n=3, isotropic=False):
    """Random surrogate data (Psi enters only as an additive constant)."""
    Phi = random_spd(rng, n)
    Delta = rng.standard_normal((n, n)) * n
    Psi = random_spd(rng, n)
    Q = (rng.uniform(0.5, 2.0) * np.eye(n)) if isotropic else random_spd(rng, n, scale=1.0 / n)
    Omega = rng.uniform(0.0, 1.5, size=(n, n))
    return EMStats(Psi=Psi, Phi=Phi, Delta=Delta), Q, Omega


class TestProxWeightedL1:
    def test_shrinks_by_threshold(self):
        V = np.array([[2.0]])
        out = prox_weighted_l1(V, np.array([[0.5]]), step=1.0)
        assert out[0, 0] == pytest.approx(1.5)

    def test_matches_grid_minimization(self):
        # prox at V=2 with weight 0.5 minimizes 0.5|u| + (u-2)^2/2
        grid = np.linspace(-4, 4, 800001)
        objective = 0.5 * np.abs(grid) + 0.5 * (grid - 2.0) ** 2
        assert grid[np.argmin(objective)] == pytest.approx(1.5, abs=1e-5)

    def test_dead_zone(self):
        V = np.array([[0.3, -0.2], [0.0, 0.49]])
        out = prox_weighted_l1(V, np.full((2, 2), 0.5), step=1.0)
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_zero_weights_identity(self):
        rng = np.random.default_rng(0)
        V = rng.standard_normal((3, 3))
        np.testing.assert_array_equal(prox_weighted_l1(V, np.zeros((3, 3)), 1.0), V)

    def test_nonexpansive(self):
        rng = np.random.default_rng(1)
        Omega = rng.uniform(0, 2, size=(4, 4))
        for _ in range(50):
            V1 = rng.standard_normal((4, 4))
            V2 = rng.standard_normal((4, 4))
            lhs = np.linalg.norm(prox_weighted_l1(V1, Omega, 0.7) - prox_weighted_l1(V2, Omega, 0.7))
            assert lhs <= np.linalg.norm(V1 - V2) + 1e-12


class TestProxQuadratic:
    def test_identity_stats_halves_input(self):
        stats = EMStats(Psi=np.eye(2), Phi=np.eye(2), Delta=np.zeros((2, 2)))
        rng = np.random.default_rng(2)
        V = rng.standard_normal((2, 2))
        np.testing.assert_allclose(prox_quadratic(V, stats, np.eye(2), 1.0), V / 2.0, atol=1e-12)

    def test_small_step_is_identity_limit(self):
        rng = np.random.default_rng(3)
        stats, Q, _ = random_instance(rng)
        V = rng.standard_normal((3, 3))
        out = prox_quadratic(V, stats, Q, step=1e-8)
        np.testing.assert_allclose(out, V, atol=1e-6)

    @pytest.mark.parametrize("isotropic", [True, False])
    def test_stationarity_residual(self, isotropic):
        rng = np.random.default_rng(4)
        for _ in range(10):
            stats, Q, _ = random_instance(rng, isotropic=isotropic)
            V = rng.standard_normal((3, 3))
            step = rng.uniform(0.2, 2.0)
            A = prox_quadratic(V, stats, Q, step)
            Qinv = np.linalg.inv(Q)
            resid = Qinv @ (A @ stats.Phi) + A / step - Qinv @ stats.Delta - V / step
            assert np.max(np.abs(resid)) <= 1e-10 * max(1.0, np.max(np.abs(A)))

    def test_isotropic_and_general_paths_agree(self):
        # Isotropic and general Q share one solve; both must match the Kronecker oracle.
        rng = np.random.default_rng(5)
        stats, Q_general, _ = random_instance(rng)
        V = rng.standard_normal((3, 3))
        for Q in (0.7 * np.eye(3), Q_general):
            expected = prox_quadratic_oracle(V, stats, Q, 0.9)
            np.testing.assert_allclose(prox_quadratic(V, stats, Q, 0.9), expected, rtol=1e-12, atol=1e-12)

    def test_nonexpansive(self):
        rng = np.random.default_rng(6)
        stats, Q, _ = random_instance(rng)
        for _ in range(50):
            V1 = rng.standard_normal((3, 3))
            V2 = rng.standard_normal((3, 3))
            d_out = np.linalg.norm(
                prox_quadratic(V1, stats, Q, 0.8) - prox_quadratic(V2, stats, Q, 0.8)
            )
            assert d_out <= np.linalg.norm(V1 - V2) + 1e-12


@st.composite
def prox_problems(draw):
    """(V, stats, Q, step): n in 1..6, Q isotropic, diagonal or general SPD, Phi PSD of any rank."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["isotropic", "diagonal", "general"]))
    rank = draw(st.integers(0, n))
    step = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "isotropic":
        Q = rng.uniform(0.5, 2.0) * np.eye(n)
    elif kind == "diagonal":
        Q = np.diag(rng.uniform(0.5, 2.0, size=n))
    else:
        Q = random_spd(rng, n, scale=1.0 / n)
    B = rng.standard_normal((n, rank))
    Phi = 0.5 * (B @ B.T + (B @ B.T).T)
    stats = EMStats(Psi=np.eye(n), Phi=Phi, Delta=rng.standard_normal((n, n)) * n)
    return rng.standard_normal((n, n)), stats, Q, step


@given(prox_problems())
def test_prox_quadratic_matches_kronecker_oracle(problem):
    V, stats, Q, step = problem
    expected = prox_quadratic_oracle(V, stats, Q, step)
    error = np.linalg.norm(prox_quadratic(V, stats, Q, step) - expected)
    assert error <= 1e-10 * np.linalg.norm(expected)


class TestDouglasRachford:
    def test_unpenalized_recovers_identity(self):
        rng = np.random.default_rng(7)
        Phi = random_spd(rng, 3)
        stats = EMStats(Psi=np.eye(3), Phi=Phi, Delta=Phi.copy())
        cfg = DRConfig(tol=1e-12, max_iter=5000)
        report = douglas_rachford(stats, np.eye(3), np.zeros((3, 3)), np.zeros((3, 3)), cfg)
        assert report.converged
        np.testing.assert_allclose(report.minimizer, np.eye(3), atol=1e-8)

    def test_scalar_soft_threshold_solution(self):
        stats = EMStats(Psi=np.array([[1.0]]), Phi=np.array([[1.0]]), Delta=np.array([[1.0]]))
        cfg = DRConfig(tol=1e-12, max_iter=5000)
        report = douglas_rachford(
            stats, np.array([[1.0]]), np.array([[0.4]]), np.array([[0.0]]), cfg
        )
        assert report.minimizer[0, 0] == pytest.approx(0.6, abs=1e-8)

    def test_matches_forward_backward_oracle(self):
        rng = np.random.default_rng(8)
        cfg = DRConfig(tol=1e-10, max_iter=20000)
        for _ in range(10):
            stats, Q, Omega = random_instance(rng)
            A0 = rng.standard_normal((3, 3))
            report = douglas_rachford(stats, Q, Omega, A0, cfg)
            reference = forward_backward(stats, Q, Omega, A0)
            assert np.linalg.norm(report.minimizer - reference) <= 1e-6

    def test_never_worse_than_start(self):
        rng = np.random.default_rng(9)
        for max_iter in (1, 2, 5, 50):
            for _ in range(10):
                stats, Q, Omega = random_instance(rng)
                A0 = rng.standard_normal((3, 3))
                cfg = DRConfig(max_iter=max_iter)
                report = douglas_rachford(stats, Q, Omega, A0, cfg)
                assert (
                    surrogate_value(report.minimizer, stats, Q, Omega)
                    <= surrogate_value(A0, stats, Q, Omega) + 1e-12
                )

    def test_fixed_point_barely_moves(self):
        from graphit.solver import effective_prox_scale

        rng = np.random.default_rng(10)
        stats, Q, Omega = random_instance(rng)
        A_star = forward_backward(stats, Q, Omega, np.zeros((3, 3)))
        cfg = DRConfig(tol=1e-6, max_iter=3)
        scale = effective_prox_scale(stats, Q, cfg)
        grad = np.linalg.inv(Q) @ (A_star @ stats.Phi - stats.Delta)
        z_star = A_star - scale * grad
        report = douglas_rachford(stats, Q, Omega, z_star, cfg)
        assert np.linalg.norm(report.minimizer - A_star) <= cfg.tol

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DRConfig(step=0.0)
        with pytest.raises(ValueError):
            DRConfig(relaxation=2.0)
        with pytest.raises(ValueError):
            DRConfig(tol=0.0)
        with pytest.raises(ValueError):
            DRConfig(max_iter=0)
