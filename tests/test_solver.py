import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphit import (
    DimensionMismatchError,
    DRConfig,
    NonFiniteError,
    NotPositiveDefiniteError,
    douglas_rachford,
    prox_quadratic,
    prox_weighted_l1,
    q_quadratic,
    surrogate_value,
)
from graphit.em_stats import EMStats
from graphit.solver import QFactors, _setup, check_weights, douglas_rachford_lockstep

from oracles import forward_backward, prox_quadratic_oracle, random_spd, reference_douglas_rachford


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

    def test_takes_weights_as_nested_lists(self):
        V = np.array([[2.0, -0.2], [0.0, -3.0]])
        weights = [[0.5, 0.5], [1, 1]]
        np.testing.assert_array_equal(prox_weighted_l1(V, weights, 1.0), prox_weighted_l1(V, np.array(weights), 1.0))


class TestCheckWeights:
    def test_returns_a_float_array_for_a_list(self):
        Omega = check_weights([[0, 1], [2.5, 3]], (2, 2))
        assert Omega.dtype == np.float64
        np.testing.assert_array_equal(Omega, [[0.0, 1.0], [2.5, 3.0]])

    def test_returns_a_float_array_itself(self):
        """A float ndarray is returned as is, so the solver's thresholds keep their bits."""
        Omega = np.full((3, 3), 0.5)
        assert check_weights(Omega, (3, 3)) is Omega


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

    def test_reports_fallback(self):
        # The minimizer is 0.6; one sweep from it stops at prox_l1(0.6) = 0.2, a larger objective.
        stats = EMStats(Psi=np.array([[1.0]]), Phi=np.array([[1.0]]), Delta=np.array([[1.0]]))
        Q, Omega, cfg = np.array([[1.0]]), np.array([[0.4]]), DRConfig(max_iter=1)
        at_minimizer = douglas_rachford(stats, Q, Omega, np.array([[0.6]]), cfg)
        assert at_minimizer.fell_back
        assert at_minimizer.minimizer[0, 0] == 0.6
        from_afar = douglas_rachford(stats, Q, Omega, np.array([[3.0]]), cfg)
        assert not from_afar.fell_back
        assert from_afar.minimizer[0, 0] == pytest.approx(2.6, abs=1e-15)

    def test_fixed_point_barely_moves(self):
        rng = np.random.default_rng(10)
        stats, Q, Omega = random_instance(rng)
        A_star = forward_backward(stats, Q, Omega, np.zeros((3, 3)))
        cfg = DRConfig(tol=1e-6, max_iter=3)
        scale = _setup(stats, Omega, A_star, cfg, QFactors.of(Q))[2]
        grad = np.linalg.inv(Q) @ (A_star @ stats.Phi - stats.Delta)
        z_star = A_star - scale * grad
        report = douglas_rachford(stats, Q, Omega, z_star, cfg)
        assert np.linalg.norm(report.minimizer - A_star) <= cfg.tol

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DRConfig(step=0.0)
        with pytest.raises(ValueError, match="finite"):
            DRConfig(step=np.inf)
        with pytest.raises(ValueError):
            DRConfig(relaxation=2.0)
        with pytest.raises(ValueError):
            DRConfig(tol=0.0)
        with pytest.raises(ValueError, match="tol must be finite and > 0, got inf"):
            DRConfig(tol=np.inf)
        with pytest.raises(ValueError):
            DRConfig(max_iter=0)
        for cap in (2.5, np.nan, np.inf, 3.0, True):
            with pytest.raises(ValueError, match=f"max_iter must be >= 1 and an integer, got {cap}"):
                DRConfig(max_iter=cap)
        assert DRConfig(max_iter=np.int64(3)).max_iter == 3


BAD_Q = {
    "nan": (np.array([[1.0, np.nan], [np.nan, 1.0]]), NonFiniteError, "Q is not finite"),
    "inf": (np.array([[np.inf, 0.0], [0.0, 1.0]]), NonFiniteError, "Q is not finite"),
    "-inf": (np.array([[1.0, 0.0], [0.0, -np.inf]]), NonFiniteError, "Q is not finite"),
    "indefinite": (np.array([[1.0, 2.0], [2.0, 1.0]]), NotPositiveDefiniteError, "Q is not positive definite"),
    "not-square": (np.ones((2, 3)), DimensionMismatchError, "Q must be a non-empty square matrix"),
}


@pytest.mark.parametrize("entry", BAD_Q.values(), ids=BAD_Q.keys())
@pytest.mark.parametrize("call", ["douglas_rachford", "prox_quadratic", "q_quadratic", "surrogate_value"])
def test_bad_q_is_a_typed_error(call, entry):
    """Q is checked and factored only by `QFactors.of` (`dpotrf` factors a NaN quietly); each entry point names Q."""
    Q, error, message = entry
    stats = EMStats(Psi=np.eye(2), Phi=np.eye(2), Delta=np.eye(2))
    A, Omega = np.eye(2), np.full((2, 2), 0.1)
    calls = {
        "douglas_rachford": lambda: douglas_rachford(stats, Q, Omega, A),
        "prox_quadratic": lambda: prox_quadratic(A, stats, Q, 1.0),
        "q_quadratic": lambda: q_quadratic(A, stats, Q),
        "surrogate_value": lambda: surrogate_value(A, stats, Q, Omega),
    }
    with pytest.raises(error, match=message):
        calls[call]()


@st.composite
def dr_problems(draw):
    """(stats, Q, Omega, A_init, cfg): n in 1..8, Q isotropic, diagonal or general SPD,
    Omega with zeros, relaxation in (0, 2), tol >= 1e-10."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["isotropic", "diagonal", "general"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "isotropic":
        Q = rng.uniform(0.5, 2.0) * np.eye(n)
    elif kind == "diagonal":
        Q = np.diag(rng.uniform(0.1, 2.0, size=n))
    else:
        Q = random_spd(rng, n, scale=1.0 / n)
    stats = EMStats(Psi=random_spd(rng, n), Phi=random_spd(rng, n), Delta=rng.standard_normal((n, n)) * n)
    Omega = rng.uniform(0.0, 1.5, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.7)
    cfg = DRConfig(
        step=10.0 ** draw(st.floats(-1.0, 1.0)),
        relaxation=draw(st.one_of(st.just(1.0), st.floats(0.05, 1.95))),
        tol=10.0 ** draw(st.floats(-10.0, -3.0)),
        max_iter=draw(st.sampled_from([1, 2, 3, 2000])),
    )
    return stats, Q, Omega, rng.standard_normal((n, n)), cfg


@given(dr_problems())
def test_douglas_rachford_matches_reference_loop(problem):
    stats, Q, Omega, A_init, cfg = problem
    expected, iterations, _, converged = reference_douglas_rachford(stats, Q, Omega, A_init, cfg)
    report = douglas_rachford(stats, Q, Omega, A_init, cfg)
    assert report.iterations == iterations
    assert report.converged == converged
    assert np.linalg.norm(report.minimizer - expected) <= 1e-12 * (1.0 + np.linalg.norm(expected))


def kkt_residual(A, stats, Q, Omega):
    """Distance from -grad q(A) to the subdifferential of ||Omega . A||_1 at A, in the Frobenius norm.

    grad q(A) = Q^{-1} (A Phi - Delta). Where A_ij = 0 the condition is
    |grad_ij| <= Omega_ij; elsewhere grad_ij = -Omega_ij sign(A_ij).
    """
    grad = np.linalg.solve(Q, A @ stats.Phi - stats.Delta)
    return float(np.linalg.norm(np.where(A == 0, np.maximum(np.abs(grad) - Omega, 0.0), grad + Omega * np.sign(A))))


def kkt_tolerance(report, stats, Q, cfg):
    """10 (L + 1/tau) tol (1 + ||A||_F) / min(1, relaxation), L = lambda_max(Phi) / lambda_min(Q), tau = step / L.

    With DR's iterate z and the quadratic's prox y of the last sweep, x = prox_l1(z)
    makes (z - x) / tau a subgradient of the l1 term at x, and then
    grad q(x) + (z - x) / tau = grad q(x) - grad q(y) + (x - y) / tau, whose norm is
    at most (L + 1/tau) ||x - y||. z moves by relaxation (y - x) per sweep;
    the stop test bounds the move of x by tol (1 + ||x||). The factor 10 covers the
    ratio of the two moves, at most 5.4 over 20,000 random problems with step <= 1.
    """
    curvature = float(np.linalg.eigvalsh(stats.Phi).max()) / float(np.linalg.eigvalsh(Q).min())
    scale = 1.0 + 1.0 / cfg.step
    return 10.0 * curvature * scale * cfg.tol * (1.0 + np.linalg.norm(report.minimizer)) / min(1.0, cfg.relaxation)


@st.composite
def kkt_batches(draw):
    """Batches of dr_problems with one Q; step <= 1, solved to convergence (see the xfail below for step > 1)."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q = random_spd(rng, n, scale=1.0 / n) if draw(st.booleans()) else np.diag(rng.uniform(0.1, 2.0, size=n))
    problems = []
    for _ in range(draw(st.integers(2, 5))):
        stats = EMStats(Psi=random_spd(rng, n), Phi=random_spd(rng, n), Delta=rng.standard_normal((n, n)) * n)
        Omega = rng.uniform(0.0, 1.5, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.7)
        problems.append((stats, Omega, rng.standard_normal((n, n))))
    cfg = DRConfig(
        step=10.0 ** draw(st.floats(-1.0, 0.0)),
        relaxation=draw(st.one_of(st.just(1.0), st.floats(0.05, 1.95))),
        tol=10.0 ** draw(st.floats(-10.0, -4.0)),
        max_iter=100_000,
    )
    return problems, Q, cfg


@pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
@given(kkt_batches())
def test_douglas_rachford_minimizer_satisfies_kkt(batched, batch):
    """The minimizer satisfies the weighted-l1 KKT conditions within `kkt_tolerance`.

    A solve whose stop test saw the l1 prox return the same iterate twice
    (final residual 0) is left out: that test then certifies nothing, which
    `test_douglas_rachford_can_stop_on_a_stalled_iterate` pins. So is one that
    fell back, whose minimizer is A_init.
    """
    problems, Q, cfg = batch
    q_factors = QFactors.of(Q)
    if batched:
        reports = douglas_rachford_lockstep(problems, Q, cfg, q_factors)
    else:
        reports = [douglas_rachford(stats, Q, Omega, A_init, cfg, q_factors) for stats, Omega, A_init in problems]
    for (stats, Omega, _), report in zip(problems, reports):
        assert report.converged
        if report.fell_back or report.final_residual == 0.0:
            continue
        assert kkt_residual(report.minimizer, stats, Q, Omega) <= kkt_tolerance(report, stats, Q, cfg)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="DR stops once the l1 prox repeats its output, however far its iterate z is from done",
)
def test_douglas_rachford_can_stop_on_a_stalled_iterate():
    """The stop test compares consecutive l1-prox outputs, which stay put while z crosses the dead zone.

    Here the minimizer is 0.6, but with relaxation 0.05 the iterate z creeps from 0
    to 0.025 in one sweep, inside the threshold 0.4, so x = 0 twice and DR reports
    convergence after 2 sweeps at 0, where the gradient -1 exceeds the weight 0.4.
    The same happens with part of the entries when step > 1 widens the dead zone.
    """
    stats = EMStats(Psi=np.array([[1.0]]), Phi=np.array([[1.0]]), Delta=np.array([[1.0]]))
    Q, Omega, cfg = np.array([[1.0]]), np.array([[0.4]]), DRConfig(relaxation=0.05)
    report = douglas_rachford(stats, Q, Omega, np.array([[0.0]]), cfg)
    assert kkt_residual(report.minimizer, stats, Q, Omega) <= kkt_tolerance(report, stats, Q, cfg)
