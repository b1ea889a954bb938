import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import graphit.algorithms as algorithms
from graphit import (
    FAMILIES,
    ConfigError,
    DRConfig,
    EstimatorConfig,
    ModelParams,
    NonFiniteError,
    NotPositiveDefiniteError,
    Potential,
    default_init,
    generate_sparse_A,
    graphem,
    graphit,
    kalman_filter,
    mlem,
    objective,
    q_quadratic,
    simulate,
    spectral_norm,
)
from graphit.em_stats import EMStats, compute_stats
from graphit.kalman import rts_smoother
from graphit.penalties import SHAPE_FIELD

from oracles import random_stable_params


def benchmark_like_params(nx, A, sigma_q=0.1, sigma_r=0.1, sigma_0=1e-4):
    return ModelParams(
        A=A,
        H=np.eye(nx),
        Q=sigma_q**2 * np.eye(nx),
        R=sigma_r**2 * np.eye(nx),
        mu0=np.zeros(nx),
        Sigma0=sigma_0**2 * np.eye(nx),
    )


def small_problem(nx=4, s=3, K=80, seed=0):
    A_true = generate_sparse_A(nx, s, target_norm=0.9, seed=seed)
    params = benchmark_like_params(nx, A_true)
    traj = simulate(params, K=K, seed=seed + 1)
    return A_true, params, traj


LOGSUM = Potential("log-sum", gamma=20.0, lam=0.1)
L1 = Potential("l1", gamma=20.0)


class TestObjective:
    def test_without_potential_equals_nll(self):
        _, params, traj = small_problem()
        run = kalman_filter(params, traj.observations)
        assert objective(params.A, params, traj.observations) == pytest.approx(run.neg_log_lik)

    def test_scalar_hand_case(self):
        params = ModelParams(
            A=np.array([[1.0]]),
            H=np.array([[1.0]]),
            Q=np.zeros((1, 1)),
            R=np.array([[1.0]]),
            mu0=np.zeros(1),
            Sigma0=np.array([[1.0]]),
        )
        value = objective(params.A, params, np.array([[1.0]]))
        assert value == pytest.approx(0.5 * np.log(4 * np.pi) + 0.25, abs=1e-12)

    def test_truth_beats_random_matrices(self):
        wins = 0
        trials = 20
        for seed in range(trials):
            A_true, params, traj = small_problem(K=300, seed=seed)
            rng = np.random.default_rng(1000 + seed)
            A_rand = rng.standard_normal(A_true.shape)
            A_rand *= 0.9 / np.linalg.norm(A_rand, 2)
            at_truth = objective(A_true, params, traj.observations)
            at_random = objective(A_rand, params, traj.observations)
            wins += at_truth < at_random
        assert wins >= 0.95 * trials

    def test_adds_penalty_term(self):
        A_true, params, traj = small_problem()
        base = objective(A_true, params, traj.observations)
        with_pen = objective(A_true, params, traj.observations, LOGSUM)
        assert with_pen > base


class TestGraphIT:
    def test_huge_epsilon_stops_after_one_iteration(self):
        _, params, traj = small_problem()
        cfg = EstimatorConfig(potential=LOGSUM, epsilon=10.0, max_outer=50)
        result = graphit(traj.observations, params, default_init(4), cfg)
        assert result.outer_iterations == 1
        assert result.stopped_by == "precision"
        assert len(result.objective_trace) == 2

    def test_objective_trace_nonincreasing(self):
        for seed in (0, 1, 2):
            _, params, traj = small_problem(seed=seed)
            cfg = EstimatorConfig(potential=LOGSUM, epsilon=1e-4, max_outer=30)
            result = graphit(traj.observations, params, default_init(4), cfg)
            diffs = np.diff(result.objective_trace)
            assert np.all(diffs <= 1e-8)

    def test_requires_potential(self):
        _, params, traj = small_problem()
        with pytest.raises(ValueError):
            graphit(traj.observations, params, default_init(4), EstimatorConfig())

    def test_singular_Q_is_typed_error(self):
        # The filter and smoother accept Q = 0 here; the M-step needs Q^{-1}.
        params = ModelParams(
            A=0.5 * np.eye(3), H=np.eye(3), Q=np.zeros((3, 3)), R=0.1 * np.eye(3), mu0=np.zeros(3), Sigma0=0.1 * np.eye(3)
        )
        observations = np.random.default_rng(0).standard_normal((20, 3))
        with pytest.raises(NotPositiveDefiniteError, match="Q"):
            graphit(observations, params, default_init(3), EstimatorConfig(potential=L1))

    def test_cap_stopping(self):
        _, params, traj = small_problem()
        cfg = EstimatorConfig(potential=LOGSUM, epsilon=1e-14, max_outer=2)
        result = graphit(traj.observations, params, default_init(4), cfg)
        assert result.stopped_by == "cap"
        assert result.outer_iterations == 2

    def test_recovers_support_better_than_init(self):
        A_true, params, traj = small_problem(nx=4, s=3, K=500, seed=5)
        cfg = EstimatorConfig(potential=Potential("log-sum", gamma=50.0, lam=0.1))
        result = graphit(traj.observations, params, default_init(4), cfg)
        err_init = np.linalg.norm(default_init(4) - A_true)
        err_hat = np.linalg.norm(result.A_hat - A_true)
        assert err_hat < 0.5 * err_init


class TestGraphEM:
    def test_requires_l1_family(self):
        _, params, traj = small_problem()
        for cfg in (EstimatorConfig(potential=LOGSUM), EstimatorConfig()):
            with pytest.raises(ConfigError, match="^graphem uses the l1 potential only$"):
                graphem(traj.observations, params, default_init(4), cfg)

    def test_weight_matrices_constant_over_iterations(self):
        from graphit import weight_matrix

        _, params, traj = small_problem()
        cfg = EstimatorConfig(potential=L1, max_outer=5)
        result = graphem(traj.observations, params, default_init(4), cfg)
        for A_iter in result.iterates:
            np.testing.assert_array_equal(weight_matrix(L1, A_iter), np.full((4, 4), L1.gamma))

    def test_identical_to_graphit_with_l1(self):
        for seed in (0, 3):
            _, params, traj = small_problem(seed=seed)
            cfg = EstimatorConfig(potential=L1, epsilon=1e-4, max_outer=20)
            a = graphem(traj.observations, params, default_init(4), cfg)
            b = graphit(traj.observations, params, default_init(4), cfg)
            assert len(a.iterates) == len(b.iterates)
            for Ai, Bi in zip(a.iterates, b.iterates):
                assert np.linalg.norm(Ai - Bi) <= 1e-12

    def test_objective_trace_nonincreasing(self):
        _, params, traj = small_problem(seed=4)
        cfg = EstimatorConfig(potential=L1, epsilon=1e-4, max_outer=30)
        result = graphem(traj.observations, params, default_init(4), cfg)
        assert np.all(np.diff(result.objective_trace) <= 1e-8)


class TestMLEM:
    def test_mstep_identity_when_delta_equals_phi(self):
        from graphit.algorithms import mlem_update

        rng = np.random.default_rng(0)
        B = rng.standard_normal((3, 3))
        Phi = B @ B.T + 3 * np.eye(3)
        stats = EMStats(Psi=np.eye(3), Phi=Phi, Delta=Phi.copy())
        np.testing.assert_allclose(mlem_update(stats), np.eye(3), atol=1e-12)

    def test_singular_phi_raises_with_iteration(self):
        from graphit import SingularStatisticsError
        from graphit.algorithms import mlem_update

        stats = EMStats(Psi=np.eye(2), Phi=np.diag([1.0, 0.0]), Delta=np.eye(2))
        with pytest.raises(SingularStatisticsError) as exc:
            mlem_update(stats, iteration=7)
        assert exc.value.iteration == 7

    @pytest.mark.parametrize("field", ["Phi", "Delta"])
    def test_nonfinite_statistics_raise_nonfinite_error(self, field):
        """A NaN Phi factors without complaint (dpotrf reports info 0), so the update checks first."""
        from graphit.algorithms import mlem_update

        stats = EMStats(Psi=np.eye(2), Phi=np.eye(2), Delta=np.eye(2))
        stats = dataclasses.replace(stats, **{field: np.array([[1.0, np.nan], [np.nan, 1.0]])})
        with pytest.raises(NonFiniteError, match="outer iteration 4"):
            mlem_update(stats, iteration=4)

    def test_mstep_zeroes_quadratic_gradient(self):
        _, params, traj = small_problem(seed=2)
        cfg = EstimatorConfig(max_outer=1, epsilon=1e-12)
        result = mlem(traj.observations, params, default_init(4), cfg)
        p0 = dataclasses.replace(params, A=default_init(4))
        stats = compute_stats(rts_smoother(p0, kalman_filter(p0, traj.observations)))
        A_hat = result.iterates[0]
        h = 1e-6
        for i in range(4):
            for j in range(4):
                E = np.zeros((4, 4))
                E[i, j] = h
                diff = (
                    q_quadratic(A_hat + E, stats, params.Q)
                    - q_quadratic(A_hat - E, stats, params.Q)
                ) / (2 * h)
                assert abs(diff) <= 1e-6 * max(1.0, abs(q_quadratic(A_hat, stats, params.Q)))

    def test_objective_trace_nonincreasing(self):
        _, params, traj = small_problem(seed=6)
        result = mlem(traj.observations, params, default_init(4), EstimatorConfig(epsilon=1e-5))
        assert np.all(np.diff(result.objective_trace) <= 1e-8)

    def test_estimate_improves_with_horizon(self):
        errors = []
        for K in (100, 1000, 10000):
            A_true, params, traj = small_problem(nx=3, s=4, K=K, seed=11)
            cfg = EstimatorConfig(epsilon=1e-5, max_outer=30)
            result = mlem(traj.observations, params, default_init(3), cfg)
            errors.append(np.linalg.norm(result.A_hat - A_true))
        assert errors[2] < errors[1] < errors[0]


class TestDefaultInit:
    def test_scalar(self):
        np.testing.assert_allclose(default_init(1), np.array([[0.99]]), atol=1e-12)

    def test_diagonal_constant(self):
        A = default_init(5)
        diag = np.diag(A)
        assert np.allclose(diag, diag[0])

    def test_spectral_norm(self):
        for n in (2, 8, 16):
            assert spectral_norm(default_init(n)) == pytest.approx(0.99, abs=1e-8)

    def test_structure_is_toeplitz_decay(self):
        A = default_init(4)
        ratio = A[0, 1] / A[0, 0]
        assert ratio == pytest.approx(0.1, rel=1e-12)
        assert A[0, 3] / A[0, 0] == pytest.approx(1e-3, rel=1e-9)


class TestEstimatorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(epsilon=0.0)
        with pytest.raises(ValueError, match="epsilon must be finite and > 0, got inf"):
            EstimatorConfig(epsilon=np.inf)
        with pytest.raises(ValueError):
            EstimatorConfig(max_outer=0)
        for cap in (2.5, np.inf, np.nan, 3.0, True):
            with pytest.raises(ValueError, match=f"max_outer must be >= 1 and an integer, got {cap}"):
                EstimatorConfig(max_outer=cap)
        assert EstimatorConfig(max_outer=np.int64(3)).max_outer == 3

    def test_mm_descent_across_estimators(self):
        # one shared scenario, all three estimators, loose potentials
        A_true, params, traj = small_problem(nx=4, s=4, K=150, seed=9)
        A0 = default_init(4)
        runs = [
            graphit(traj.observations, params, A0, EstimatorConfig(potential=LOGSUM)),
            graphem(traj.observations, params, A0, EstimatorConfig(potential=L1)),
            mlem(traj.observations, params, A0, EstimatorConfig()),
        ]
        for run in runs:
            assert np.all(np.diff(run.objective_trace) <= 1e-8)


@given(
    family=st.sampled_from(FAMILIES),
    nx=st.integers(2, 5),
    support=st.floats(0.1, 1.0),
    K=st.integers(10, 150),
    sigma_q=st.floats(0.02, 0.5),
    gamma=st.floats(0.1, 300.0),
    shape=st.floats(0.01, 10.0),
    seed=st.integers(0, 2**16),
)
def test_mm_descent_for_every_family(family, nx, support, K, sigma_q, gamma, shape, seed):
    """On generated problems the MM objective never increases, to 1e-9 relative."""
    A_true = generate_sparse_A(nx, max(1, round(support * nx * nx)), target_norm=0.9, seed=seed)
    params = benchmark_like_params(nx, A_true, sigma_q=sigma_q)
    ys = simulate(params, K=K, seed=seed + 1).observations
    field = SHAPE_FIELD[family]
    shapes = {} if field is None else {field: shape + 2.0 if field == "a" else shape}
    cfg = EstimatorConfig(potential=Potential(family, gamma=gamma, **shapes), max_outer=15)
    trace = np.array(graphit(ys, params, default_init(nx), cfg).objective_trace)
    assert np.all(trace[1:] <= trace[:-1] + 1e-9 * np.abs(trace[:-1])), np.diff(trace)


def test_traced_names_are_looked_up_in_algorithms(monkeypatch):
    """A lone graphit fit and a lone mlem fit call every name the benchmark's tracer wraps on graphit.algorithms."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    calls = dict.fromkeys(tracing.ALGORITHMS_SPANS, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(algorithms, name, counted(name, getattr(algorithms, name)))
    _, params, traj = small_problem()
    cfg = EstimatorConfig(potential=LOGSUM, max_outer=3)
    graphit(traj.observations, params, default_init(4), cfg)
    mlem(traj.observations, params, default_init(4), cfg)
    assert [name for name, count in calls.items() if count == 0] == []
