import copy
import dataclasses
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import graphit.model as model
from graphit import (
    DimensionMismatchError,
    ModelParams,
    NonFiniteError,
    NotPositiveDefiniteError,
    Potential,
    generate_sparse_A,
    kalman_filter,
    simulate,
    spectral_norm,
    validate,
)
from graphit.algorithms import EstimatorConfig, default_init, graphit, objective
from graphit.cli import _realization_data, grid_search
from graphit.exceptions import attempt
from graphit.kalman import kalman_filter_lockstep
from graphit.model import _check_covariance
from graphit.scenario import load_scenario

from oracles import random_spd, random_stable_params, reference_simulate

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _identity_params(nx=2, ny=2):
    return ModelParams(
        A=0.5 * np.eye(nx),
        H=np.eye(ny, nx),
        Q=np.eye(nx),
        R=np.eye(ny),
        mu0=np.zeros(nx),
        Sigma0=np.eye(nx),
    )


def _singular(params):
    """`params` with the last variance of Q, R and Sigma0 zeroed: semidefinite and singular, as `validate` allows."""
    mask = np.diag([1.0, 0.0])
    return ModelParams(**{**params.__dict__, **{name: getattr(params, name) * mask for name in ("Q", "R", "Sigma0")}})


class TestValidate:
    def test_identity_covariances_accepted(self):
        params = _identity_params()
        assert validate(params) is params

    def test_negative_eigenvalue_rejected(self):
        """An indefinite covariance is not semidefinite: the model is rejected when built, directly or by `replace`."""
        params = _identity_params()
        Q = np.diag([1.0, -1.0])
        for build in (lambda: ModelParams(**{**params.__dict__, "Q": Q}), lambda: dataclasses.replace(params, Q=Q)):
            with pytest.raises(NotPositiveDefiniteError, match="^Q is not positive semidefinite"):
                build()

    def test_dimension_mismatch_names_pair(self):
        with pytest.raises(DimensionMismatchError, match="H"):
            ModelParams(A=np.eye(3), H=np.zeros((3, 2)), Q=np.eye(3), R=np.eye(3), mu0=np.zeros(3), Sigma0=np.eye(3))

    def test_asymmetric_covariance_rejected(self):
        params = _identity_params()
        Q = np.array([[1.0, 1e-6], [0.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            ModelParams(**{**params.__dict__, "Q": Q})

    @pytest.mark.parametrize("name", ["A", "H", "mu0", "Q", "R", "Sigma0"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "check",
        [
            lambda p: validate(p),
            lambda p: validate(_singular(p)),
            lambda p: simulate(p, K=5, seed=0),
            lambda p: kalman_filter(p, np.ones((5, 2))),
        ],
        ids=["validate", "validate-semidefinite", "simulate", "kalman-filter"],
    )
    def test_non_finite_covariance_named(self, name, value, check):
        """The model is rejected when built, so `check` never sees it."""
        params = _identity_params()
        M = getattr(params, name).copy()
        M.flat[0] = value
        with pytest.raises(NonFiniteError, match=f"^{name} contains NaN or infinite values$"):
            check(ModelParams(**{**params.__dict__, name: M}))

    def test_a_zero_covariance_is_valid_but_cannot_be_sampled(self):
        """`validate` takes a semidefinite Q; a noisy `simulate` needs its Cholesky factor, a noiseless one does not."""
        params = _identity_params()
        psd = ModelParams(**{**params.__dict__, "Q": np.zeros((2, 2))})
        assert validate(psd) is psd
        with pytest.raises(NotPositiveDefiniteError, match=r"^Q is not positive definite \(Cholesky failed\)$"):
            simulate(psd, K=5, seed=0)
        assert simulate(psd, K=5, seed=0, noiseless=True).observations.shape == (5, 2)


    @pytest.mark.parametrize(
        "M, passes, eigvalsh_calls",
        [
            ([[2.0, 1.0], [1.0, 2.0]], True, 0),
            ([[1.0, 1.0], [1.0, 1.0]], True, 1),
            ([[1.0, 2.0], [2.0, 1.0]], False, 1),
        ],
        ids=["definite", "singular-semidefinite", "indefinite"],
    )
    def test_covariance_check_factors_first(self, M, passes, eigvalsh_calls, monkeypatch):
        """A matrix that Cholesky factors passes at once; only a singular or indefinite one pays for eigenvalues."""
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: calls.append(M) or eigvalsh(M))
        if passes:
            _check_covariance(np.array(M), "Q")
        else:
            message = r"^Q is not positive semidefinite \(min eigenvalue -1\.000e\+00\)$"
            with pytest.raises(NotPositiveDefiniteError, match=message):
                _check_covariance(np.array(M), "Q")
        assert len(calls) == eigvalsh_calls


class TestModelParams:
    def test_nested_lists_are_stored_as_float_arrays(self):
        """Each field is converted by `real_array`, so lists of integers filter as the arrays they spell."""
        params = ModelParams(A=[[0.5, 0], [0, 0.5]], H=[[1, 0], [0, 1]], Q=[[1, 0], [0, 1]], R=[[1, 0], [0, 1]],
                             mu0=[0, 0], Sigma0=[[1, 0], [0, 1]])
        assert all(isinstance(M, np.ndarray) and M.dtype == np.float64 for M in params.__dict__.values())
        ys = np.ones((5, 2))
        assert kalman_filter(params, ys).neg_log_lik == kalman_filter(_identity_params(), ys).neg_log_lik

    def test_keeps_a_float_array_itself(self):
        A = 0.5 * np.eye(2)
        assert ModelParams(**{**_identity_params().__dict__, "A": A}).A is A


def _count_covariance_checks(monkeypatch) -> list:
    """The names of the covariances that `validate` checks from now on, one per check."""
    calls = []
    check = model._check_covariance
    monkeypatch.setattr(model, "_check_covariance", lambda M, name: calls.append(name) or check(M, name))
    return calls


class TestWithA:
    def test_rejects_a_wrong_shape_or_a_non_finite_entry_by_name(self):
        params = _identity_params()
        before = params.A.copy()
        with pytest.raises(DimensionMismatchError, match=r"^A must have shape \(2, 2\), got \(3, 3\)$"):
            params.with_A(np.eye(3))
        for value in (np.nan, np.inf):
            with pytest.raises(NonFiniteError, match="^A contains NaN or infinite values$"):
                params.with_A(np.array([[0.5, value], [0.0, 0.5]]))
        assert params.A.tobytes() == before.tobytes()

    def test_swaps_a_only_and_runs_no_covariance_check(self, monkeypatch):
        """The copy holds the new A and the other fields themselves; the original keeps its A."""
        params = _identity_params()
        A = np.array([[0.3, 0.1], [0.0, 0.2]])
        calls = _count_covariance_checks(monkeypatch)
        swapped = params.with_A(A)
        copy.copy(params)
        pickle.loads(pickle.dumps(params))
        assert calls == []
        assert swapped.A is A and params.A.tobytes() == (0.5 * np.eye(2)).tobytes()
        assert all(getattr(swapped, name) is getattr(params, name) for name in ("H", "Q", "R", "mu0", "Sigma0"))
        assert params.with_A([[0, 1], [1, 0]]).A.dtype == np.float64

    @given(seed=st.integers(0, 2**32 - 1), n_x=st.integers(1, 6), n_y=st.integers(1, 6))
    def test_filter_at_with_a_has_the_bytes_of_replace(self, seed, n_x, n_y):
        rng = np.random.default_rng(seed)
        params = random_stable_params(rng, n_x, n_y)
        A = 0.9 * rng.standard_normal((n_x, n_x)) / np.sqrt(n_x)
        ys = rng.standard_normal((20, n_y))
        with np.errstate(over="ignore", invalid="ignore"):
            got = attempt(kalman_filter, params.with_A(A), ys)
            want = attempt(kalman_filter, dataclasses.replace(params, A=A), ys)
        fields = ("filtered_means", "filtered_covs", "residuals", "predictive_covs", "neg_log_lik", "steady_step")

        def outcome(run):
            if isinstance(run, Exception):
                return type(run), str(run)
            return [np.asarray(getattr(run, name)).tobytes() for name in fields]

        assert outcome(got) == outcome(want)


class TestCheckedOnce:
    """A model's covariances are checked when it is built, and by nothing that takes it."""

    def test_a_built_model_is_checked_by_no_function_that_takes_it(self, monkeypatch):
        params = _identity_params()
        ys = simulate(params, K=30, seed=0).observations
        calls = _count_covariance_checks(monkeypatch)
        kalman_filter(params, ys)
        kalman_filter_lockstep([params, params.with_A(0.4 * np.eye(2))], ys)
        simulate(params, K=5, seed=1)
        objective(0.3 * np.eye(2), params, ys, Potential("l1", gamma=1.0))
        assert calls == []
        ModelParams(**params.__dict__)
        assert calls == ["Q", "R", "Sigma0"]

    def test_a_lone_fit_and_a_grid_check_their_model_once(self, monkeypatch):
        """A table2_8_4 graphit fit checks nothing once its model exists; quick's graphit grid checks its one model."""
        table = load_scenario(CONFIGS / "table2_8_4.cfg")
        _, params, trajectory = _realization_data(table, 0)
        cfg = EstimatorConfig(table.potentials["graphit"], table.epsilon, table.max_outer, table.dr)
        calls = _count_covariance_checks(monkeypatch)
        result = graphit(trajectory.observations, params, default_init(table.n_x), cfg)
        assert result.outer_iterations > 1 and calls == []
        quick = load_scenario(CONFIGS / "quick.cfg")
        grid_search(quick, "graphit", quick.grids["graphit"])
        assert calls == ["Q", "R", "Sigma0"]


class TestSimulate:
    def test_noiseless_geometric_decay(self):
        params = ModelParams(
            A=np.array([[0.5]]),
            H=np.array([[1.0]]),
            Q=np.zeros((1, 1)),
            R=np.zeros((1, 1)),
            mu0=np.array([1.0]),
            Sigma0=np.zeros((1, 1)),
        )
        traj = simulate(params, K=10, seed=0, noiseless=True)
        np.testing.assert_allclose(traj.states[:, 0], 0.5 ** np.arange(11))
        np.testing.assert_allclose(traj.observations[:, 0], 0.5 ** np.arange(1, 11))

    def test_same_seed_identical(self):
        params = _identity_params()
        a = simulate(params, K=50, seed=123)
        b = simulate(params, K=50, seed=123)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.observations, b.observations)

    def test_law_of_large_numbers(self):
        nx = 2
        params = ModelParams(
            A=np.zeros((nx, nx)),
            H=np.eye(nx),
            Q=np.eye(nx),
            R=np.eye(nx),
            mu0=np.zeros(nx),
            Sigma0=np.eye(nx),
        )
        K = 1000
        traj = simulate(params, K=K, seed=7)
        mean = traj.states[1:].mean(axis=0)
        assert np.all(np.abs(mean) < 5.0 / np.sqrt(K))

    def test_rejects_bad_horizon(self):
        for K in (0, -1, 2.5, 3.0, np.nan, np.inf, "3", True):
            with pytest.raises(ValueError, match=f"^K must be >= 1 and an integer, got {K}$"):
                simulate(_identity_params(), K=K, seed=0)

    @given(
        nx=st.integers(1, 12),
        ny=st.integers(1, 12),
        K=st.integers(1, 120),
        q_scale=st.floats(1e-6, 1e2),
        r_scale=st.floats(1e-6, 1e2),
        noiseless=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_per_step_sampler_byte_for_byte(self, nx, ny, K, q_scale, r_scale, noiseless, seed):
        """One draw and stacked products give the stream and the bytes of the per-step sampler."""
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((nx, nx))
        A *= 0.95 / np.max(np.abs(np.linalg.eigvals(A)))
        mu0 = rng.standard_normal(nx)
        mu0[::2] = -0.0  # a noiseless x_0 is mu0, signed zeros included
        params = ModelParams(
            A=A,
            H=rng.standard_normal((ny, nx)),
            Q=q_scale * random_spd(rng, nx),
            R=r_scale * random_spd(rng, ny),
            mu0=mu0,
            Sigma0=random_spd(rng, nx),
        )
        got = simulate(params, K, seed, noiseless=noiseless)
        want = reference_simulate(params, K, seed, noiseless=noiseless)
        assert got.states.tobytes() == want.states.tobytes()
        assert got.observations.tobytes() == want.observations.tobytes()


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.diag([0.3, -0.9])) == pytest.approx(0.9, abs=1e-12)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(11)
        cases = []
        for _ in range(100):
            n = rng.integers(1, 7)
            cases.append(rng.standard_normal((n, n)))
        # Two nearly equal leading singular values, which stall power iteration.
        cases.append(np.diag([1.0, 1.0 - 1e-14]))
        for M in cases:
            ref = float(np.linalg.svd(M, compute_uv=False)[0])
            assert spectral_norm(M) == pytest.approx(ref, rel=1e-14)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            spectral_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_a_vector_or_a_number_is_one_row(self):
        assert spectral_norm(-2.0) == 2.0
        assert spectral_norm([3.0, 4.0]) == pytest.approx(5.0, rel=1e-15)


class TestGenerateSparseA:
    def test_support_size_and_norm(self):
        A = generate_sparse_A(8, 4, target_norm=0.9, seed=3)
        assert np.count_nonzero(A) == 4
        ref = float(np.linalg.svd(A, compute_uv=False)[0])
        assert ref == pytest.approx(0.9, abs=1e-8)

    def test_full_support(self):
        A = generate_sparse_A(3, 9, target_norm=0.5, seed=1)
        assert np.count_nonzero(A) == 9
        assert float(np.linalg.svd(A, compute_uv=False)[0]) == pytest.approx(0.5, abs=1e-8)

    def test_seeds_give_different_supports(self):
        support = lambda A: frozenset(zip(*np.nonzero(A)))
        a = support(generate_sparse_A(8, 4, seed=0))
        b = support(generate_sparse_A(8, 4, seed=1))
        assert a != b

    def test_stability_of_defaults(self):
        for seed in range(20):
            A = generate_sparse_A(6, 5, seed=seed)
            assert spectral_norm(A) < 1.0

    def test_rejects_bad_support(self):
        for S in (0, 10, 2.5, np.nan, True):
            with pytest.raises(ValueError, match=f"^S must be an integer in \\[1, 9\\], got {S}$"):
                generate_sparse_A(3, S)

    @pytest.mark.parametrize("N_x", [0, 2.5, 4.0, np.nan, True])
    def test_rejects_bad_size(self, N_x):
        for make in (lambda: generate_sparse_A(N_x, 2), lambda: default_init(N_x)):
            with pytest.raises(ValueError, match=f"^N_x must be >= 1 and an integer, got {N_x}$"):
                make()

    @pytest.mark.parametrize("target_norm", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_target_norm(self, target_norm):
        with pytest.raises(ValueError, match=f"^target_norm must be finite and > 0, got {target_norm}$"):
            generate_sparse_A(4, 3, target_norm=target_norm)


@pytest.mark.parametrize("seed", [-1, 2.5, "x", np.nan, [1, 2], True], ids=repr)
def test_rejects_bad_seed(seed):
    """A seed that is not an integer >= 0, a SeedSequence or None is a ValueError naming it, in both modes."""
    match = "^seed must be an integer >= 0, a SeedSequence or None, got "
    makes = (
        lambda: simulate(_identity_params(), 3, seed),
        lambda: simulate(_identity_params(), 3, seed, noiseless=True),
        lambda: generate_sparse_A(3, 2, 0.9, seed),
    )
    for make in makes:
        with pytest.raises(ValueError, match=match):
            make()


@pytest.mark.parametrize(
    "seed", [0, 7, np.int64(7), np.random.SeedSequence(7), None], ids=["0", "7", "int64", "SeedSequence", "None"]
)
def test_accepts_integer_seeds_seed_sequences_and_none(seed):
    assert simulate(_identity_params(), 3, seed).observations.shape == (3, 2)
    assert np.count_nonzero(generate_sparse_A(3, 2, 0.9, seed)) == 2
    if seed is not None:
        assert np.array_equal(generate_sparse_A(3, 2, 0.9, seed), generate_sparse_A(3, 2, 0.9, seed))
