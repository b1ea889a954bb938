import numpy as np
import pytest

from graphit import (
    DimensionMismatchError,
    ModelParams,
    NonFiniteError,
    NotPositiveDefiniteError,
    generate_sparse_A,
    kalman_filter,
    simulate,
    spectral_norm,
    validate,
)


def _identity_params(nx=2, ny=2):
    return ModelParams(
        A=0.5 * np.eye(nx),
        H=np.eye(ny, nx),
        Q=np.eye(nx),
        R=np.eye(ny),
        mu0=np.zeros(nx),
        Sigma0=np.eye(nx),
    )


class TestValidate:
    def test_identity_covariances_accepted(self):
        params = _identity_params()
        assert validate(params) is params

    def test_negative_eigenvalue_rejected(self):
        params = _identity_params()
        bad = ModelParams(**{**params.__dict__, "Q": np.diag([1.0, -1.0])})
        with pytest.raises(NotPositiveDefiniteError, match="Q"):
            validate(bad)

    def test_dimension_mismatch_names_pair(self):
        params = ModelParams(
            A=np.eye(3),
            H=np.zeros((3, 2)),
            Q=np.eye(3),
            R=np.eye(3),
            mu0=np.zeros(3),
            Sigma0=np.eye(3),
        )
        with pytest.raises(DimensionMismatchError, match="H"):
            validate(params)

    def test_asymmetric_covariance_rejected(self):
        params = _identity_params()
        Q = np.array([[1.0, 1e-6], [0.0, 1.0]])
        bad = ModelParams(**{**params.__dict__, "Q": Q})
        with pytest.raises(NotPositiveDefiniteError):
            validate(bad)

    @pytest.mark.parametrize("name", ["A", "H", "mu0", "Q", "R", "Sigma0"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "check",
        [
            lambda p: validate(p),
            lambda p: validate(p, semidefinite_ok=True),
            lambda p: simulate(p, K=5, seed=0),
            lambda p: kalman_filter(p, np.ones((5, 2))),
        ],
        ids=["validate", "validate-semidefinite", "simulate", "kalman-filter"],
    )
    def test_non_finite_covariance_named(self, name, value, check):
        params = _identity_params()
        M = getattr(params, name).copy()
        M.flat[0] = value
        with pytest.raises(NonFiniteError, match=f"^{name} contains NaN or infinite values$"):
            check(ModelParams(**{**params.__dict__, name: M}))

    def test_semidefinite_flag_allows_zero(self):
        params = _identity_params()
        psd = ModelParams(**{**params.__dict__, "Q": np.zeros((2, 2))})
        validate(psd, semidefinite_ok=True)
        with pytest.raises(NotPositiveDefiniteError):
            validate(psd)


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
        with pytest.raises(ValueError):
            simulate(_identity_params(), K=0, seed=0)


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
        with pytest.raises(ValueError):
            generate_sparse_A(3, 0)
        with pytest.raises(ValueError):
            generate_sparse_A(3, 10)
