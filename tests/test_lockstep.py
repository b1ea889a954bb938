"""The lockstep passes against the 2-D passes they batch, bit for bit.

`graphit grid` fits its points in lockstep (`graphit_lockstep`): one stacked
covariance pass of the filter and one stacked Douglas-Rachford loop over the
fits still running, and the smoother per fit. Each point must get the bytes
that its lone fit gets. The first three tests pin the hazards that this
rests on; the others compare whole passes, solves and fits.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphit.algorithms as algorithms
import graphit.kalman as kalman
from graphit import (
    FAMILIES,
    ConfigError,
    DimensionMismatchError,
    ModelParams,
    NonFiniteError,
    Potential,
    SingularPredictiveCovarianceError,
)
from graphit.algorithms import EstimatorConfig, default_init, graphit, graphit_lockstep
from graphit.em_stats import EMStats
from graphit.exceptions import attempt
from graphit.model import generate_sparse_A, simulate
from graphit.penalties import SHAPE_FIELD
from graphit.solver import DRConfig, QFactors, _norms, douglas_rachford, douglas_rachford_lockstep

from oracles import random_spd, random_stable_params

seeds = st.integers(0, 2**32 - 1)


@given(n=st.integers(1, 32), n_y=st.integers(1, 8), batch=st.integers(2, 9), seed=seeds)
def test_stacked_products_match_ndarray_dot_per_slice(n, n_y, batch, seed):
    """Each product of the lockstep passes, stacked, equals `ndarray.dot`, `np.dot` or 2-D `@` on each slice."""
    rng = np.random.default_rng(seed)
    A, Sigma, W = (rng.standard_normal((batch, n, n)) for _ in range(3))
    H = rng.standard_normal((n_y, n))
    gain, S = rng.standard_normal((batch, n, n_y)), rng.standard_normal((batch, n_y, n_y))
    U = rng.standard_normal((n, n))
    Ut = np.ascontiguousarray(U.T)
    cross = A @ Sigma
    IGH, P, R = np.eye(n) - gain @ H, Sigma, S[0]  # the Joseph update's I - G H, P_k|k-1 and R
    stacked = [
        (cross, lambda j: A[j].dot(Sigma[j])),
        (cross @ A.transpose(0, 2, 1), lambda j: cross[j].dot(A[j].T)),
        (cross @ H.T, lambda j: cross[j].dot(H.T)),
        (H @ gain, lambda j: H.dot(gain[j])),
        (gain @ S @ gain.transpose(0, 2, 1), lambda j: gain[j].dot(S[j]).dot(gain[j].T)),
        (gain @ H, lambda j: gain[j].dot(H)),
        (IGH @ P @ IGH.transpose(0, 2, 1), lambda j: IGH[j].dot(P[j]).dot(IGH[j].T)),
        (gain @ R @ gain.transpose(0, 2, 1), lambda j: gain[j].dot(R).dot(gain[j].T)),
        (np.matmul(U, W), lambda j: np.dot(U, W[j])),
        (np.matmul(W, A), lambda j: np.dot(W[j], A[j])),
        (Ut @ Sigma @ W, lambda j: Ut @ Sigma[j] @ W[j]),  # the prox set-up's U^T Delta W
    ]
    for product, per_slice in stacked:
        for j in range(batch):
            assert np.array_equal(product[j], per_slice(j))


@given(n=st.integers(1, 32), batch=st.integers(1, 9), seed=seeds, scale=st.floats(-8.0, 8.0))
def test_stacked_norms_match_vdot_per_slice(n, batch, seed, scale):
    """`_norms` gives each slice, of a stack or of a compacted one, the bits of sqrt(np.vdot(v, v))."""
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((batch, n, n)) * 10.0 ** scale
    keep = rng.uniform(size=batch) < 0.6
    for stack in (V, V[keep]) if keep.any() else (V,):
        assert np.array_equal(_norms(stack), [math.sqrt(np.vdot(v, v)) for v in stack])


def random_model(rng, n_x, n_y, q_scale):
    params = random_stable_params(rng, n_x, n_y)
    return dataclasses.replace(params, Q=q_scale * params.Q)


def transition_matrices(rng, n_x, batch):
    """Transition matrices of spectral radius 0.1 to 1.3, with now and then one that overflows."""
    As = []
    for _ in range(batch):
        A = rng.standard_normal((n_x, n_x))
        A *= rng.uniform(0.1, 1.3) / max(np.abs(np.linalg.eigvals(A)).max(), 1e-12)
        if rng.uniform() < 0.1:
            A *= 1e160
        As.append(A)
    return As


def outcome_bytes(outcome, fields):
    """A pass's fields as bytes, or its error's type and message."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    return tuple(np.asarray(getattr(outcome, name)).tobytes() for name in fields)


FILTER_FIELDS = ("filtered_means", "filtered_covs", "residuals", "predictive_covs", "predicted_covs",
                 "cross_covs", "neg_log_lik", "steady_step")


@given(
    n_x=st.integers(1, 8), n_y=st.integers(1, 8), K=st.integers(1, 80), batch=st.integers(1, 6),
    q_scale=st.sampled_from([1.0, 1e-3, 0.0]), seed=seeds,
)
def test_lockstep_filter_matches_lone_passes(n_x, n_y, K, batch, q_scale, seed):
    """Every field of each FilterRun, or the error raised, is the lone pass's.

    Q = 0 makes covariances that never settle, so each pass runs to K; an
    overflowing A fails its point while the others go on.
    """
    rng = np.random.default_rng(seed)
    base = random_model(rng, n_x, n_y, q_scale)
    observations = rng.standard_normal((K, n_y))
    params = [dataclasses.replace(base, A=A) for A in transition_matrices(rng, n_x, batch)]
    with np.errstate(over="ignore", invalid="ignore"):
        filters = kalman.kalman_filter_lockstep(params, observations)
        for run, p in zip(filters, params):
            lone = attempt(kalman.kalman_filter, p, observations)
            assert outcome_bytes(run, FILTER_FIELDS) == outcome_bytes(lone, FILTER_FIELDS)


@pytest.mark.parametrize("bad_sets", [(0,), (1,), (0, 2), (0, 1, 2)], ids=str)
@pytest.mark.parametrize("shared", [None, "Q", "observations"])
def test_lockstep_filter_checks_each_transition_matrix(bad_sets, shared):
    """A NaN in one set's A is that set's error, as the lone filter names it; the other sets go on."""
    rng = np.random.default_rng(7)
    base = random_model(rng, 3, 2, 1.0)
    observations = rng.standard_normal((30, 2))
    if shared == "Q":
        base = dataclasses.replace(base, Q=np.where(np.eye(3) == 1, np.inf, base.Q))
    elif shared == "observations":
        observations[4, 1] = np.nan
    params = []
    for j, A in enumerate(transition_matrices(rng, 3, 3)):
        if j in bad_sets:
            A[1, 2] = np.nan
        params.append(dataclasses.replace(base, A=A))
    with np.errstate(over="ignore", invalid="ignore"):
        filters = kalman.kalman_filter_lockstep(params, observations)
        for run, p in zip(filters, params):
            lone = attempt(kalman.kalman_filter, p, observations)
            assert outcome_bytes(run, FILTER_FIELDS) == outcome_bytes(lone, FILTER_FIELDS)
    assert str(filters[bad_sets[0]]) == "A contains NaN or infinite values"


def test_finished_points_ride_the_filter_pass_without_warnings():
    """A failed point and a settled one keep their slices while another runs to K, and nothing warns.

    With Q = 0 the random walk A = I never settles, so the pass runs to K. The
    point at 1.3 I settles and then rides without measurement updates, growing
    until it overflows; the point at 1e160 I fails at step 1 and rides as NaN.
    """
    n, K = 2, 3000
    base = ModelParams(A=np.eye(n), H=np.eye(n), Q=np.zeros((n, n)), R=0.1 * np.eye(n),
                       mu0=np.zeros(n), Sigma0=np.eye(n))
    params = [dataclasses.replace(base, A=scale * np.eye(n)) for scale in (1.0, 1e160, 1.3)]
    observations = np.random.default_rng(5).standard_normal((K, n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        filters = kalman.kalman_filter_lockstep(params, observations)
    assert filters[0].steady_step is None and isinstance(filters[1], NonFiniteError)
    assert filters[2].steady_step < K - math.log(np.finfo(float).max) / math.log(1.3**2)  # rides into overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for run, p in zip(filters, params):
            lone = attempt(kalman.kalman_filter, p, observations)
            assert outcome_bytes(run, FILTER_FIELDS) == outcome_bytes(lone, FILTER_FIELDS)


@given(n_x=st.integers(1, 8), n_y=st.integers(1, 8), K=st.integers(1, 40), batch=st.integers(1, 6), seed=seeds)
def test_lockstep_factors_are_dpotrf_per_slice(n_x, n_y, K, batch, seed):
    """The stacked filter pass factors each S_k by `dpotrf` alone, as the 2-D pass does.

    numpy's stacked Cholesky runs another LAPACK build and differs from
    `dpotrf` in the last bits at n >= 8, so it would move every later value.
    """
    rng = np.random.default_rng(seed)
    base = random_model(rng, n_x, n_y, 1.0)
    params = [dataclasses.replace(base, A=A) for A in transition_matrices(rng, n_x, batch)]
    with np.errstate(over="ignore", invalid="ignore"):
        passes = kalman._filter_passes(params, K)
        for p, stacked in zip(params, passes):
            lone = kalman._filter_pass(p, K)
            assert [L.tobytes() for L in stacked.factors] == [L.tobytes() for L in lone.factors]
            assert (stacked.failed, stacked.steady_step) == (lone.failed, lone.steady_step)


@st.composite
def dr_batches(draw):
    """A batch of weighted-l1 problems with one Q, and a DRConfig; n in 1..8."""
    n = draw(st.integers(1, 8))
    batch = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(seeds))
    Q = random_spd(rng, n, scale=1.0 / n)
    problems = []
    for _ in range(batch):
        stats = EMStats(Psi=random_spd(rng, n), Phi=random_spd(rng, n), Delta=rng.standard_normal((n, n)) * n)
        Omega = rng.uniform(0.0, 1.5, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.7)
        problems.append((stats, Omega, rng.standard_normal((n, n))))
    cfg = DRConfig(
        step=10.0 ** draw(st.floats(-1.0, 1.0)),
        relaxation=draw(st.one_of(st.just(1.0), st.floats(0.05, 1.95))),
        tol=10.0 ** draw(st.floats(-10.0, -3.0)),
        max_iter=draw(st.sampled_from([1, 2, 3, 2000])),
    )
    return problems, Q, cfg


REPORT_FIELDS = ("minimizer", "iterations", "final_residual", "converged", "fell_back")


@pytest.mark.parametrize(
    "Q, error, message",
    [
        (np.array([[0.1, 0.0], [0.0, np.nan]]), NonFiniteError, "Q contains NaN or infinite values"),
        (np.ones((2, 3)), DimensionMismatchError, "Q must have shape (2, 2), got (2, 3)"),
    ],
    ids=["nan", "not-square"],
)
def test_bad_q_fails_each_fit_in_its_filter(Q, error, message):
    """Q is factored before the first outer iteration, yet a bad Q is each fit's filter error, naming Q."""
    params = ModelParams(A=0.5 * np.eye(2), H=np.eye(2), Q=Q, R=0.1 * np.eye(2), mu0=np.zeros(2), Sigma0=0.1 * np.eye(2))
    observations = np.random.default_rng(0).standard_normal((20, 2))
    points = [Potential("l1", gamma=1.0), Potential("log-sum", gamma=3.0, lam=0.1), Potential("mcp", gamma=3.0, lam=0.1)]
    cfg = EstimatorConfig(potential=points[0])
    with pytest.raises(error) as lone:
        graphit(observations, params, default_init(2), cfg)
    outcomes = [lone.value, *graphit_lockstep(observations, params, default_init(2), cfg, points)]
    assert [(type(err), str(err)) for err in outcomes] == [(error, message)] * 4


@given(dr_batches())
def test_douglas_rachford_lockstep_matches_lone_solves(batch):
    """Each problem's report is the lone solve's, minimizer bytes and iteration count included."""
    problems, Q, cfg = batch
    q_factors = QFactors.of(Q)
    reports = douglas_rachford_lockstep(problems, Q, cfg, q_factors)
    for (stats, Omega, A_init), report in zip(problems, reports):
        lone = douglas_rachford(stats, Q, Omega, A_init, cfg, q_factors)
        assert outcome_bytes(report, REPORT_FIELDS) == outcome_bytes(lone, REPORT_FIELDS)


@given(dr_batches(), st.data())
def test_douglas_rachford_lockstep_fails_only_the_bad_weights(batch, data):
    """A negative, NaN or infinite weight is its own problem's ConfigError; the others keep their lone reports."""
    problems, Q, cfg = batch
    bad = data.draw(st.integers(0, len(problems) - 1))
    stats, Omega, A_init = problems[bad]
    Omega = Omega.copy()
    Omega.flat[data.draw(st.integers(0, Omega.size - 1))] = data.draw(st.sampled_from([-1e-3, np.nan, np.inf]))
    problems[bad] = (stats, Omega, A_init)
    q_factors = QFactors.of(Q)
    reports = douglas_rachford_lockstep(problems, Q, cfg, q_factors)
    for j, ((stats, Omega, A_init), report) in enumerate(zip(problems, reports)):
        if j == bad:
            assert (type(report), str(report)) == (ConfigError, "Omega must be finite and >= 0")
        else:
            lone = douglas_rachford(stats, Q, Omega, A_init, cfg, q_factors)
            assert outcome_bytes(report, REPORT_FIELDS) == outcome_bytes(lone, REPORT_FIELDS)


def potentials(draw, count):
    points = []
    for _ in range(count):
        family = draw(st.sampled_from(FAMILIES))
        shape = SHAPE_FIELD[family]
        values = {"lam": 10.0 ** draw(st.floats(-2.0, 0.0)), "a": draw(st.floats(2.1, 5.0))}
        points.append(Potential(family, gamma=10.0 ** draw(st.floats(-0.5, 1.5)),
                                **({shape: values[shape]} if shape else {})))
    return points


@settings(max_examples=20)
@given(
    n_x=st.integers(2, 8), K=st.integers(10, 80), seed=seeds, data=st.data(),
    stage=st.sampled_from(["_filter_run", "rts_smoother"]),
    error=st.sampled_from([NonFiniteError("injected"), SingularPredictiveCovarianceError(3)]),
)
def test_graphit_lockstep_matches_lone_fits(n_x, K, seed, data, stage, error):
    """Each point's A_hat bytes, objective trace, iterates, stop and per-call DR iterations are its lone fit's.

    Points of every family run together. Each outer iteration calls
    `rts_smoother` through `graphit.algorithms` once for each fit whose filter
    succeeded, at the iterate its lone fit smooths there. Some points are made
    to fail in the E-step at a drawn outer iteration (or in the final
    objective), by an error raised at one of their iterates, in the filter or
    in the smoother; each gets the error of its lone fit, and the others go on.
    """
    A_true = generate_sparse_A(n_x, n_x, 0.9, seed)
    params = ModelParams(A=A_true, H=np.eye(n_x), Q=0.01 * np.eye(n_x), R=0.01 * np.eye(n_x),
                         mu0=np.zeros(n_x), Sigma0=1e-8 * np.eye(n_x))
    observations = simulate(params, K, seed).observations
    points = potentials(data.draw, data.draw(st.integers(2, 5)))
    cfg = EstimatorConfig(epsilon=1e-3, max_outer=12)
    A0 = default_init(n_x)

    smoother = algorithms.rts_smoother
    failing_at = set()  # the bytes of each A at which the drawn stage raises `error`

    def smoothing(smoothed):
        """`rts_smoother` that logs the bytes of each A it is called at, and fails at those drawn to."""
        def logged(p, *args):
            smoothed.append(p.A.tobytes())
            if stage == "rts_smoother" and p.A.tobytes() in failing_at:
                raise error
            return smoother(p, *args)
        return logged

    def lone_fits(monkeypatch):
        """For each point, its result, its DR iteration counts and the A of each smoother call."""
        results = []
        for point in points:
            calls, smoothed = [], []
            douglas = algorithms.douglas_rachford

            def counted(*args):
                report = douglas(*args)
                calls.append(report.iterations)
                return report

            monkeypatch.setattr(algorithms, "douglas_rachford", counted)
            monkeypatch.setattr(algorithms, "rts_smoother", smoothing(smoothed))
            result = attempt(graphit, observations, params, A0, dataclasses.replace(cfg, potential=point))
            results.append((result, calls, smoothed))
            monkeypatch.setattr(algorithms, "douglas_rachford", douglas)
            monkeypatch.setattr(algorithms, "rts_smoother", smoother)
        return results

    def lockstep_fits(monkeypatch):
        """The results, each round's DR iteration counts by either solver the round calls, and the smoother calls."""
        rounds, smoothed = [], []
        lockstep, douglas = algorithms.douglas_rachford_lockstep, algorithms.douglas_rachford

        def counted_lockstep(*args):
            reports = lockstep(*args)
            rounds.append([r.iterations for r in reports])
            return reports

        def counted(*args):
            report = douglas(*args)
            rounds.append([report.iterations])
            return report

        monkeypatch.setattr(algorithms, "douglas_rachford_lockstep", counted_lockstep)
        monkeypatch.setattr(algorithms, "douglas_rachford", counted)
        monkeypatch.setattr(algorithms, "rts_smoother", smoothing(smoothed))
        results = graphit_lockstep(observations, params, A0, cfg, points)
        monkeypatch.setattr(algorithms, "douglas_rachford_lockstep", lockstep)
        monkeypatch.setattr(algorithms, "douglas_rachford", douglas)
        monkeypatch.setattr(algorithms, "rts_smoother", smoother)
        return results, rounds, smoothed

    # The E-step of outer iteration f runs at iterate f - 1 (A0 for f = 1); a fit whose
    # E-step fails at f >= 2 fails mid-batch, and at its last iterate, in the final objective.
    with pytest.MonkeyPatch.context() as monkeypatch:
        clean = lone_fits(monkeypatch)
    for result, _, _ in clean:
        if data.draw(st.booleans()):
            f = data.draw(st.integers(2, result.outer_iterations + 1))
            failing_at.add(result.iterates[f - 2].tobytes())

    filter_run = kalman._filter_run

    def failing_filter(p, *args):
        if stage == "_filter_run" and p.A.tobytes() in failing_at:
            raise error
        return filter_run(p, *args)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(kalman, "_filter_run", failing_filter)
        lone = lone_fits(monkeypatch)
        results, rounds, smoothed = lockstep_fits(monkeypatch)

    for (expected, _, _), result in zip(lone, results):
        if isinstance(expected, Exception):
            assert (type(result), str(result)) == (type(expected), str(expected))
            continue
        assert result.A_hat.tobytes() == expected.A_hat.tobytes()
        assert result.objective_trace == expected.objective_trace
        assert (result.outer_iterations, result.stopped_by) == (expected.outer_iterations, expected.stopped_by)
        assert [A.tobytes() for A in result.iterates] == [A.tobytes() for A in expected.iterates]
    # Outer iteration i solves one DR problem per fit that reached it, in grid order.
    assert len(rounds) == max(len(calls) for _, calls, _ in lone)
    for i, iterations in enumerate(rounds):
        assert iterations == [calls[i] for _, calls, _ in lone if len(calls) > i]
    # and smooths once per fit whose filter succeeded there, in grid order.
    longest = max(len(lone_smoothed) for _, _, lone_smoothed in lone)
    assert smoothed == [each[i] for i in range(longest) for _, _, each in lone if len(each) > i]
