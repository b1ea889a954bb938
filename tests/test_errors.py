"""A bad argument is a ConfigError, which is both a GraphitError and a ValueError, and names the argument.

`ConfigError` is the package's one error type for a bad argument, so a
caller may catch it as the package's error or as the builtin one. Each
argument rule checks the type before the range, so a value of the wrong
type is a ConfigError too, never a raw TypeError; every array argument is
converted by one owner, `real_array`, whose ConfigError names it. The last
test keeps ConfigError the only one: no module of the package raises a bare
`ValueError`. A matrix of the wrong shape or a covariance that is not
semidefinite is a ConfigError too, raised by the shape owners
`model.check_square` and `check_shape` (and the two rules that relate
sizes, `validate`'s of H and the observations'), whose message names it.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from graphit import (
    ConfigError,
    DimensionMismatchError,
    DRConfig,
    EstimatorConfig,
    GraphitError,
    ModelParams,
    NotPositiveDefiniteError,
    Potential,
    SmootherRun,
    compute_stats,
    douglas_rachford,
    edge_confusion,
    emit_penalty_curve,
    export_dot,
    generate_sparse_A,
    graphem,
    graphit,
    kalman_filter,
    objective,
    penalty_value,
    prox_quadratic,
    prox_weighted_l1,
    q_quadratic,
    rho,
    rho_prime,
    rmse,
    simulate,
    spectral_norm,
    surrogate_value,
    weight_matrix,
)
from graphit.algorithms import check_graphem
from graphit.cli import grid_search, run_benchmark
from graphit.em_stats import EMStats, QFactors
from graphit.metrics import check_threshold
from graphit.model import check_count, check_positive, check_support
from graphit.scenario import Scenario
from graphit.solver import check_weights, douglas_rachford_lockstep

SRC = Path(__file__).resolve().parents[1] / "src" / "graphit"

I2 = np.eye(2)
I3 = np.eye(3)
EMPTY = np.zeros((0, 0))
PARAMS = ModelParams(A=0.5 * I2, H=I2, Q=0.1 * I2, R=0.1 * I2, mu0=np.zeros(2), Sigma0=0.1 * I2)
STATS = EMStats(Psi=I2, Phi=I2, Delta=I2)
OBSERVATIONS = np.zeros((5, 2))
LOG_SUM = Potential("log-sum", gamma=1.0, lam=0.1)
L1 = Potential("l1", gamma=1.0)
# The zero-size models: N_x = 0 (every field empty), and N_x = 1 with N_y = 0.
NO_STATE = ModelParams(A=EMPTY, H=EMPTY, Q=EMPTY, R=EMPTY, mu0=np.zeros(0), Sigma0=EMPTY)
NO_OUTPUT = ModelParams(A=np.eye(1), H=np.zeros((0, 1)), Q=np.eye(1), R=EMPTY, mu0=np.zeros(1), Sigma0=np.eye(1))
SCENARIO = dict(scenario_id="errors", n_x=2, n_y=2, s=1, k=5, methods=("graphem",),
                potentials={"graphem": Potential("l1", gamma=1.0)})


def _lockstep_entry(*problem):
    """Raise the error that `douglas_rachford_lockstep` returns as the entry of its one `problem`."""
    (outcome,) = douglas_rachford_lockstep([problem], I2, DRConfig(), QFactors.of(I2))
    raise outcome


# (call, a fragment of the message that names the argument), one per public argument check.
CASES = {
    "EstimatorConfig.epsilon": (lambda: EstimatorConfig(epsilon=0.0), "epsilon must be finite and > 0"),
    "EstimatorConfig.max_outer": (lambda: EstimatorConfig(max_outer=0), "max_outer must be >= 1"),
    "DRConfig.step": (lambda: DRConfig(step=np.nan), "step must be finite and > 0"),
    "DRConfig.relaxation": (lambda: DRConfig(relaxation=2.0), "relaxation must be in (0, 2)"),
    "DRConfig.tol": (lambda: DRConfig(tol=np.inf), "tol must be finite and > 0"),
    "Potential.family": (lambda: Potential("l2", gamma=1.0), "unknown potential family 'l2'"),
    "Potential.gamma": (lambda: Potential("l1", gamma=-1.0), "gamma must be finite and > 0"),
    "Potential.lam": (lambda: Potential("log-sum", gamma=1.0, lam=0.0), "log-sum requires a finite lam > 0"),
    "Potential.a": (lambda: Potential("l1", gamma=1.0, a=3.0), "l1 takes no a"),
    "simulate.K": (lambda: simulate(PARAMS, 0, 0), "K must be >= 1"),
    "simulate.seed": (lambda: simulate(PARAMS, 5, -1), "seed must be an integer >= 0"),
    "generate_sparse_A.N_x": (lambda: generate_sparse_A(0, 1), "N_x must be >= 1"),
    "generate_sparse_A.S": (lambda: generate_sparse_A(3, 10), "S must be an integer in [1, 9]"),
    "generate_sparse_A.target_norm": (lambda: generate_sparse_A(3, 2, np.inf), "target_norm must be finite and > 0"),
    "spectral_norm.M": (lambda: spectral_norm([[np.nan]]), "spectral_norm requires finite entries"),
    "edge_confusion.threshold": (lambda: edge_confusion(I2, I2, -1.0), "threshold must be >= 0 and finite"),
    "edge_confusion.shape": (lambda: edge_confusion(I2, I3), "A_hat must have shape (3, 3), got (2, 2)"),
    "rmse.shape": (lambda: rmse(I2, I3), "A_hat must have shape (3, 3), got (2, 2)"),
    "rmse.A_true": (lambda: rmse(I2, np.zeros((2, 2))), "reference matrix is zero"),
    "export_dot.threshold": (lambda: export_dot(I2, np.nan), "threshold must be >= 0 and finite"),
    "export_dot.square": (lambda: export_dot(np.ones((2, 3))), "A must be a non-empty square matrix, got shape (2, 3)"),
    "export_dot.empty": (lambda: export_dot(EMPTY), "A must be a non-empty square matrix, got shape (0, 0)"),
    "export_dot.finite": (lambda: export_dot(np.full((2, 2), np.inf)), "the matrix has NaN or infinite entries"),
    "graphit.potential": (
        lambda: graphit(OBSERVATIONS, PARAMS, I2, EstimatorConfig()), "graphit requires a potential"
    ),
    "graphem.potential": (
        lambda: graphem(OBSERVATIONS, PARAMS, I2, EstimatorConfig(potential=LOG_SUM)),
        "graphem uses the l1 potential only",
    ),
    "compute_stats.smoother": (
        lambda: compute_stats(SmootherRun(np.zeros((1, 2)), I2, np.zeros((0, 2, 2)), np.zeros((0, 2, 2)), np.zeros(0))),
        "smoother run must cover at least one step",
    ),
    "check_graphem": (lambda: check_graphem(Potential("l1", gamma=1.0), LOG_SUM), "graphem uses the l1 potential only"),
    "prox_weighted_l1.Omega": (lambda: prox_weighted_l1(I2, -I2, 1.0), "Omega must be finite and >= 0"),
    "check_weights.ragged": (
        lambda: check_weights([[1.0], [1.0, 1.0]], (2, 2)), "Omega must be an array of real numbers"
    ),
    "check_weights.dtype": (
        lambda: check_weights(np.ones((2, 2), complex), (2, 2)), "Omega must be an array of real numbers"
    ),
    "prox_weighted_l1.Omega.shape": (
        lambda: prox_weighted_l1(I2, np.ones((1, 3)), 1.0), "Omega must have shape (2, 2), got (1, 3)"
    ),
    "prox_weighted_l1.Omega.row": (
        lambda: prox_weighted_l1(I2, np.ones((1, 2)), 1.0), "Omega must have shape (2, 2), got (1, 2)"
    ),
    "douglas_rachford.Omega.shape": (
        lambda: douglas_rachford(STATS, I2, np.ones((1, 3)), I2),
        "Omega must have shape (2, 2), got (1, 3)",
    ),
    "douglas_rachford.Omega.row": (
        lambda: douglas_rachford(STATS, I2, np.ones((1, 2)), I2),
        "Omega must have shape (2, 2), got (1, 2)",
    ),
    "penalty_value.complex": (lambda: penalty_value(L1, np.array([1j])), "A must be an array of real numbers"),
    "emit_penalty_curve.overflow": (
        lambda: emit_penalty_curve(Potential("l1", gamma=1e300), [0.0, 1e10]),
        "the l1 curve at gamma=1e+300 is not finite on [0.0, 10000000000.0]",
    ),
    "prox_weighted_l1.step": (lambda: prox_weighted_l1(I2, I2, 0.0), "step must be finite and > 0"),
    "douglas_rachford.Omega": (lambda: douglas_rachford(STATS, I2, np.full((2, 2), np.nan), I2), "Omega must be finite"),
    "EMStats.Psi": (lambda: EMStats(np.ones((2, 3)), I2, I2), "Psi must be a non-empty square matrix, got shape (2, 3)"),
    "EMStats.Phi": (lambda: EMStats(I3, I2, I2), "Phi must have shape (3, 3), got (2, 2)"),
    "EMStats.Delta": (lambda: EMStats(I2, I2, I3), "Delta must have shape (2, 2), got (3, 3)"),
    "QFactors.of.empty": (lambda: QFactors.of(EMPTY), "Q must be a non-empty square matrix, got shape (0, 0)"),
    "douglas_rachford.A_init.shape": (
        lambda: douglas_rachford(STATS, I2, np.ones((3, 3)), I3), "A_init must have shape (2, 2), got (3, 3)"
    ),
    "douglas_rachford.Q.shape": (
        lambda: douglas_rachford(EMStats(I3, I3, I3), I2, np.ones((2, 2)), I2), "Q must have shape (3, 3), got (2, 2)"
    ),
    "douglas_rachford_lockstep.A_init.shape": (
        lambda: _lockstep_entry(STATS, np.ones((3, 3)), I3), "A_init must have shape (2, 2), got (3, 3)"
    ),
    "prox_quadratic.V.shape": (lambda: prox_quadratic(I3, STATS, I2, 1.0), "V must have shape (2, 2), got (3, 3)"),
    "prox_quadratic.Q.shape": (lambda: prox_quadratic(I2, STATS, I3, 1.0), "Q must have shape (2, 2), got (3, 3)"),
    "q_quadratic.A.shape": (lambda: q_quadratic(I3, STATS, I2), "A must have shape (2, 2), got (3, 3)"),
    "q_quadratic.Q.shape": (lambda: q_quadratic(I2, STATS, I3), "Q must have shape (2, 2), got (3, 3)"),
    "surrogate_value.Omega.shape": (
        lambda: surrogate_value(I2, STATS, I2, np.ones((3, 3))), "Omega must have shape (2, 2), got (3, 3)"
    ),
    "kalman_filter.no_state": (
        lambda: kalman_filter(NO_STATE, np.zeros((5, 0))), "A must be a non-empty square matrix, got shape (0, 0)"
    ),
    "kalman_filter.no_output": (
        lambda: kalman_filter(NO_OUTPUT, np.zeros((5, 0))), "H must have shape (N_y, 1) with N_y >= 1, got (0, 1)"
    ),
    "grid_search.jobs": (
        lambda: grid_search(Scenario(**SCENARIO), "graphem", [Potential("l1", gamma=1.0)], jobs=0), "jobs must be >= 1"
    ),
    "run_benchmark.jobs": (lambda: run_benchmark(Scenario(**SCENARIO), jobs=-1), "jobs must be >= 1"),
    "Scenario.sigma_r": (lambda: Scenario(**SCENARIO, sigma_r=0.0), "sigma_r must be finite and > 0"),
    "Scenario.s": (lambda: Scenario(**{**SCENARIO, "s": 5}), "s must be an integer in [1, 4]"),
    "Scenario.edge_threshold": (lambda: Scenario(**SCENARIO, edge_threshold=-1.0), "edge_threshold must be >= 0"),
}


@pytest.mark.parametrize("call, fragment", CASES.values(), ids=CASES.keys())
def test_bad_argument_is_a_config_error(call, fragment):
    with pytest.raises(ConfigError) as caught:
        call()
    assert isinstance(caught.value, GraphitError)
    assert isinstance(caught.value, ValueError)
    assert fragment in str(caught.value)


@pytest.mark.parametrize("error", [DimensionMismatchError, NotPositiveDefiniteError])
def test_a_bad_shape_or_covariance_is_a_config_error(error):
    """Every raise of either reports a caller's argument, so the CLI maps it to exit code 1 like any other."""
    assert issubclass(error, ConfigError)


# A value of each type that no argument takes: None, text, bytes, bool,
# complex, nested lists (ragged, mixed or numeric), an object, a 0-d array.
WRONG_TYPES = st.one_of(
    st.none(),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.booleans(),
    st.complex_numbers(),
    st.lists(st.lists(st.one_of(st.floats(), st.none(), st.text(max_size=2)), max_size=3), max_size=3),
    st.builds(object),
    st.one_of(st.floats(), st.integers(-3, 3), st.booleans()).map(np.array),
)

# (call with the value in place of one argument, how its message starts), per argument owner and each
# public constructor or function field that one guards.
OWNERS = {
    "check_count": (lambda v: check_count(v, "count"), "count must"),
    "check_positive": (lambda v: check_positive(v, "scale"), "scale must"),
    "check_support": (lambda v: check_support(v, 3, "S"), "S must"),
    "check_threshold": (lambda v: check_threshold(v, "threshold"), "threshold must"),
    "check_weights": (lambda v: check_weights(v, (2, 2)), "Omega must"),
    "edge_confusion.threshold": (lambda v: edge_confusion(I2, I2, v), "threshold must"),
    "EstimatorConfig.epsilon": (lambda v: EstimatorConfig(epsilon=v), "epsilon must"),
    "EstimatorConfig.max_outer": (lambda v: EstimatorConfig(max_outer=v), "max_outer must"),
    **{f"DRConfig.{name}": ((lambda v, name=name: DRConfig(**{name: v})), f"{name} must")
       for name in ("step", "relaxation", "tol", "max_iter")},
    "Potential.gamma": (lambda v: Potential("l1", gamma=v), "gamma must"),
    "Potential.lam": (lambda v: Potential("log-sum", gamma=1.0, lam=v), "log-sum requires a finite lam"),
    "Potential.a": (lambda v: Potential("scad", gamma=1.0, a=v), "scad requires a finite a"),
    **{f"Scenario.{name}": ((lambda v, name=name: Scenario(**{**SCENARIO, name: v})), f"{name} must")
       for name in ("n_x", "n_y", "s", "k", "sigma_q", "sigma_r", "sigma_0", "n_realizations", "master_seed",
                    "epsilon", "max_outer", "edge_threshold", "target_norm")},
    "simulate.K": (lambda v: simulate(PARAMS, v, 0), "K must"),
    "simulate.seed": (lambda v: simulate(PARAMS, 5, v), "seed must"),
    "generate_sparse_A.N_x": (lambda v: generate_sparse_A(v, 1), "N_x must"),
    "generate_sparse_A.S": (lambda v: generate_sparse_A(3, v), "S must"),
    "generate_sparse_A.target_norm": (lambda v: generate_sparse_A(3, 2, v), "target_norm must"),
    "generate_sparse_A.seed": (lambda v: generate_sparse_A(3, 2, 0.9, v), "seed must"),
}


@pytest.mark.parametrize("owner", OWNERS)
@given(value=WRONG_TYPES)
@example(value=None)
@example(value="1")
@example(value="x")
@example(value=b"1")
@example(value=True)
@example(value=1j)
@example(value=[[1.0, 1.0], [1.0, 1.0]])
@example(value=[[1.0, 1.0], [1.0]])
@example(value=object())
@example(value=np.array(1.0))
@example(value=np.array([["a", "b"], ["c", "d"]]))
@example(value=np.ones((2, 2), complex))
@example(value=np.ones((2, 2), bool))
def test_a_wrong_type_is_a_config_error_that_names_the_argument(owner, value):
    """A call succeeds, or raises a ConfigError that names the argument; no raw TypeError or AttributeError escapes."""
    call, start = OWNERS[owner]
    try:
        call(value)
    except ConfigError as err:
        assert str(err).startswith(start)


# A value of each type that no array argument takes: None, text, bytes, bool, complex, an object,
# nested lists that are ragged or hold None or text, and arrays of bools, complex numbers or text.
WRONG_ARRAYS = st.one_of(
    st.none(),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.booleans(),
    st.complex_numbers(),
    st.builds(object),
    st.lists(st.lists(st.floats(), max_size=3), min_size=2, max_size=3).filter(
        lambda rows: len({len(row) for row in rows}) > 1
    ),
    st.lists(st.lists(st.one_of(st.none(), st.text(max_size=2)), min_size=1, max_size=3), min_size=1, max_size=3),
    st.lists(st.one_of(st.booleans(), st.complex_numbers(), st.text(max_size=2)), min_size=1, max_size=4).map(np.array),
)

# (call with the value in place of one array argument, the argument's name), per public array argument.
ARRAY_OWNERS = {
    **{f"ModelParams.{name}": ((lambda v, name=name: ModelParams(**{**PARAMS.__dict__, name: v})), name)
       for name in ("A", "H", "Q", "R", "mu0", "Sigma0")},
    **{f"EMStats.{name}": ((lambda v, name=name: EMStats(**{**STATS.__dict__, name: v})), name)
       for name in ("Psi", "Phi", "Delta")},
    "kalman_filter.observations": (lambda v: kalman_filter(PARAMS, v), "observations"),
    "objective.A": (lambda v: objective(v, PARAMS, OBSERVATIONS), "A"),
    "graphit.A0": (lambda v: graphit(OBSERVATIONS, PARAMS, v, EstimatorConfig(potential=L1)), "A0"),
    "rmse.A_hat": (lambda v: rmse(v, I2), "A_hat"),
    "rmse.A_true": (lambda v: rmse(I2, v), "A_true"),
    "edge_confusion.A_hat": (lambda v: edge_confusion(v, I2), "A_hat"),
    "export_dot.A": (export_dot, "A"),
    "spectral_norm.M": (spectral_norm, "M"),
    "penalty_value.A": (lambda v: penalty_value(L1, v), "A"),
    "weight_matrix.A_prev": (lambda v: weight_matrix(LOG_SUM, v), "A_prev"),
    "rho.u": (lambda v: rho(L1, v), "u"),
    "rho_prime.u": (lambda v: rho_prime(LOG_SUM, v), "u"),
    "emit_penalty_curve.grid": (lambda v: emit_penalty_curve(L1, v), "grid"),
    "douglas_rachford.Q": (lambda v: douglas_rachford(STATS, v, I2, I2), "Q"),
    "douglas_rachford.Omega": (lambda v: douglas_rachford(STATS, I2, v, I2), "Omega"),
    "douglas_rachford.A_init": (lambda v: douglas_rachford(STATS, I2, I2, v), "A_init"),
    "prox_weighted_l1.V": (lambda v: prox_weighted_l1(v, I2, 1.0), "V"),
    "prox_weighted_l1.Omega": (lambda v: prox_weighted_l1(I2, v, 1.0), "Omega"),
    "prox_quadratic.V": (lambda v: prox_quadratic(v, STATS, I2, 1.0), "V"),
    "prox_quadratic.Q": (lambda v: prox_quadratic(I2, STATS, v, 1.0), "Q"),
    "q_quadratic.A": (lambda v: q_quadratic(v, STATS, I2), "A"),
    "surrogate_value.Omega": (lambda v: surrogate_value(I2, STATS, I2, v), "Omega"),
}


@pytest.mark.parametrize("owner", ARRAY_OWNERS)
@given(value=WRONG_ARRAYS)
@example(value=[[1.0, 1.0], [1.0]])
@example(value=np.array([["a", "b"], ["c", "d"]]))
@example(value=np.ones((2, 2), complex))
@example(value=np.ones((2, 2), bool))
def test_an_array_of_the_wrong_type_is_a_config_error_that_names_it(owner, value):
    """A ragged or non-real array argument is a ConfigError from `real_array` that names it, whatever the call."""
    call, name = ARRAY_OWNERS[owner]
    with pytest.raises(ConfigError, match=f"^{name} must be an array of real numbers, got "):
        call(value)


def test_empty_weights_are_accepted():
    assert prox_weighted_l1(np.empty((0, 0)), np.empty((0, 0)), 1.0).shape == (0, 0)


def _bare_value_errors(path: Path) -> list[int]:
    """The lines of `path` that raise the builtin ValueError, called or not."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                lines.append(node.lineno)
    return lines


def test_no_module_raises_a_bare_value_error():
    """A bad argument is a ConfigError (a ValueError too), so no check brings back a second error type."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {path.name: lines for path in modules if (lines := _bare_value_errors(path))}
    assert found == {}


def _raisers(path: Path, name: str) -> set:
    """(module, function) of each function in `path` whose body raises the exception class `name`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.FunctionDef):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Raise) and sub.exc is not None:
                    exc = sub.exc.func if isinstance(sub.exc, ast.Call) else sub.exc
                    if isinstance(exc, ast.Name) and exc.id == name:
                        found.add((path.name, node.name))
    return found


def test_only_the_shape_owners_raise_a_dimension_mismatch():
    """Each shape rule has one owner: the two of `model`, and the rules that relate sizes (H's, the observations')."""
    found = set().union(*(_raisers(path, "DimensionMismatchError") for path in SRC.glob("*.py")))
    assert found == {
        ("model.py", "check_square"),
        ("model.py", "check_shape"),
        ("model.py", "validate"),
        ("kalman.py", "_observations"),
    }
