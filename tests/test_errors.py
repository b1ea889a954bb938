"""A bad argument is a ConfigError, which is both a GraphitError and a ValueError, and names the argument.

`ConfigError` is the package's one error type for a bad argument, so a
caller may catch it as the package's error or as the builtin one. Each
argument rule checks the type before the range, so a value of the wrong
type is a ConfigError too, never a raw TypeError. The last test keeps
ConfigError the only one: no module of the package raises a bare
`ValueError`.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from graphit import (
    ConfigError,
    DRConfig,
    EstimatorConfig,
    GraphitError,
    ModelParams,
    Potential,
    SmootherRun,
    compute_stats,
    douglas_rachford,
    edge_confusion,
    export_dot,
    generate_sparse_A,
    graphem,
    graphit,
    prox_weighted_l1,
    rmse,
    simulate,
    spectral_norm,
)
from graphit.algorithms import check_graphem
from graphit.cli import grid_search, run_benchmark
from graphit.em_stats import EMStats
from graphit.metrics import check_threshold
from graphit.model import check_count, check_positive, check_support
from graphit.scenario import Scenario
from graphit.solver import check_weights

SRC = Path(__file__).resolve().parents[1] / "src" / "graphit"

I2 = np.eye(2)
PARAMS = ModelParams(A=0.5 * I2, H=I2, Q=0.1 * I2, R=0.1 * I2, mu0=np.zeros(2), Sigma0=0.1 * I2)
STATS = EMStats(Psi=I2, Phi=I2, Delta=I2)
OBSERVATIONS = np.zeros((5, 2))
LOG_SUM = Potential("log-sum", gamma=1.0, lam=0.1)
SCENARIO = dict(scenario_id="errors", n_x=2, n_y=2, s=1, k=5, methods=("graphem",),
                potentials={"graphem": Potential("l1", gamma=1.0)})

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
    "edge_confusion.shape": (lambda: edge_confusion(I2, np.eye(3)), "shape mismatch"),
    "rmse.shape": (lambda: rmse(I2, np.eye(3)), "shape mismatch"),
    "rmse.A_true": (lambda: rmse(I2, np.zeros((2, 2))), "reference matrix is zero"),
    "export_dot.threshold": (lambda: export_dot(I2, np.nan), "threshold must be >= 0 and finite"),
    "export_dot.square": (lambda: export_dot(np.ones((2, 3))), "expected a square matrix"),
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
    "check_weights.ragged": (lambda: check_weights([[1.0], [1.0, 1.0]]), "Omega must be an array of real numbers"),
    "check_weights.dtype": (lambda: check_weights(np.ones((2, 2), complex)), "Omega must be an array of real numbers"),
    "prox_weighted_l1.step": (lambda: prox_weighted_l1(I2, I2, 0.0), "step must be finite and > 0"),
    "douglas_rachford.Omega": (lambda: douglas_rachford(STATS, I2, np.full((2, 2), np.nan), I2), "Omega must be finite"),
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
    "check_weights": (check_weights, "Omega must"),
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
def test_a_wrong_type_is_a_config_error_that_names_the_argument(owner, value):
    """A call succeeds, or raises a ConfigError that names the argument; no raw TypeError or AttributeError escapes."""
    call, start = OWNERS[owner]
    try:
        call(value)
    except ConfigError as err:
        assert str(err).startswith(start)


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
