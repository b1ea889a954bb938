"""A bad argument is a ConfigError, which is both a GraphitError and a ValueError, and names the argument.

`ConfigError` is the package's one error type for a bad argument, so a
caller may catch it as the package's error or as the builtin one. The last
test keeps it the only one: no module of the package raises a bare
`ValueError`.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

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
from graphit.cli import grid_search, run_benchmark
from graphit.em_stats import EMStats
from graphit.scenario import Scenario

SRC = Path(__file__).resolve().parents[1] / "src" / "graphit"

I2 = np.eye(2)
PARAMS = ModelParams(A=0.5 * I2, H=I2, Q=0.1 * I2, R=0.1 * I2, mu0=np.zeros(2), Sigma0=0.1 * I2)
STATS = EMStats(Psi=I2, Phi=I2, Delta=I2)
OBSERVATIONS = np.zeros((5, 2))
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
        lambda: graphem(OBSERVATIONS, PARAMS, I2, EstimatorConfig(potential=Potential("log-sum", gamma=1.0, lam=0.1))),
        "graphem uses the l1 potential only",
    ),
    "compute_stats.smoother": (
        lambda: compute_stats(SmootherRun(np.zeros((1, 2)), I2, np.zeros((0, 2, 2)), np.zeros((0, 2, 2)), np.zeros(0))),
        "smoother run must cover at least one step",
    ),
    "prox_weighted_l1.Omega": (lambda: prox_weighted_l1(I2, -I2, 1.0), "Omega must be finite and >= 0"),
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
