"""Sparse transition-matrix estimation for linear-Gaussian state-space models.

The package provides exact Kalman/RTS inference, a family of non-convex
sparsity potentials with their reweighted-l1 surrogates, a Douglas-Rachford
inner solver, three estimators (graphit, graphem, mlem), recovery metrics,
and a reproducible Monte-Carlo benchmark harness with a CLI, both in
`graphit.cli`, which `import graphit` leaves unloaded.
"""

from .algorithms import (
    EstimatorConfig,
    EstimatorResult,
    default_init,
    graphem,
    graphit,
    mlem,
    objective,
)
from .em_stats import EMStats, compute_stats, q_quadratic
from .exceptions import (
    ConfigError,
    DimensionMismatchError,
    GraphitError,
    NonFiniteError,
    NotPositiveDefiniteError,
    SingularPredictiveCovarianceError,
    SingularStatisticsError,
)
from .export import BenchmarkRow, export_csv, export_dot
from .kalman import FilterRun, SmootherRun, kalman_filter, rts_smoother
from .metrics import EdgeConfusion, accuracy, edge_confusion, f1, rmse
from .model import (
    ModelParams,
    Trajectory,
    generate_sparse_A,
    simulate,
    spectral_norm,
    validate,
)
from .penalties import (
    FAMILIES,
    Potential,
    emit_penalty_curve,
    penalty_value,
    rho,
    rho_prime,
    weight_matrix,
)
from .scenario import Scenario, load_scenario
from .solver import (
    DRConfig,
    SolverReport,
    douglas_rachford,
    prox_quadratic,
    prox_weighted_l1,
    surrogate_value,
)

__all__ = [
    "BenchmarkRow",
    "ConfigError",
    "DimensionMismatchError",
    "DRConfig",
    "EdgeConfusion",
    "EMStats",
    "EstimatorConfig",
    "EstimatorResult",
    "FAMILIES",
    "FilterRun",
    "GraphitError",
    "ModelParams",
    "NonFiniteError",
    "NotPositiveDefiniteError",
    "Potential",
    "Scenario",
    "SingularPredictiveCovarianceError",
    "SingularStatisticsError",
    "SmootherRun",
    "SolverReport",
    "Trajectory",
    "accuracy",
    "compute_stats",
    "default_init",
    "douglas_rachford",
    "edge_confusion",
    "emit_penalty_curve",
    "export_csv",
    "export_dot",
    "f1",
    "generate_sparse_A",
    "graphem",
    "graphit",
    "kalman_filter",
    "load_scenario",
    "mlem",
    "objective",
    "penalty_value",
    "prox_quadratic",
    "prox_weighted_l1",
    "q_quadratic",
    "rho",
    "rho_prime",
    "rmse",
    "rts_smoother",
    "simulate",
    "spectral_norm",
    "surrogate_value",
    "validate",
    "weight_matrix",
]

__version__ = "0.1.0"

