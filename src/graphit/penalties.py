"""Sparsity-promoting scalar potentials and their reweighting rules.

Every potential rho maps |u| to [0, inf), vanishes at 0, increases, and has a
nonincreasing derivative with right limit rho'(0+) = gamma. Concavity on
[0, inf) is what makes the tangent at any point an upper bound, which is the
mechanism behind the reweighted-l1 outer loop: the weight of entry (i, j) is
simply rho'(|A'_{i,j}|) at the current iterate A'.

Families
--------
log-sum      gamma * lam * (log(|u| + lam) - log(lam))
atan         (gamma / lam) * atan(lam |u|)
mangasarian  (gamma / lam) * (1 - exp(-lam |u|))
mcp          gamma |u| - u^2/(2 lam) capped at lam gamma^2 / 2
scad         linear, then quadratic blend, capped at (a+1) gamma^2 / 2
l1           gamma |u| (constant weights; the convex special case)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError
from .model import check_positive, is_real, real_array

# The Potential field that holds each family's shape hyperparameter (None for
# l1, which has gamma only), and the value that field must exceed.
SHAPE_FIELD = {"log-sum": "lam", "atan": "lam", "mangasarian": "lam", "mcp": "lam", "scad": "a", "l1": None}
_SHAPE_FLOOR = {"lam": 0, "a": 2}
FAMILIES = tuple(SHAPE_FIELD)


@dataclass(frozen=True)
class Potential:
    """Tagged penalty description: family plus hyperparameters.

    gamma is the slope at 0+ for every family. lam shapes the non-convexity
    for log-sum/atan/mangasarian/mcp (smaller is closer to a 0-1 count).
    scad instead takes a > 2; l1 takes gamma only. All are finite.
    """

    family: str
    gamma: float
    lam: float | None = None
    a: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown potential family {self.family!r}; choose from {FAMILIES}")
        check_positive(self.gamma, "gamma")
        shape = SHAPE_FIELD[self.family]
        if shape is not None:
            value, floor = getattr(self, shape), _SHAPE_FLOOR[shape]
            if not (is_real(value) and floor < value < math.inf):
                raise ConfigError(f"{self.family} requires a finite {shape} > {floor}, got {value}")
        for other in _SHAPE_FLOOR:
            if other != shape and getattr(self, other) is not None:
                raise ConfigError(f"{self.family} takes no {other}, got {other}={getattr(self, other)}")

    @property
    def hyperparams(self) -> dict[str, float]:
        """The hyperparameters a grid varies: gamma, then the family's shape field if it has one."""
        shape = SHAPE_FIELD[self.family]
        return {"gamma": self.gamma} if shape is None else {"gamma": self.gamma, shape: getattr(self, shape)}


def check_potential(name: str, *values) -> None:
    """Require each value to be a Potential, not a family name or None; the error names the argument."""
    for value in values:
        if not isinstance(value, Potential):
            raise ConfigError(f"{name} must be a Potential, got {value!r}")


def rho(p: Potential, u) -> np.ndarray | float:
    """Potential value at |u|. Vectorized over array input."""
    check_potential("potential", p)
    au = np.abs(real_array(u, "u"))
    g = p.gamma
    if p.family == "log-sum":
        out = g * p.lam * (np.log(au + p.lam) - np.log(p.lam))
    elif p.family == "atan":
        out = (g / p.lam) * np.arctan(p.lam * au)
    elif p.family == "mangasarian":
        out = (g / p.lam) * -np.expm1(-p.lam * au)
    elif p.family == "mcp":
        out = np.where(au <= p.lam * g, g * au - au**2 / (2.0 * p.lam), 0.5 * p.lam * g * g)
    elif p.family == "scad":
        a = p.a
        out = np.select(
            [au <= g, au <= a * g],
            [g * au, -(g * g - 2.0 * a * g * au + au * au) / (2.0 * (a - 1.0))],
            default=0.5 * (a + 1.0) * g * g,
        )
    else:  # l1
        out = g * au
    return out if out.ndim else float(out)


def rho_prime(p: Potential, u) -> np.ndarray | float:
    """Derivative of the potential at |u|; at 0 this is the right limit gamma.

    For scad the middle branch is (a gamma - |u|) / (a - 1), the derivative of
    the quadratic blend; it decays continuously from gamma to 0.
    """
    check_potential("potential", p)
    au = np.abs(real_array(u, "u"))
    g = p.gamma
    if p.family == "log-sum":
        out = g * p.lam / (au + p.lam)
    elif p.family == "atan":
        out = g / (1.0 + p.lam**2 * au**2)
    elif p.family == "mangasarian":
        out = g * np.exp(-p.lam * au)
    elif p.family == "mcp":
        # At the knot, au / lam may round above gamma; a weight is never negative.
        out = np.maximum(np.where(au <= p.lam * g, g - au / p.lam, 0.0), 0.0)
    elif p.family == "scad":
        a = p.a
        out = np.select([au <= g, au <= a * g], [np.full_like(au, g), (a * g - au) / (a - 1.0)], default=0.0)
    else:  # l1
        out = np.full_like(au, g)
    return out if out.ndim else float(out)


def penalty_value(p: Potential, A: np.ndarray) -> float:
    """Total penalty of a matrix: sum of rho(|entry|) over all entries."""
    return float(np.sum(rho(p, real_array(A, "A"))))


def weight_matrix(p: Potential, A_prev: np.ndarray) -> np.ndarray:
    """Reweighting matrix: entrywise rho'(|A_prev|), in [0, gamma] pointwise."""
    return np.asarray(rho_prime(p, real_array(A_prev, "A_prev")))


def emit_penalty_curve(p: Potential, grid) -> np.ndarray:
    """Tabulate (u, rho(|u|)) over a grid of abscissas, one row per point; every value must be finite."""
    grid = real_array(grid, "grid")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, by gamma and range
        values = rho(p, grid)
    if not np.isfinite(values).all():
        at = ", ".join(f"{name}={value}" for name, value in p.hyperparams.items())
        raise ConfigError(f"the {p.family} curve at {at} is not finite on [{grid.min()}, {grid.max()}]")
    return np.column_stack([grid, values])
