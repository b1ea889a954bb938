"""Scenario configs: the `Scenario` record and the INI reader that fills it.

Scenario files use an INI-style ``key = value`` grammar (see README for the
full schema). An absent optional key leaves the default of its `Scenario` or
`DRConfig` field, so each default is written once, on the dataclass.
"""

from __future__ import annotations

import configparser
import itertools
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .algorithms import EstimatorConfig
from .exceptions import ConfigError
from .penalties import SHAPE_FIELD, Potential
from .solver import DRConfig

METHODS = ("graphit", "graphem", "mlem")
PENALIZED = ("graphit", "graphem")  # the methods that take a potential


@dataclass(frozen=True)
class Scenario:
    """One benchmark setup: model sizes, noise levels, methods, seeds."""

    scenario_id: str
    n_x: int
    n_y: int
    s: int
    k: int
    sigma_q: float = 0.1
    sigma_r: float = 0.1
    sigma_0: float = 1e-4
    n_realizations: int = 1
    master_seed: int = 0
    methods: tuple[str, ...] = METHODS
    potentials: dict[str, Potential] = field(default_factory=dict)
    grids: dict[str, tuple[Potential, ...]] = field(default_factory=dict)
    epsilon: float = 1e-3
    max_outer: int = 50
    dr: DRConfig = field(default_factory=DRConfig)
    edge_threshold: float = 1e-10
    target_norm: float = 0.9

    def __post_init__(self):
        if min(self.n_x, self.n_y, self.k, self.n_realizations) < 1:
            raise ConfigError("dimensions, horizon and realization count must be positive")
        if not 1 <= self.s <= self.n_x * self.n_x:
            raise ConfigError(f"support size s={self.s} outside [1, {self.n_x * self.n_x}]")
        if not all(0 < sigma < math.inf for sigma in (self.sigma_q, self.sigma_r, self.sigma_0)):
            raise ConfigError("sigma_q, sigma_r and sigma_0 must be finite and > 0")
        if not 0 <= self.edge_threshold < math.inf:
            raise ConfigError(f"edge_threshold must be >= 0 and finite, got {self.edge_threshold}")
        if not 0 < self.target_norm < math.inf:
            raise ConfigError(f"target_norm must be finite and > 0, got {self.target_norm}")
        try:
            EstimatorConfig(epsilon=self.epsilon, max_outer=self.max_outer)
        except ValueError as err:
            raise ConfigError(str(err)) from None
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if not self.methods:
            raise ConfigError("at least one method must be selected")
        for i, m in enumerate(self.methods):
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")
            if m in self.methods[:i]:
                raise ConfigError(f"method {m!r} is listed more than once")
            if m in PENALIZED and m not in self.potentials:
                raise ConfigError(f"method {m} requires a [potential.{m}] section")


# Optional keys and their types, by section; each fills the Scenario field of
# the same name. [estimator] keys named dr_<field> fill the DRConfig instead.
_SCENARIO_KEYS = {
    "n_y": int, "sigma_q": float, "sigma_r": float, "sigma_0": float,
    "n_realizations": int, "master_seed": int, "edge_threshold": float, "target_norm": float,
}
_ESTIMATOR_KEYS = {"epsilon": float, "max_outer": int}
_DR_KEYS = {"step": float, "relaxation": float, "tol": float, "max_iter": int}
# The config key of each Potential shape field.
_SHAPE_KEYS = {"lam": "lambda", "a": "a"}
# Every key each kind of section may hold; "potential." and "grid." cover [potential.<method>] and [grid.<method>].
_KNOWN_KEYS = {
    "scenario": {"id", "n_x", "s", "k", "methods", *_SCENARIO_KEYS},
    "estimator": {*_ESTIMATOR_KEYS, *("dr_" + key for key in _DR_KEYS)},
    "potential.": {"family", "gamma", *_SHAPE_KEYS.values()},
    "grid.": {"gamma", *_SHAPE_KEYS.values()},
}


def _get_typed(section, key, cast):
    if key not in section:
        raise ConfigError(f"missing key {key!r} in section [{section.name}]")
    raw = section[key]
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"cannot parse {key} = {raw!r} in section [{section.name}]") from None


def _present(section, types: dict, prefix: str = "") -> dict:
    """The keys of `types` that the section holds (named `prefix` + key there), parsed."""
    return {key: _get_typed(section, prefix + key, cast) for key, cast in types.items() if prefix + key in section}


def _parse_floats(section, key) -> tuple[float, ...]:
    """The whitespace-separated numbers of `key`; the section must hold at least one."""
    values = _get_typed(section, key, lambda raw: tuple(float(tok) for tok in raw.split()))
    if not values:
        raise ConfigError(f"missing key {key!r} in section [{section.name}]")
    return values


def _check_shape_keys(section, family: str) -> None:
    """A shape key that `family` does not take is an error, not a value to drop."""
    for shape, key in _SHAPE_KEYS.items():
        if key in section and family in SHAPE_FIELD and SHAPE_FIELD[family] != shape:
            raise ConfigError(f"key {key!r} in section [{section.name}] does not apply to the {family} family")


def _load_potential(cp: configparser.ConfigParser, method: str) -> Potential | None:
    name = f"potential.{method}"
    if name not in cp:
        return None
    sec = cp[name]
    default_family = "l1" if method == "graphem" else None
    family = sec.get("family", default_family)
    if family is None:
        raise ConfigError(f"missing key 'family' in section [{name}]")
    if method == "graphem" and family != "l1":
        raise ConfigError("graphem uses the l1 potential only")
    _check_shape_keys(sec, family)
    gamma = _get_typed(sec, "gamma", float)
    shapes = {shape: _get_typed(sec, key, float) for shape, key in _SHAPE_KEYS.items() if key in sec}
    try:
        return Potential(family, gamma=gamma, **shapes)
    except ValueError as err:
        raise ConfigError(f"invalid [{name}]: {err}") from None


def _load_grid(cp: configparser.ConfigParser, method: str, template: Potential | None) -> tuple[Potential, ...] | None:
    """The points of [grid.<method>]: its gamma values by its shape values, of the potential's family."""
    name = f"grid.{method}"
    if name not in cp:
        return None
    if template is None:
        raise ConfigError(f"[{name}] needs a [potential.{method}] section")
    sec = cp[name]
    _check_shape_keys(sec, template.family)
    shape = SHAPE_FIELD[template.family]
    axes = {"gamma": _parse_floats(sec, "gamma")}
    if shape is not None:
        axes[shape] = _parse_floats(sec, _SHAPE_KEYS[shape])
    try:
        points = itertools.product(*axes.values())
        return tuple(Potential(template.family, **dict(zip(axes, point))) for point in points)
    except ValueError as err:
        raise ConfigError(f"invalid [{name}]: {err}") from None


def load_scenario(path: str | Path, overrides: dict | None = None) -> Scenario:
    """Parse a scenario config file, then apply CLI overrides on top."""
    path = Path(path)
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as err:
        raise ConfigError(f"cannot parse config file: {err}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "scenario" not in cp:
        raise ConfigError(f"{path}: missing [scenario] section")
    for name in cp.sections():
        head, dot, method = name.partition(".")
        known = _KNOWN_KEYS.get(head + dot)
        if known is None or (dot and method not in PENALIZED):
            raise ConfigError(
                f"unknown section [{name}]; sections are [scenario], [estimator], "
                f"and [potential.<method>], [grid.<method>] for method in {PENALIZED}"
            )
        unknown = [key for key in cp[name] if key not in known]
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in section [{name}]")
    sec = cp["scenario"]
    # A proxy of an absent section reads as empty.
    est = configparser.SectionProxy(cp, "estimator")

    values = {key: _get_typed(sec, key, int) for key in ("n_x", "s", "k")}
    values["n_y"] = values["n_x"]
    values.update(_present(sec, _SCENARIO_KEYS))
    values.update(_present(est, _ESTIMATOR_KEYS))
    if "methods" in sec:
        values["methods"] = tuple(sec["methods"].split())
    potentials = {}
    grids = {}
    for method in PENALIZED:
        pot = _load_potential(cp, method)
        if pot is not None:
            potentials[method] = pot
        grid = _load_grid(cp, method, pot)
        if grid is not None:
            grids[method] = grid

    try:
        dr = DRConfig(**_present(est, _DR_KEYS, prefix="dr_"))
    except ValueError as err:
        raise ConfigError(f"invalid [estimator]: {err}") from None
    try:
        scenario = Scenario(
            scenario_id=sec.get("id", path.stem), potentials=potentials, grids=grids, dr=dr, **values
        )
    except ValueError as err:
        raise ConfigError(str(err)) from None

    if overrides:
        scenario = replace(scenario, **overrides)
    return scenario
