"""Scenario configuration: piecewise initial profiles and strict JSON parsing."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .core import (
    AccidentCapacity,
    CapacitySpec,
    ConfigError,
    ConstantCapacity,
    Grid1D,
    ModelParams,
    PiecewiseRampCapacity,
)

KNOWN_MODELS = ("micro", "particle", "macro1", "macro2")


@dataclass(frozen=True)
class PiecewiseProfile:
    """Piecewise-constant profile: values[j] applies where x < thresholds[j].

    Thresholds are strictly increasing; the last one must cover the domain.
    """

    thresholds: tuple
    values: tuple

    def __post_init__(self):
        if len(self.thresholds) != len(self.values) or not self.thresholds:
            raise ConfigError("profile needs matching thresholds and values")
        if np.any(np.diff(self.thresholds) <= 0):
            raise ConfigError("profile thresholds must be strictly increasing")

    @classmethod
    def uniform(cls, value: float, x_max: float = np.inf) -> "PiecewiseProfile":
        return cls((x_max,), (value,))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.thresholds, x, side="right")
        idx = np.minimum(idx, len(self.values) - 1)
        return np.asarray(self.values, dtype=float)[idx]


@dataclass(frozen=True)
class UQConfig:
    distribution: str  # "uniform" or "beta"
    alpha: float = 1.0
    beta: float = 1.0
    n_samples: int = 2000
    pce_nodes: int = 9
    pce_order: int = 0

    def __post_init__(self):
        if self.distribution not in ("uniform", "beta"):
            raise ConfigError(f"unknown distribution {self.distribution!r}")
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigError("beta parameters must be positive")
        if self.n_samples < 1 or self.pce_nodes < 1 or self.pce_order < 0:
            raise ConfigError("invalid UQ sample/node/order counts")


@dataclass(frozen=True)
class Scenario:
    grid: Grid1D
    params: ModelParams
    capacity: CapacitySpec
    rho0: PiecewiseProfile
    h0: PiecewiseProfile
    uq: Optional[UQConfig] = None
    model: Optional[str] = None

    def rho0_field(self) -> np.ndarray:
        return self.rho0(self.grid.centers)

    def h0_field(self) -> np.ndarray:
        return self.h0(self.grid.centers)


def _take(mapping: dict, context: str, required: tuple, optional: tuple = ()):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a JSON object, got {mapping!r}")
    unknown = set(mapping) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}")
    missing = set(required) - set(mapping)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {context}")


def _number(mapping: dict, key: str, context: str, default=None,
            integer: bool = False):
    """mapping[key] (default when absent) as a finite float, or an int if
    `integer`; a ConfigError naming context.key otherwise."""
    if key not in mapping:
        return default
    value = mapping[key]
    try:  # TypeError for a non-number, OverflowError for a huge integer
        ok = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        ok = False
    if not ok or (integer and value != int(value)):
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{context}.{key} must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


def _parse_profile(entries, context: str) -> PiecewiseProfile:
    if not isinstance(entries, list):
        raise ConfigError(f"{context} must be a list of {{x_lt, value}}")
    thresholds, values = [], []
    for i, entry in enumerate(entries):
        where = f"{context}[{i}]"
        _take(entry, where, ("x_lt", "value"))
        thresholds.append(_number(entry, "x_lt", where))
        values.append(_number(entry, "value", where))
        if values[-1] < 0:  # initial densities and headways
            raise ConfigError(
                f"{where}.value must be non-negative, got {values[-1]!r}")
    return PiecewiseProfile(tuple(thresholds), tuple(values))


def _parse_capacity(doc: dict) -> CapacitySpec:
    variant = doc.get("variant") if isinstance(doc, dict) else doc
    if variant == "constant":
        _take(doc, "capacity", ("variant",), ("c0",))
        return ConstantCapacity(_number(doc, "c0", "capacity", 1.0))
    if variant == "piecewise_ramp":
        _take(doc, "capacity", ("variant", "c_low", "x_left", "x_right",
                                "delta"))
        return PiecewiseRampCapacity(_number(doc, "c_low", "capacity"),
                                     _number(doc, "x_left", "capacity"),
                                     _number(doc, "x_right", "capacity"),
                                     _number(doc, "delta", "capacity"))
    if variant == "accident":
        _take(doc, "capacity", ("variant",), ("drop",))
        return AccidentCapacity(_number(doc, "drop", "capacity", 0.4))
    raise ConfigError(f"unknown capacity variant {variant!r}")


def _parse_uq(doc: dict) -> UQConfig:
    _take(doc, "uq", ("distribution",),
          ("n_samples", "pce_nodes", "pce_order"))
    dist = doc["distribution"]
    if isinstance(dist, str):
        name, alpha, beta = dist, 1.0, 1.0
    else:
        _take(dist, "uq.distribution", ("name",), ("alpha", "beta"))
        name = dist["name"]
        alpha = _number(dist, "alpha", "uq.distribution", 1.0)
        beta = _number(dist, "beta", "uq.distribution", 1.0)
    return UQConfig(distribution=name, alpha=alpha, beta=beta,
                    n_samples=_number(doc, "n_samples", "uq", 2000, True),
                    pce_nodes=_number(doc, "pce_nodes", "uq", 9, True),
                    pce_order=_number(doc, "pce_order", "uq", 0, True))


def scenario_from_dict(doc: dict) -> Scenario:
    _take(doc, "scenario", ("domain", "params", "capacity", "initial"),
          ("uq", "model"))

    dom = doc["domain"]
    _take(dom, "domain", ("xmin", "xmax", "dx"), ("periodic",))
    if dom.get("periodic", True) is not True:
        raise ConfigError("domain.periodic must be true (every model runs on "
                          f"a periodic road), got {dom['periodic']!r}")
    grid = Grid1D(_number(dom, "xmin", "domain"),
                  _number(dom, "xmax", "domain"),
                  _number(dom, "dx", "domain"))

    par = doc["params"]
    _take(par, "params", (),
          ("gamma", "eta", "epsilon", "a", "dt", "T", "L", "N"))
    defaults = ModelParams()
    params = ModelParams(
        gamma=_number(par, "gamma", "params", defaults.gamma),
        eta=_number(par, "eta", "params", defaults.eta),
        epsilon=_number(par, "epsilon", "params", defaults.epsilon),
        a=_number(par, "a", "params", defaults.a),
        dt=_number(par, "dt", "params", defaults.dt),
        T=_number(par, "T", "params", defaults.T),
        L=_number(par, "L", "params", defaults.L),
        N=_number(par, "N", "params", defaults.N, integer=True),
    )

    capacity = _parse_capacity(doc["capacity"])

    init = doc["initial"]
    _take(init, "initial", ("rho", "h"))
    rho0 = _parse_profile(init["rho"], "initial.rho")
    h0 = _parse_profile(init["h"], "initial.h")

    uq = _parse_uq(doc["uq"]) if "uq" in doc else None

    model = doc.get("model")
    if model is not None and model not in KNOWN_MODELS:
        raise ConfigError(f"unknown model {model!r}")

    return Scenario(grid=grid, params=params, capacity=capacity,
                    rho0=rho0, h0=h0, uq=uq, model=model)


def load_scenario(path) -> Scenario:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("scenario file must hold a JSON object")
    return scenario_from_dict(doc)


def paper_comparison_scenario(dx: float = 2e-3, dt: float = 2e-3,
                              N: int = 10_000, a: float = 0.0,
                              T: float = 10.0) -> Scenario:
    """Step initial data on [-4, 4] with a ramped capacity drop on [-2, 2]."""
    return Scenario(
        grid=Grid1D(-4.0, 4.0, dx),
        params=ModelParams(gamma=0.5, eta=1e-2, epsilon=1e-3, a=a,
                           dt=dt, T=T, L=1.0 / N, N=N),
        capacity=PiecewiseRampCapacity(0.6, -2.0, 2.0, 0.1),
        rho0=PiecewiseProfile((0.0, 4.0), (0.15, 0.1)),
        h0=PiecewiseProfile((0.0, 4.0), (0.8, 0.95)),
    )


def accident_scenario(dx: float = 1e-3, dt: float = 1e-3, N: int = 10_000,
                      T: float = 10.0, uq: Optional[UQConfig] = None) -> Scenario:
    """Accident of uncertain half-width Y centered at x = 0, no relaxation."""
    return Scenario(
        grid=Grid1D(-4.0, 4.0, dx),
        params=ModelParams(gamma=0.5, eta=1e-2, epsilon=1e-3, a=0.0,
                           dt=dt, T=T, L=1.0 / N, N=N),
        capacity=AccidentCapacity(0.4),
        rho0=PiecewiseProfile((0.0, 4.0), (0.15, 0.1)),
        h0=PiecewiseProfile((0.0, 4.0), (0.8, 0.95)),
        uq=uq or UQConfig("uniform"),
    )
