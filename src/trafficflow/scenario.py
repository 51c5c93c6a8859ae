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
    _short_repr,
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
    def uniform(cls, value: float) -> "PiecewiseProfile":
        return cls((np.inf,), (value,))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.thresholds, x, side="right")
        idx = np.minimum(idx, len(self.values) - 1)
        return np.asarray(self.values, dtype=float)[idx]


# Largest uq counts accepted: 10**6 samples are 500 times the acceptance
# runs' 2000, and 100 Gauss nodes resolve an expansion of order 99, far
# past the node counts whose convergence the study reports (n <= 9).
MAX_SAMPLES = 10**6
MAX_PCE_NODES = 100


@dataclass(frozen=True)
class UQConfig:
    """The uq section; it owns the law Y = 2Z + 1, Z ~ Beta(alpha, beta)."""

    distribution: str  # "uniform" (alpha = beta = 1) or "beta"
    alpha: float = 1.0
    beta: float = 1.0
    n_samples: int = 2000
    pce_nodes: int = 9
    pce_order: int = 0

    def __post_init__(self):
        if self.distribution not in ("uniform", "beta"):
            raise ConfigError(f"unknown distribution {self.distribution!r}")
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if self.distribution == "uniform" and value != 1.0:
                raise ConfigError(f"uq.distribution.{name} must be 1 under "
                                  f"the uniform law (alpha = beta = 1)")
            if not value > 0:
                raise ConfigError(f"uq.distribution.{name} = "
                                  f"{_short_repr(value)} must be positive")
        for name, low, high in (("n_samples", 1, MAX_SAMPLES),
                                ("pce_nodes", 1, MAX_PCE_NODES),
                                ("pce_order", 0, MAX_PCE_NODES - 1)):
            value = getattr(self, name)
            if not low <= value <= high:
                raise ConfigError(f"uq.{name} = {_short_repr(value)} must "
                                  f"lie in [{low}, {high}]")

    @property
    def is_uniform(self) -> bool:
        """Y uniform on [1, 3], the law of the Legendre chaos."""
        return self.alpha == 1.0 and self.beta == 1.0


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
        raise ConfigError(f"{context}.{key} must be {kind}, got "
                          f"{_short_repr(value)}")
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


def _build(cls, section: str, **values):
    """cls(**values), with a ConfigError of its own checks re-raised with
    the section in front: those messages start with the field they name,
    so the result reads as the key path ("params.gamma = ...")."""
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"{section}.{exc}") from None


# capacity variant: (spec, required keys, optional keys); the spec's
# defaults fill in absent optional keys
CAPACITY_VARIANTS = {
    "constant": (ConstantCapacity, (), ("c0",)),
    "piecewise_ramp": (PiecewiseRampCapacity,
                       ("c_low", "x_left", "x_right", "delta"), ()),
    "accident": (AccidentCapacity, (), ("drop",)),
}


def _parse_capacity(doc: dict) -> CapacitySpec:
    variant = doc.get("variant") if isinstance(doc, dict) else doc
    if not isinstance(variant, str) or variant not in CAPACITY_VARIANTS:
        raise ConfigError(f"unknown capacity variant {variant!r}")
    spec, required, optional = CAPACITY_VARIANTS[variant]
    _take(doc, "capacity", ("variant",) + required, optional)
    return _build(spec, "capacity",
                  **{key: _number(doc, key, "capacity")
                     for key in required + optional if key in doc})


def _parse_uq(doc: dict) -> UQConfig:
    _take(doc, "uq", ("distribution",),
          ("n_samples", "pce_nodes", "pce_order"))
    dist = doc["distribution"]
    if isinstance(dist, str):
        dist = {"name": dist}
    _take(dist, "uq.distribution", ("name",), ("alpha", "beta"))
    return UQConfig(distribution=dist["name"],
                    alpha=_number(dist, "alpha", "uq.distribution", 1.0),
                    beta=_number(dist, "beta", "uq.distribution", 1.0),
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
    xmin = _number(dom, "xmin", "domain")
    xmax = _number(dom, "xmax", "domain")
    dx = _number(dom, "dx", "domain")
    grid = _build(Grid1D, "domain", x_min=xmin, x_max=xmax, dx=dx)

    par = doc["params"]
    keys = ("gamma", "eta", "epsilon", "a", "dt", "T", "L", "N")
    _take(par, "params", (), keys)
    # absent keys keep the ModelParams defaults
    params = _build(ModelParams, "params",
                    **{key: _number(par, key, "params", integer=key == "N")
                       for key in keys if key in par})

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
    except ValueError as exc:  # a JSONDecodeError, or an integer literal
        # longer than the interpreter converts (4300 digits by default)
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
