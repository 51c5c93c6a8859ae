"""Eigenstructure, rarefaction curves and Rankine-Hugoniot residuals for the
3x3 quasilinear system in the variables U = (rho, h, c), with the rational
speed closure V of the traffic model (core.speed_V and its derivatives).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    ModelParams,
    speed_V,
    speed_V_prime,
    speed_V_second,
)


@dataclass(frozen=True)
class StateUHC:
    """Admissible state (rho, h, c), all strictly positive."""

    rho: float
    h: float
    c: float

    def __post_init__(self):
        if self.rho <= 0 or self.h <= 0 or self.c <= 0:
            raise ConfigError("rho, h and c must be strictly positive")

    def as_array(self) -> np.ndarray:
        return np.array([self.rho, self.h, self.c])


@dataclass(frozen=True)
class EigenDecomp:
    lambdas: np.ndarray      # (lambda1, lambda2, lambda3), lambda1 = 0
    vectors: np.ndarray      # rows r1, r2, r3
    strictly_hyperbolic: bool


def quasilinear_matrix(u: StateUHC, params: ModelParams) -> np.ndarray:
    rho, h, c = u.rho, u.h, u.c
    ge2 = 0.5 * params.gamma * params.eta
    v, vp = float(speed_V(h)), float(speed_V_prime(h))
    return np.array([
        [c * v, vp * c * rho, v * rho],
        [0.0, c * (v - ge2 * rho * vp), -ge2 * rho * v],
        [0.0, 0.0, 0.0],
    ])


def eigenstructure(u: StateUHC, params: ModelParams) -> EigenDecomp:
    """Closed-form wave speeds and eigenvectors of the quasilinear matrix."""
    rho, h, c = u.rho, u.h, u.c
    ge2 = 0.5 * params.gamma * params.eta
    v, vp = float(speed_V(h)), float(speed_V_prime(h))

    lam3 = c * v
    lam2 = c * (v - ge2 * rho * vp)
    lam1 = 0.0
    r3 = np.array([1.0, 0.0, 0.0])
    r2 = np.array([1.0, -ge2, 0.0])
    r1 = np.array([v * rho, -ge2 * v * rho, c * (rho * ge2 * vp - v)])

    strict = v - ge2 * rho * vp > 0 and lam2 != lam3 and lam2 != 0.0
    return EigenDecomp(lambdas=np.array([lam1, lam2, lam3]),
                       vectors=np.vstack([r1, r2, r3]),
                       strictly_hyperbolic=bool(strict))


def eigen_residual(u: StateUHC, params: ModelParams) -> float:
    """max_k || A r_k - lambda_k r_k ||_inf for the closed-form decomposition."""
    a = quasilinear_matrix(u, params)
    dec = eigenstructure(u, params)
    res = 0.0
    for lam, r in zip(dec.lambdas, dec.vectors):
        res = max(res, float(np.max(np.abs(a @ r - lam * r))))
    return res


def _lambda_k(k: int, rho, h, c, params):
    if k == 1:
        return 0.0 * np.asarray(rho)
    if k == 3:
        return c * speed_V(h)
    return c * (speed_V(h)
                - 0.5 * params.gamma * params.eta * rho * speed_V_prime(h))


def directional_derivative_fd(k: int, u: StateUHC,
                              params: ModelParams) -> float:
    """Central finite-difference of lambda_k along r_k, with step 1e-6."""
    step = 1e-6
    r = eigenstructure(u, params).vectors[k - 1]
    base = u.as_array()
    up = base + step * r
    dn = base - step * r
    lp = _lambda_k(k, up[0], up[1], up[2], params)
    ln = _lambda_k(k, dn[0], dn[1], dn[2], params)
    return float((lp - ln) / (2 * step))


def genuine_nonlinearity_2(u: StateUHC, params: ModelParams) -> float:
    """grad(lambda_2) . r_2 in the (rho, h, c) coordinates.

    For the model's closure this is strictly negative on admissible states,
    so the second field is genuinely nonlinear.
    """
    ge2 = 0.5 * params.gamma * params.eta
    return float(-ge2 * u.c * (2.0 * speed_V_prime(u.h)
                               - ge2 * u.rho * speed_V_second(u.h)))


def nonlinearity_diagnostic(u: StateUHC, params: ModelParams) -> float:
    """Diagnostic value V'(h) - (rho/2) V''(h); reported, not interpreted."""
    return float(speed_V_prime(u.h) - 0.5 * u.rho * speed_V_second(u.h))


def rarefaction_curve(family: int, left: StateUHC, sigma_max: float,
                      n_steps: int, params: ModelParams):
    """Sample the rarefaction curve of the given family through `left`.

    Families 2 and 3 are closed-form; family 1 is integrated with classical
    RK4. Returns (sigma, states) with states of shape (n_steps + 1, 3); the
    curve is truncated with a warning if it leaves the positivity region.
    """
    if family not in (1, 2, 3):
        raise ConfigError("family must be 1, 2 or 3")
    if n_steps < 1:
        raise ConfigError("n_steps must be positive")
    sigma = np.linspace(0.0, sigma_max, n_steps + 1)
    ge2 = 0.5 * params.gamma * params.eta
    rho0, h0, c0 = left.rho, left.h, left.c

    if family == 3:
        states = np.column_stack([rho0 + sigma,
                                  np.full_like(sigma, h0),
                                  np.full_like(sigma, c0)])
    elif family == 2:
        states = np.column_stack([rho0 + sigma,
                                  h0 - ge2 * sigma,
                                  np.full_like(sigma, c0)])
    else:
        def rhs(state):
            rho, h, c = state
            v = float(speed_V(h))
            return np.array([v * rho,
                             -ge2 * v * rho,
                             c * (rho * ge2 * float(speed_V_prime(h)) - v)])

        states = np.empty((n_steps + 1, 3))
        states[0] = left.as_array()
        ds = sigma_max / n_steps
        for i in range(n_steps):
            k1 = rhs(states[i])
            k2 = rhs(states[i] + 0.5 * ds * k1)
            k3 = rhs(states[i] + 0.5 * ds * k2)
            k4 = rhs(states[i] + ds * k3)
            states[i + 1] = states[i] + ds / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    bad = np.flatnonzero(np.any(states <= 0, axis=1))
    if bad.size:
        cut = int(bad[0])
        warnings.warn(f"rarefaction curve left the positivity region at "
                      f"sigma = {sigma[cut]:.6g}; truncated", RuntimeWarning)
        sigma, states = sigma[:cut], states[:cut]
    return sigma, states


def rh_residual(left: StateUHC, right: StateUHC, lam: float,
                params: ModelParams) -> np.ndarray:
    """Signed residuals of the three Rankine-Hugoniot jump relations."""
    p_l = 0.5 * params.gamma * params.eta * left.rho
    p_r = 0.5 * params.gamma * params.eta * right.rho
    q_l = left.rho * (left.h + p_l)
    q_r = right.rho * (right.h + p_r)
    f1_l = left.c * float(speed_V(left.h)) * left.rho
    f1_r = right.c * float(speed_V(right.h)) * right.rho
    f2_l = left.c * float(speed_V(left.h)) * q_l
    f2_r = right.c * float(speed_V(right.h)) * q_r
    return np.array([
        lam * (left.rho - right.rho) - (f1_l - f1_r),
        lam * (q_l - q_r) - (f2_l - f2_r),
        lam * (left.c - right.c),
    ])


def shock_equals_rarefaction_check(family: int, left: StateUHC,
                                   n_points: int, params: ModelParams,
                                   ode_steps: int = 10_000) -> float:
    """Worst residual of the remaining RH relations along the rarefaction
    curve up to sigma = 0.5, with the shock speed solved from the first
    relation."""
    n_steps = ode_steps if family == 1 else n_points
    sigma, states = rarefaction_curve(family, left, 0.5, n_steps, params)
    if family == 1:
        keep = np.unique(np.linspace(0, len(sigma) - 1,
                                     min(n_points + 1, len(sigma)),
                                     dtype=int))
        states = states[keep]

    worst = 0.0
    for rho, h, c in states[1:]:
        right = StateUHC(rho=rho, h=h, c=c)
        drho = left.rho - right.rho
        if family == 1:
            # standing contact: along this curve the flux is constant
            lam = 0.0
        else:
            f_l = left.c * float(speed_V(left.h)) * left.rho
            f_r = right.c * float(speed_V(right.h)) * right.rho
            if abs(drho) < 1e-14:
                continue
            lam = (f_l - f_r) / drho
        res = rh_residual(left, right, lam, params)
        check = np.abs(res) if family == 1 else np.abs(res[1:])
        worst = max(worst, float(np.max(check)))
    return worst


def sample_admissible_states(n: int, seed: int = 0) -> list:
    """Log-uniform sample of the operating ranges rho in [0.01, 1],
    h in [0.1, 5], c in [0.1, 1]."""
    rng = np.random.default_rng(seed)

    def logu(lo, hi, size):
        return np.exp(rng.uniform(np.log(lo), np.log(hi), size))

    rho = logu(0.01, 1.0, n)
    h = logu(0.1, 5.0, n)
    c = logu(0.1, 1.0, n)
    return [StateUHC(rho=r, h=hh, c=cc) for r, hh, cc in zip(rho, h, c)]
