"""Discrete-time stochastic particle model approximating the kinetic dynamics.

Each particle carries a position X and a headway S. Per step, every particle
advects with speed c(X)V(S); with probability dt it interacts with a partner
drawn near X + eta, and, when the relaxation strength a is positive, with
probability eps*dt its headway relaxes towards H(rho_local).

All randomness flows through one generator per step derived from
(master seed, step index), and updates are vectorized against the pre-step
snapshot, so trajectories are reproducible regardless of worker count.
Every step takes the same draws in the same order, whatever the branches
do; the relaxation uniforms, unread when a = 0, are skipped by advancing
the stream past them rather than drawn.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    CapacitySpec,
    ConfigError,
    Grid1D,
    MacroField,
    ModelParams,
    _periodic_wrap,
    capacity_eval,
    first_invalid,
    headway_H,
    integrate,
    speed_V,
)


@dataclass(frozen=True)
class RngStream:
    """Deterministic substream: identical (seed, stream) -> identical draws."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.stream])


@dataclass(frozen=True)
class ParticleEnsemble:
    """Weighted (position, headway) samples of the kinetic distribution."""

    x: np.ndarray
    s: np.ndarray
    weight: float  # mass per particle

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        s = np.asarray(self.s, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "s", s)
        if x.shape != s.shape or x.ndim != 1:
            raise ConfigError("X and S must be 1-D arrays of equal length")
        if self.weight <= 0:
            raise ConfigError("particle weight must be positive")

    @property
    def n(self) -> int:
        return len(self.x)


def particle_init(rho0, h0, n_particles: int, grid: Grid1D) -> ParticleEnsemble:
    """Stratified placement: equal mass increments of rho0 between particles."""
    centers_fine = grid.x_min + (np.arange(8 * grid.n_cells) + 0.5) * grid.dx / 8
    dens = np.asarray(rho0(centers_fine), dtype=float)
    cell_mass = dens * grid.dx / 8
    total = cell_mass.sum()
    if total <= 0:
        raise ConfigError("rho0 must have positive total mass")
    cum = np.concatenate([[0.0], np.cumsum(cell_mass)])
    targets = (np.arange(n_particles) + 0.5) * (total / n_particles)
    idx = np.searchsorted(cum, targets, side="right") - 1
    frac = (targets - cum[idx]) / np.maximum(cell_mass[idx], 1e-300)
    x = grid.x_min + (idx + frac) * grid.dx / 8
    s = np.asarray(h0(x), dtype=float)
    return ParticleEnsemble(x=x, s=s, weight=total / n_particles)


def bin_to_fields(ens: ParticleEnsemble, grid: Grid1D) -> MacroField:
    """Histogram the ensemble: rho = mass per cell / dx, h = mean headway."""
    cells = grid.cell_index(ens.x)
    counts = np.bincount(cells, minlength=grid.n_cells)
    rho = ens.weight * counts / grid.dx
    s_sum = np.bincount(cells, weights=ens.s, minlength=grid.n_cells)
    h = np.divide(s_sum, counts, out=np.zeros(grid.n_cells), where=counts > 0)
    return MacroField(rho=rho, h=h, grid=grid)


def _select_partners(x_wrapped: np.ndarray, targets: np.ndarray,
                     half_window: float, length: float, x_min: float,
                     u: np.ndarray) -> np.ndarray:
    """Partner indices for the given target positions.

    A partner is drawn uniformly among particles within half_window of the
    target (periodic); if that window is empty, the nearest particle ahead of
    the target is used.

    The windows are searched on the sorted positions followed by a second
    lap, the positions plus length. Only the start of that lap can be
    reached, so each index is the sum of the searches on the first lap and
    on the prefix of the second that ends with its first element beyond
    every query.
    """
    order = np.argsort(x_wrapped, kind="stable")
    xs = x_wrapped[order]
    n = len(xs)
    # shift targets so the search window never crosses x_min
    t = _periodic_wrap(targets, x_min, length)
    t = np.where(t - half_window < x_min, t + length, t)
    lo_q, hi_q = t - half_window, t + half_window
    reach = hi_q.max()
    k = min(n, int(np.searchsorted(xs, reach - length, side="right")) + 1)
    # xs + length can round down to reach for positions above reach - length
    while k < n and xs[k - 1] + length <= reach:
        k = min(n, 2 * k)
    lap = xs[:k] + length

    def search(v, side):
        return (np.searchsorted(xs, v, side=side)
                + np.searchsorted(lap, v, side=side))

    lo = search(lo_q, "left")
    hi = search(hi_q, "right")
    count = hi - lo
    pick = lo + np.floor(u * np.maximum(count, 1)).astype(np.int64)
    # empty window: fall back to the nearest particle ahead
    ahead = search(t, "right")
    pick = np.where(count > 0, pick, ahead)
    return order[pick % n]


def dt_check(params: ModelParams, capacity: CapacitySpec,
             grid: Grid1D) -> None:
    """dt and epsilon * dt are probabilities (interaction, relaxation)."""
    if params.dt > min(1.0, 1.0 / params.epsilon) + 1e-12:
        raise ConfigError(f"params.dt = {params.dt!r} must satisfy dt <= "
                          f"min(1, 1/epsilon) for params.epsilon = "
                          f"{params.epsilon!r}")


def particle_step(ens: ParticleEnsemble, params: ModelParams,
                  capacity: CapacitySpec, grid: Grid1D,
                  rng: np.random.Generator, y=None) -> ParticleEnsemble:
    dt = params.dt
    x, s = ens.x, ens.s
    xw = grid.wrap(x)
    c_self = capacity_eval(capacity, xw, y)
    v_self = c_self * speed_V(s)

    # fixed draw layout per step keeps the stream independent of branch outcomes
    theta = rng.random(ens.n) < dt
    if params.a > 0 or not isinstance(rng.bit_generator, np.random.PCG64):
        xi_u = rng.random(ens.n)
    else:
        # the relaxation uniforms are never read; PCG64 spends one output
        # per float, so advancing by n leaves every later draw unchanged
        rng.bit_generator.advance(ens.n)
    partner_u = rng.random(ens.n)

    ds = np.zeros(ens.n)
    if theta.any():
        idx = np.flatnonzero(theta)
        partners = _select_partners(xw, xw[idx] + params.eta,
                                    grid.dx / 2, grid.length, grid.x_min,
                                    partner_u[idx])
        v_star = c_self[partners] * speed_V(s[partners])
        ds[idx] = params.gamma * (v_star - v_self[idx])

    if params.a > 0:
        xi = xi_u < params.epsilon * dt
        if xi.any():
            field = bin_to_fields(ens, grid)
            rho_local = field.rho[grid.cell_index(x)]
            ds = ds + np.where(xi, params.a * (headway_H(rho_local) - s), 0.0)

    new_s = s + ds
    new_x = grid.wrap(x + v_self * dt)
    return replace(ens, x=new_x, s=new_s)


def run_particle(ens: ParticleEnsemble, capacity: CapacitySpec,
                 params: ModelParams, grid: Grid1D, seed: int, y=None,
                 out_times=None, emit=None):
    """Step the ensemble to params.T, binning at the requested output times;
    returns {time: MacroField} (or hands each to emit, see
    core.integrate)."""
    dt_check(params, capacity, grid)
    return integrate(
        ens,
        lambda e, j: particle_step(e, params, capacity, grid,
                                   RngStream(seed, j).generator(), y),
        lambda e: bin_to_fields(e, grid),
        lambda e: first_invalid(e.s >= 0, "negative headway", "particle"),
        params, out_times, emit)
