"""Discrete-time stochastic particle model approximating the kinetic dynamics.

Each particle carries a position X and a headway S. Per step, every particle
advects with speed c(X)V(S); with probability dt it interacts with a partner
drawn near X + eta, and, when the relaxation strength a is positive, with
probability eps*dt its headway relaxes towards H(rho_local).

All randomness flows through one generator per step derived from
(master seed, step index), and updates are vectorized against the pre-step
snapshot, so trajectories are reproducible regardless of worker count.
A step draws only what it reads, in a fixed order: the interacting set
(a Binomial(n, dt) count, then a uniform subset of that size), one
partner uniform per interacting particle, and last, only when a > 0, the
relaxing set drawn the same way with probability eps*dt. The particles
are exchangeable, so each one is in a set independently with the set's
probability, as with one Bernoulli draw per particle.

Each step first puts the ensemble in road order (a stable sort of the
wrapped positions) and returns it in that order, so particle i of a step's
result, and of an exit-3 message about it, is the i-th particle from x_min
at the start of that step.
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


def _select_partners(xs: np.ndarray, targets: np.ndarray,
                     half_window: float, length: float, x_min: float,
                     u: np.ndarray) -> np.ndarray:
    """Partner indices into the sorted wrapped positions xs for the given
    target positions.

    A partner is drawn uniformly among particles within half_window of the
    target (periodic); if that window is empty, the nearest particle ahead of
    the target is used.

    The windows are searched on xs followed by a second lap, the positions
    plus length. Only the start of that lap can be reached, so each index
    is the sum of the searches on the first lap and on the prefix of the
    second that ends with its first element beyond every query.
    """
    n = len(xs)
    # shift targets so the search window never crosses x_min
    t = _periodic_wrap(targets, x_min, length)
    t = np.where(t - half_window < x_min, t + length, t)
    lo_q, hi_q = t - half_window, t + half_window
    reach = hi_q.max(initial=-np.inf)  # no targets: no search
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
    return pick % n


def dt_check(params: ModelParams, capacity: CapacitySpec,
             grid: Grid1D) -> None:
    """dt and epsilon * dt are probabilities (interaction, relaxation)."""
    if params.dt > min(1.0, 1.0 / params.epsilon) + 1e-12:
        raise ConfigError(f"params.dt = {params.dt!r} must satisfy dt <= "
                          f"min(1, 1/epsilon) for params.epsilon = "
                          f"{params.epsilon!r}")


def _draw_subset(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Sorted indices of the items, out of n, that take an event of
    probability p: a Binomial(n, p) count, then a uniform subset of that
    size (its order is not needed, so it is not shuffled)."""
    k = rng.binomial(n, min(p, 1.0))
    return np.sort(rng.choice(n, k, replace=False, shuffle=False))


def _road_order(ens: ParticleEnsemble, grid: Grid1D):
    """Copies of x and s sorted by wrapped position (stable). The previous
    step's result is almost in order (only overtakes and the wrap at x_max
    move particles), so this sort stays cheap over a run."""
    order = np.argsort(grid.wrap(ens.x), kind="stable")
    return ens.x[order], ens.s[order]


def particle_step(ens: ParticleEnsemble, params: ModelParams,
                  capacity: CapacitySpec, grid: Grid1D,
                  rng: np.random.Generator, y=None) -> ParticleEnsemble:
    """One step; returns the ensemble in the road order of its start.

    Both headway increments read the pre-step state and are added into the
    sorted copy of s, so the new positions are the step's one new
    ensemble array and its last allocation: with a new s allocated next to
    them, glibc trimmed and refilled the heap top every other step."""
    dt = params.dt
    x, s = _road_order(ens, grid)
    xw = grid.wrap(x)
    c_self = capacity_eval(capacity, xw, y)
    v_self = c_self * speed_V(s)

    idx = _draw_subset(rng, ens.n, dt)
    partners = _select_partners(xw, xw[idx] + params.eta, grid.dx / 2,
                                grid.length, grid.x_min,
                                rng.random(idx.size))
    v_star = c_self[partners] * speed_V(s[partners])
    interaction = params.gamma * (v_star - v_self[idx])

    if params.a > 0:
        relax = _draw_subset(rng, ens.n, params.epsilon * dt)
        if relax.size:
            rho = bin_to_fields(ens, grid).rho
            rho_local = rho[grid.cell_index(x[relax])]
            s[relax] += params.a * (headway_H(rho_local) - s[relax])
    s[idx] += interaction

    new_x = grid.wrap(x + v_self * dt)
    return replace(ens, x=new_x, s=s)


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
