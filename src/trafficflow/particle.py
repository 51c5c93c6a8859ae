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
    _capacity_eval_sorted,
    _periodic_wrap,
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


class ParticleWork:
    """The arrays of a step on an ensemble of n particles, allocated once
    per run: the ensemble's positions, the sorted wrapped positions, the
    unwrapped sorted positions of a step that has to wrap its key, the
    speed, two headway arrays that take turns as the step's result, and
    the bool result of the run's s >= 0 check. A step then allocates
    nothing of the ensemble's size but its sort permutation (and, when a
    particle relaxes, the cell index of every particle), so its cost does
    not depend on how the allocator serves arrays of that size."""

    def __init__(self, n: int):
        self.x, self.xs, self.raw, self.v = (np.empty(n) for _ in range(4))
        self.s_pair = (np.empty(n), np.empty(n))
        self.ok = np.empty(n, dtype=bool)

    def s_for(self, s):
        """The headway array that a step from headways s writes into: the
        one that does not hold s."""
        return self.s_pair[s is self.s_pair[0]]


def _cells(xs: np.ndarray, grid: Grid1D) -> np.ndarray:
    """grid.cell_index of wrapped positions, without its wrap (which maps
    x_max to x_min)."""
    return np.clip(np.floor((xs - grid.x_min) / grid.dx).astype(np.int64),
                   0, grid.n_cells - 1)


def _density_at(xs: np.ndarray, at: np.ndarray, weight: float,
                grid: Grid1D) -> np.ndarray:
    """bin_to_fields(ens, grid).rho at the cells of xs[at], bit for bit,
    where xs is ens.x wrapped, in any order: the same cell counts, without
    the headway sums and the field's checks."""
    counts = np.bincount(_cells(xs, grid), minlength=grid.n_cells)
    return weight * counts[_cells(xs[at], grid)] / grid.dx


def particle_step(ens: ParticleEnsemble, params: ModelParams,
                  capacity: CapacitySpec, grid: Grid1D,
                  rng: np.random.Generator, y=None,
                  work: ParticleWork | None = None) -> ParticleEnsemble:
    """One step; returns the ensemble in the road order of its start.

    The step sorts the ensemble by wrapped position (stable). The previous
    step's result is almost in order (only overtakes and the wrap at x_max
    move particles), so this sort stays cheap over a run. Its key is
    ens.x itself when ens.x is work.x, the previous step's wrapped
    result: grid.wrap returns its own results unchanged, except x_max,
    which it maps to x_min, so the step wraps the key only when the
    largest position is not below x_max, or when the ensemble is not the
    work's. Both headway increments read the pre-step state and are
    added into the sorted copy of s.

    The result is written into work (a ParticleWork(ens.n), allocated when
    not given): with a work, the step reuses the arrays of the ensemble
    that it returned before, so that ensemble is only valid until the next
    step with the same work. ens is only read when it is not the work's."""
    dt = params.dt
    if work is None:
        work = ParticleWork(ens.n)
    xs = work.xs
    own = ens.x is work.x
    if own:
        order = np.argsort(ens.x, kind="stable")
        x = np.take(ens.x, order, out=xs, mode="clip")
        own = not xs.size or xs[-1] < grid.x_max  # False on NaN too
    if not own:
        key = _periodic_wrap(ens.x, grid.x_min, grid.length, out=work.raw)
        order = np.argsort(key, kind="stable")
        np.take(key, order, out=xs, mode="clip")
        x = np.take(ens.x, order, out=work.raw, mode="clip")  # key is read
    s = np.take(ens.s, order, out=work.s_for(ens.s), mode="clip")
    # ens.x is read, so its array holds the capacity until the advance
    v = speed_V(s, out=work.v)
    v *= _capacity_eval_sorted(capacity, xs, y, out=work.x)

    idx = _draw_subset(rng, ens.n, dt)
    partners = _select_partners(xs, xs[idx] + params.eta, grid.dx / 2,
                                grid.length, grid.x_min,
                                rng.random(idx.size))
    interaction = params.gamma * (v[partners] - v[idx])

    if params.a > 0:
        relax = _draw_subset(rng, ens.n, params.epsilon * dt)
        if relax.size:
            rho_local = _density_at(xs, relax, ens.weight, grid)
            s[relax] += params.a * (headway_H(rho_local) - s[relax])
    s[idx] += interaction

    v *= dt
    v += x
    new_x = _periodic_wrap(v, grid.x_min, grid.length, out=work.x)
    return replace(ens, x=new_x, s=s)


def run_particle(ens: ParticleEnsemble, capacity: CapacitySpec,
                 params: ModelParams, grid: Grid1D, seed: int, y=None,
                 out_times=None, emit=None):
    """Step the ensemble to params.T, binning at the requested output times;
    returns {time: MacroField} (or hands each to emit, see
    core.integrate)."""
    dt_check(params, capacity, grid)
    work = ParticleWork(ens.n)
    return integrate(
        ens,
        lambda e, j: particle_step(e, params, capacity, grid,
                                   RngStream(seed, j).generator(), y, work),
        lambda e: bin_to_fields(e, grid),
        lambda e: first_invalid(np.greater_equal(e.s, 0, out=work.ok),
                                "negative headway", "particle"),
        params, out_times, emit)
