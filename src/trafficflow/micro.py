"""Deterministic follow-the-leader ODE model with explicit Euler stepping.

Positions are kept unwrapped (strictly increasing) internally; they are
wrapped into the periodic domain only for capacity evaluation and output.
The leader of the last vehicle is the first one shifted by the road length.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CapacitySpec,
    ConfigError,
    Grid1D,
    MacroField,
    ModelParams,
    NumericalError,
    OrderingViolationError,
    _periodic_wrap,
    capacity_eval,
    capacity_max,
    first_invalid,
    headway_H,
    integrate,
    micro_speed_Vtilde,
)


def periodic_gaps(positions: np.ndarray, road_length: float,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Headways s_i = x_{i+1} - x_i along the last axis, with periodic wrap;
    written into out (C-contiguous) when given. The differences of every
    row take one slice pair over the flat batch; the one that straddles
    two rows lands on the last vehicle of a row, which then takes its
    wrapped leader."""
    positions = np.asarray(positions)
    gaps = np.empty(positions.shape) if out is None else out
    flat = positions.ravel()
    np.subtract(flat[1:], flat[:-1], out=gaps.ravel()[:-1])
    gaps[..., -1] = positions[..., 0] + road_length - positions[..., -1]
    return gaps


def micro_init_from_density(rho0, N: int, L: float,
                            grid: Grid1D) -> np.ndarray:
    """Positions of N vehicles in increasing order on one lap from
    grid.x_min, whose local densities reproduce the profile rho0.

    Uses cumulative-mass inversion: consecutive vehicles are separated by
    equal increments of the integrated density, so L / gap tracks rho0 away
    from profile jumps.
    """
    if N * L > grid.length:
        raise ConfigError(
            f"cannot place N*L = {N * L} of vehicle on a road of length "
            f"{grid.length}")

    # breakpoints of the piecewise-constant profile inside the domain
    thresholds = getattr(rho0, "thresholds", None)
    if thresholds is None:
        raise ConfigError("rho0 must be a piecewise profile")
    edges = [grid.x_min]
    edges += [t for t in thresholds if grid.x_min < t < grid.x_max]
    edges.append(grid.x_max)
    edges = np.asarray(edges, dtype=float)
    mids = 0.5 * (edges[:-1] + edges[1:])
    dens = np.asarray(rho0(mids), dtype=float)
    if np.any(dens < 0):
        raise ConfigError("rho0 must be non-negative")
    seg_mass = dens * np.diff(edges)
    total = seg_mass.sum()
    if total <= 0:
        raise ConfigError("rho0 must have positive total mass")
    cum = np.concatenate([[0.0], np.cumsum(seg_mass)])

    targets = np.arange(N) * (total / N)
    seg = np.minimum(np.searchsorted(cum, targets, side="right") - 1,
                     len(seg_mass) - 1)
    with np.errstate(divide="ignore"):
        offset = np.where(dens[seg] > 0,
                          (targets - cum[seg]) / np.where(dens[seg] > 0,
                                                          dens[seg], 1.0),
                          0.0)
    return edges[seg] + offset


def euler_dt_check(params: ModelParams, capacity: CapacitySpec,
                   grid: Grid1D) -> None:
    """The Euler step's stability bound dt <= 1 / (||c|| ||Vtilde||), with
    ||Vtilde|| = 1. It does not keep the vehicle order: behind a stopped
    leader a gap g becomes g - dt (1 - L/g), which is negative for g = 2L
    whenever dt > 4L. The run's per-step ordering check reports that case
    as a numerical failure (exit 3 in the CLI)."""
    if params.dt > 1.0 / capacity_max(capacity) + 1e-12:
        raise ConfigError(
            f"dt = {params.dt} exceeds the Euler stability bound 1 / (||c|| "
            f"||Vtilde||); within it the vehicle order can still be lost, "
            f"which the check of each step reports")


def check_ordering(gaps: np.ndarray, what: str = "vehicle ordering lost",
                   row="row"):
    """The micro model's check (see core.integrate): every gap positive,
    else an OrderingViolationError naming the row and vehicle."""
    return first_invalid(gaps > 0, what, "vehicle", row,
                         OrderingViolationError)


def _capacity_and_speed(positions: np.ndarray, capacity: CapacitySpec,
                        params: ModelParams, grid: Grid1D, y, speed_law,
                        gaps: np.ndarray | None = None,
                        wrapped: np.ndarray | None = None):
    """Capacity c and speed of every vehicle (last axis), whose product is
    the Euler rate. speed_law(u, out=) maps the occupancy ratio
    params.L / gap to a speed, floored at zero so vehicles never reverse.

    gaps, if given, holds periodic_gaps(positions) and is overwritten with
    the speed; wrapped, if given, receives the wrapped positions. Nothing
    else is written to: positions may be a read-only broadcast batch, and c
    a read-only broadcast view.
    """
    if gaps is None:
        gaps = periodic_gaps(positions, grid.length)
    c = capacity_eval(capacity, _periodic_wrap(positions, grid.x_min,
                                               grid.length, wrapped), y)
    speed = speed_law(np.divide(params.L, gaps, out=gaps), out=gaps)
    return c, np.maximum(speed, 0.0, out=speed)


def advance_positions(positions: np.ndarray, capacity: CapacitySpec,
                      params: ModelParams, grid: Grid1D, y=None,
                      speed_law=micro_speed_Vtilde,
                      gaps: np.ndarray | None = None,
                      out: np.ndarray | None = None) -> np.ndarray:
    """One explicit Euler step of params.dt on an array of positions (last
    axis = vehicles) on the periodic road of grid, with speeds evaluated at
    the pre-step positions; returns positions + dt * c * speed, bit for
    bit, and leaves positions unchanged.

    gaps, if given, must hold periodic_gaps(positions); the step overwrites
    it with the gaps of the new positions, so a loop that passes the same
    array every step computes the gaps once per step and allocates none.
    out, if given, is a contiguous array of the batch shape that overlaps
    neither positions nor gaps; the new positions are written into it.
    """
    if gaps is None:
        gaps = periodic_gaps(positions, grid.length)
    c, speed = _capacity_and_speed(positions, capacity, params, grid, y,
                                   speed_law, gaps, out)
    new = np.multiply(c, params.dt, out=out)
    new *= speed
    new += positions
    periodic_gaps(new, grid.length, out=gaps)
    return new


def sample_density(positions: np.ndarray, L: float, grid: Grid1D) -> np.ndarray:
    """Piecewise-constant density L / gap of position arrays (last axis =
    vehicles) at the grid centers; leading axes are kept."""
    xs = np.sort(grid.wrap(positions), axis=-1, kind="stable")
    gaps = periodic_gaps(xs, grid.length)
    if np.any(gaps <= 0):
        raise NumericalError("coincident vehicle positions in density sampling")
    dens = L / gaps
    n = xs.shape[-1]
    idx = np.stack([np.searchsorted(row, grid.centers, side="right")
                    for row in xs.reshape(-1, n)])
    idx = idx.reshape(xs.shape[:-1] + (grid.n_cells,)) - 1
    idx[idx < 0] = n - 1  # centers before the first vehicle wrap around
    return np.take_along_axis(dens, idx, axis=-1)


def run_micro(positions: np.ndarray, capacity: CapacitySpec,
              params: ModelParams, grid: Grid1D, y=None, out_times=None,
              speed_law=micro_speed_Vtilde, emit=None):
    """Integrate the vehicle positions (increasing, on one lap of the road
    of grid) to params.T; returns {time: MacroField} at requested times (or
    hands each to emit, see core.integrate). A y array runs one row of
    positions per value (fields of shape (len(y), n_cells)). dt is checked
    once here, and the vehicle order at entry and after every step."""
    euler_dt_check(params, capacity, grid)
    shape = np.shape(y) + np.shape(positions)
    if y is not None:
        y = np.asarray(y, dtype=float)[..., None]
    positions = np.broadcast_to(np.asarray(positions, dtype=float), shape)
    gaps = periodic_gaps(positions, grid.length)  # updated by each step
    # the steps alternate between the arrays of pair, so none allocates a
    # position array (whether glibc then trimmed the heap top, and the next
    # step faulted it back in, hung on where its temporaries landed)
    pair = (np.empty(shape), np.empty(shape))

    def observe(pos):
        rho = sample_density(pos, params.L, grid)
        return MacroField(rho=rho, h=headway_H(rho), grid=grid)

    return integrate(
        positions,
        lambda pos, j: advance_positions(pos, capacity, params, grid, y,
                                         speed_law, gaps,
                                         out=pair[pos is pair[0]]),
        observe, lambda pos: check_ordering(gaps), params, out_times, emit)
