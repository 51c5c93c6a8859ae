"""Lax-Friedrichs solvers for the first- and second-order macroscopic models.

All step functions operate on the last axis, so a leading batch axis is
supported transparently; the runners take it from an array of accident sizes
y, one row per value. Periodic boundary conditions are baked in: the end
cells of each row take their neighbours from the other end.
"""

from __future__ import annotations

import numpy as np

from .core import (
    CapacitySpec,
    CFLViolationError,
    Grid1D,
    MacroField,
    ModelParams,
    NumericalError,
    capacity_eval,
    capacity_max,
    headway_H,
    integrate,
    pressure,
    speed_V,
)

_RHO_GUARD = 1e-12


def cfl_ratio(params: ModelParams, capacity: CapacitySpec,
              grid: Grid1D) -> float:
    """(dt/dx) * ||c|| * ||V||, with ||V|| = 1; must not exceed 1 for
    stability."""
    return params.dt / grid.dx * capacity_max(capacity)


def cfl_check(params: ModelParams, capacity: CapacitySpec,
              grid: Grid1D) -> float:
    ratio = cfl_ratio(params, capacity, grid)
    if ratio > 1.0 + 1e-12:
        raise CFLViolationError(ratio)
    return ratio


def capacity_on_grid(capacity: CapacitySpec, grid: Grid1D, y=None) -> np.ndarray:
    """Capacity sampled at cell centers, shape np.shape(y) + (n_cells,): a
    y array gives one row per value."""
    if y is not None:
        y = np.asarray(y, dtype=float)[..., None]
    return capacity_eval(capacity, grid.centers, y)


def _lf(q: np.ndarray, flux: np.ndarray, lam: float) -> np.ndarray:
    """One Lax-Friedrichs update, periodic in the last axis, lam = dt/(2 dx):
    0.5 (q[i-1] + q[i+1]) - lam (f[i+1] - f[i-1]), with every operation
    paired as in the np.roll form, so the result is the same bit for bit.
    Slices give the interior cells; the two end cells take their wrapped
    neighbours, whose indices taken mod n also serve one and two cells."""
    n = q.shape[-1]
    total = np.empty(np.broadcast_shapes(q.shape, flux.shape))
    np.add(q[..., :-2], q[..., 2:], out=total[..., 1:-1])
    total[..., 0] = q[..., -1] + q[..., 1 % n]
    total[..., -1] = q[..., -2 % n] + q[..., 0]
    total *= 0.5
    slope = np.empty_like(total)
    np.subtract(flux[..., 2:], flux[..., :-2], out=slope[..., 1:-1])
    slope[..., 0] = flux[..., 1 % n] - flux[..., -1]
    slope[..., -1] = flux[..., 0] - flux[..., -2 % n]
    slope *= lam
    total -= slope
    return total


def _check_density(rho: np.ndarray) -> None:
    if not np.all(np.isfinite(rho)):
        raise NumericalError("non-finite density from Lax-Friedrichs step")
    if np.any(rho < -1e-12):
        raise NumericalError(
            f"negative density {rho.min():.3e} from Lax-Friedrichs step")


def lf_step_first_order(rho: np.ndarray, capacity: CapacitySpec,
                        params: ModelParams, grid: Grid1D, y=None,
                        c: np.ndarray | None = None) -> np.ndarray:
    """First-order model: flux c(x) V(H(rho)) rho."""
    if c is None:
        c = capacity_on_grid(capacity, grid, y)
    flux = c * speed_V(headway_H(rho)) * rho
    new = _lf(rho, flux, params.dt / (2 * grid.dx))
    _check_density(new)
    return new


def advection_speed(rho: np.ndarray, z: np.ndarray, c: np.ndarray,
                    params: ModelParams) -> np.ndarray:
    """Speed c V(h) of the second-order model in the conservative pair
    (rho, z), with the headway h = z/rho - p(rho) floored at zero."""
    return c * speed_V(np.maximum(z / rho - pressure(rho, params), 0.0))


def lf_step_conservative(rho: np.ndarray, z: np.ndarray,
                         capacity: CapacitySpec, params: ModelParams,
                         grid: Grid1D, y=None, c: np.ndarray | None = None):
    """Second-order model in the conservative pair (rho, z),
    z = rho*(h + p(rho)), where the pressure needs no source term: LF
    advection with speed c V(h), then the relaxation source a rho (H - h) on
    z, evaluated on the post-advection state (on the pre-advection state it
    excites the odd-even mode that the central scheme leaves undamped)."""
    if c is None:
        c = capacity_on_grid(capacity, grid, y)
    if np.any(rho <= _RHO_GUARD):
        raise NumericalError("vanishing density in conservative step")
    cv = advection_speed(rho, z, c, params)
    lam = params.dt / (2 * grid.dx)
    rho_new = _lf(rho, cv * rho, lam)
    z_new = _lf(z, cv * z, lam)
    _check_density(rho_new)
    if params.a != 0.0:
        z_new = z_new + relaxation_source(rho_new, z_new, params)
    return rho_new, z_new


def relaxation_source(rho: np.ndarray, z: np.ndarray,
                      params: ModelParams) -> np.ndarray:
    """Increment dt a rho (H(rho) - h) of z over one step of the relaxation
    source, with the headway h = z/rho - p(rho)."""
    h = z / rho - pressure(rho, params)
    return params.dt * params.a * rho * (headway_H(rho) - h)


def total_mass(rho: np.ndarray, grid: Grid1D) -> float:
    return float(np.sum(rho, axis=-1) * grid.dx) if np.ndim(rho) == 1 \
        else np.sum(rho, axis=-1) * grid.dx


def run_first_order(rho0: np.ndarray, capacity: CapacitySpec,
                    params: ModelParams, grid: Grid1D, y=None, out_times=None):
    """Returns {time: MacroField}; the headway is reported as H(rho). A y
    array runs one row per value (fields of shape (len(y), n_cells))."""
    cfl_check(params, capacity, grid)
    c = capacity_on_grid(capacity, grid, y)
    return integrate(
        np.broadcast_to(np.asarray(rho0, dtype=float), c.shape),
        lambda rho, j: lf_step_first_order(rho, capacity, params, grid, c=c),
        lambda rho: MacroField(rho=rho, h=headway_H(rho), grid=grid),
        params, out_times)


def run_second_order(rho0: np.ndarray, h0: np.ndarray, capacity: CapacitySpec,
                     params: ModelParams, grid: Grid1D, y=None,
                     out_times=None):
    """Returns {time: MacroField}; steps the conservative pair and reports
    the headway h = z/rho - p(rho), except at t = 0, which reports h0 as
    given (h rebuilt from z can differ from it in the last bit). A y array
    runs one row per value (fields of shape (len(y), n_cells))."""
    cfl_check(params, capacity, grid)
    c = capacity_on_grid(capacity, grid, y)
    rho = np.broadcast_to(np.asarray(rho0, dtype=float), c.shape)
    h = np.broadcast_to(np.asarray(h0, dtype=float), c.shape)
    initial = (rho, rho * (h + pressure(rho, params)))

    def observe(state):
        rho, z = state
        return MacroField(
            rho=rho, grid=grid,
            h=h if state is initial else z / rho - pressure(rho, params))

    return integrate(
        initial,
        lambda state, j: lf_step_conservative(*state, capacity, params, grid,
                                              c=c),
        observe, params, out_times)


run_conservative = run_second_order  # former name of the conservative runner
