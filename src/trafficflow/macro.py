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
    capacity_eval,
    capacity_max,
    first_invalid,
    headway_H,
    integrate,
    pressure,
    speed_V,
)


def cfl_ratio(params: ModelParams, capacity: CapacitySpec,
              grid: Grid1D) -> float:
    """(dt/dx) * ||c|| * ||V||, with ||V|| = 1; must not exceed 1 for
    stability."""
    return params.dt / grid.dx * capacity_max(capacity)


def cfl_check(params: ModelParams, capacity: CapacitySpec,
              grid: Grid1D) -> float:
    ratio = cfl_ratio(params, capacity, grid)
    if ratio > 1.0 + 1e-12:
        raise CFLViolationError(ratio, params.dt, grid.dx)
    return ratio


def capacity_on_grid(capacity: CapacitySpec, grid: Grid1D, y=None) -> np.ndarray:
    """Capacity sampled at cell centers, shape np.shape(y) + (n_cells,): a
    y array gives one row per value."""
    if y is not None:
        y = np.asarray(y, dtype=float)[..., None]
    return capacity_eval(capacity, grid.centers, y)


def _flat(a: np.ndarray, shape) -> np.ndarray:
    """a broadcast to shape, as one flat array: a view when a is a
    contiguous array of that shape, else a copy."""
    return (a if a.shape == shape else np.broadcast_to(a, shape)).ravel()


def _lf(q: np.ndarray, flux: np.ndarray, lam: float, out=None,
        slope=None) -> np.ndarray:
    """One Lax-Friedrichs update, periodic in the last axis, lam = dt/(2 dx):
    0.5 (q[i-1] + q[i+1]) - lam (f[i+1] - f[i-1]), with every operation
    paired as in the np.roll form, so the result is the same bit for bit.

    The interior cells of every row take one slice pair over the flat
    batch, so numpy runs one loop for the whole batch, not one per row;
    the pairs that straddle two rows land on the end cells of each row,
    which then take their wrapped neighbours (indices mod n, which also
    serve one and two cells). Every sum and difference is written straight
    into its place in out (the result) and slope (scratch): C-contiguous
    arrays of the broadcast shape that overlap neither q nor flux, both
    allocated when not given."""
    total = np.empty(np.broadcast(q, flux).shape) if out is None else out
    n = total.shape[-1]
    flat = _flat(q, total.shape)
    np.add(flat[:-2], flat[2:], out=total.ravel()[1:-1])
    np.add(q[..., -1], q[..., 1 % n], out=total[..., 0])
    np.add(q[..., -2 % n], q[..., 0], out=total[..., -1])
    total *= 0.5
    if slope is None:
        slope = np.empty_like(total)
    flat = _flat(flux, total.shape)
    np.subtract(flat[2:], flat[:-2], out=slope.ravel()[1:-1])
    np.subtract(flux[..., 1 % n], flux[..., -1], out=slope[..., 0])
    np.subtract(flux[..., 0], flux[..., -2 % n], out=slope[..., -1])
    slope *= lam
    total -= slope
    return total


def check_second_order(rho: np.ndarray, ok=None, row="row"):
    """The check of macro2 states and of Galerkin node values (see
    core.integrate): every density above 1e-12, which rejects NaN too, so
    that h = z/rho - p(rho) is defined. ok: an optional boolean array to
    compare into; row names the leading axis or its rows in the message
    (see core.first_invalid)."""
    return first_invalid(np.greater(rho, 1e-12, out=ok), "vanishing density",
                         "cell", row)


def lf_step_first_order(rho: np.ndarray, capacity: CapacitySpec,
                        params: ModelParams, grid: Grid1D,
                        c: np.ndarray | None = None) -> np.ndarray:
    """First-order model: flux c(x) V(H(rho)) rho."""
    if c is None:
        c = capacity_on_grid(capacity, grid)
    flux = c * speed_V(headway_H(rho)) * rho
    return _lf(rho, flux, params.dt / (2 * grid.dx))


def advection_speed(rho: np.ndarray, z: np.ndarray, c: np.ndarray,
                    params: ModelParams, out=None, tmp=None) -> np.ndarray:
    """Speed c V(h) of the second-order model in the conservative pair
    (rho, z), with the headway h = z/rho - p(rho) floored at zero; rho must
    be positive (check_second_order). The speed is written into out, with
    tmp as scratch: arrays of the broadcast shape of rho, z and c, allocated
    when not given."""
    if out is None:
        out = np.empty(np.broadcast(rho, z, c).shape)
        tmp = np.empty_like(out)
    h = np.divide(z, rho, out=tmp)
    h -= pressure(rho, params, out=out)
    np.maximum(h, 0.0, out=h)
    return np.multiply(c, speed_V(h, out=out), out=out)


class LFWork:
    """The arrays of one conservative step on a batch of a given shape,
    allocated once per run: two (rho, z) pairs that take turns as the
    step's result and two scratch arrays. A step then allocates nothing,
    so its cost does not depend on how the allocator happens to serve
    arrays of this size."""

    def __init__(self, shape):
        self.pairs = [(np.empty(shape), np.empty(shape)) for _ in range(2)]
        self.a, self.b = np.empty(shape), np.empty(shape)

    def result_for(self, rho):
        """The pair that a step from the state (rho, z) writes into: the
        one that does not hold rho."""
        return self.pairs[rho is self.pairs[0][0]]


def lf_step_conservative(rho: np.ndarray, z: np.ndarray,
                         capacity: CapacitySpec, params: ModelParams,
                         grid: Grid1D, c: np.ndarray | None = None,
                         work: LFWork | None = None):
    """Second-order model in the conservative pair (rho, z),
    z = rho*(h + p(rho)), where the pressure needs no source term: LF
    advection with speed c V(h), then the relaxation source a rho (H - h) on
    z, evaluated on the post-advection state (on the pre-advection state it
    excites the odd-even mode that the central scheme leaves undamped).

    rho must be positive (check_second_order). The result is written into
    work (an LFWork of the broadcast shape of rho, z and c, allocated when
    not given) and is valid until the step after next with the same work;
    rho and z are only read."""
    if c is None:
        c = capacity_on_grid(capacity, grid)
    if work is None:
        work = LFWork(np.broadcast(rho, z, c).shape)
    cv = advection_speed(rho, z, c, params, out=work.a, tmp=work.b)
    lam = params.dt / (2 * grid.dx)
    rho_new, z_new = work.result_for(rho)
    # z_new is free until the z update, so it serves as the rho update's
    # scratch, and the rho flux's array as the z update's
    _lf(rho, np.multiply(cv, rho, out=work.b), lam, out=rho_new, slope=z_new)
    _lf(z, np.multiply(cv, z, out=cv), lam, out=z_new, slope=work.b)
    if params.a != 0.0:
        z_new += relaxation_source(rho_new, z_new, params, out=work.a,
                                   tmp=work.b)
    return rho_new, z_new


def relaxation_source(rho: np.ndarray, z: np.ndarray, params: ModelParams,
                      out=None, tmp=None) -> np.ndarray:
    """Increment dt a rho (H(rho) - h) of z over one step of the relaxation
    source, with the headway h = z/rho - p(rho). It is written into out,
    with tmp as scratch: arrays of the broadcast shape of rho and z,
    allocated when not given."""
    if out is None:
        out = np.empty(np.broadcast(rho, z).shape)
        tmp = np.empty_like(out)
    h = np.divide(z, rho, out=out)
    h -= pressure(rho, params, out=tmp)
    gap = np.subtract(headway_H(rho, out=tmp), h, out=tmp)
    return np.multiply(np.multiply(params.dt * params.a, rho, out=out), gap,
                       out=out)


def total_mass(rho: np.ndarray, grid: Grid1D) -> float:
    return float(np.sum(rho, axis=-1) * grid.dx) if np.ndim(rho) == 1 \
        else np.sum(rho, axis=-1) * grid.dx


def run_first_order(rho0: np.ndarray, capacity: CapacitySpec,
                    params: ModelParams, grid: Grid1D, y=None, out_times=None,
                    emit=None):
    """Returns {time: MacroField} (or hands each to emit, see
    core.integrate); the headway is reported as H(rho). A y array runs one
    row per value (fields of shape (len(y), n_cells))."""
    cfl_check(params, capacity, grid)
    c = capacity_on_grid(capacity, grid, y)
    return integrate(
        np.broadcast_to(np.asarray(rho0, dtype=float), c.shape),
        lambda rho, j: lf_step_first_order(rho, capacity, params, grid, c=c),
        lambda rho: MacroField(rho=rho, h=headway_H(rho), grid=grid),
        lambda rho: first_invalid(np.isfinite(rho) & (rho >= -1e-12),
                                  "negative or non-finite density", "cell"),
        params, out_times, emit)


def run_second_order(rho0: np.ndarray, h0: np.ndarray, capacity: CapacitySpec,
                     params: ModelParams, grid: Grid1D, y=None,
                     out_times=None, emit=None):
    """Returns {time: MacroField} (or hands each to emit, see
    core.integrate); steps the conservative pair and reports
    the headway h = z/rho - p(rho), except at t = 0, which reports h0 as
    given (h rebuilt from z can differ from it in the last bit). A y array
    runs one row per value (fields of shape (len(y), n_cells))."""
    cfl_check(params, capacity, grid)
    c = capacity_on_grid(capacity, grid, y)
    rho = np.broadcast_to(np.asarray(rho0, dtype=float), c.shape)
    h = np.broadcast_to(np.asarray(h0, dtype=float), c.shape)
    work = LFWork(c.shape)
    ok = np.empty(c.shape, dtype=bool)  # the check's comparison

    def observe(state):
        if state[0] is rho:  # the initial state
            return MacroField(rho=rho, h=h, grid=grid)
        # h is built in the step's scratch array; MacroField keeps copies
        h_now = np.divide(state[1], state[0], out=work.a)
        h_now -= pressure(state[0], params)
        return MacroField(rho=state[0], h=h_now, grid=grid)

    # the initial z is not named here, so it is freed after the first step
    return integrate(
        (rho, rho * (h + pressure(rho, params))),
        lambda state, j: lf_step_conservative(*state, capacity, params, grid,
                                              c=c, work=work),
        observe, lambda state: check_second_order(state[0], ok), params,
        out_times, emit)

