"""Shared domain types, model closures, road-capacity functions and the
time-stepping loop.

Every type here is an immutable value type; instances can be shared freely
across threads.
"""

from __future__ import annotations

import os
import pickle
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np


class ConfigError(ValueError):
    """Invalid scenario/parameter configuration."""


class NumericalError(RuntimeError):
    """A solver produced an invalid state (NaN, negative density, ...)."""


class OrderingViolationError(NumericalError):
    """Vehicle ordering was lost during a microscopic step."""


class CFLViolationError(ConfigError):
    """Time step too large for the spatial grid."""

    def __init__(self, ratio: float, dt: float, dx: float):
        self.ratio, self.dt, self.dx = ratio, dt, dx
        super().__init__(f"CFL condition violated: ratio {ratio:.6g} > 1 "
                         f"for params.dt = {dt!r} and domain.dx = {dx!r}")

    def __reduce__(self):
        # rebuilt from its own arguments, not from the message, so that it
        # survives the pickle that brings it back from a forked worker
        return type(self), (self.ratio, self.dt, self.dx)


_reports = set()  # report read ends not yet joined; a later child closes them


def _fork(child):
    """Fork a process that runs child(), sends its result back as one
    pickle and leaves through os._exit: with status 0, or 1 if child raises
    or its result does not pickle (then _join decodes nothing). stdout and
    stderr are flushed first, so that text buffered before the fork is not
    written by both processes. The child holds no report's read end, so a
    report that nobody will read fails instead of blocking. Returns the
    handle that _join takes."""
    sys.stdout.flush()
    sys.stderr.flush()
    report_r, report_w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(report_r)
        os.close(report_w)
        raise
    if pid == 0:
        code = 1
        try:
            for fd in _reports | {report_r}:
                os.close(fd)
            with open(report_w, "wb") as pipe:
                pickle.dump(child(), pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(report_w)  # before the next fork, so no other child holds it
    _reports.add(report_r)
    return pid, report_r


def _join(handle, name: str):
    """Read the report of the child of _fork's handle to its end, wait for
    the child and return what child() returned; ChildProcessError("<name>
    exited with status N") if the status N is not 0."""
    pid, report_r = handle
    _reports.discard(report_r)
    with open(report_r, "rb") as pipe:
        report = pipe.read()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status:
        raise ChildProcessError(f"{name} exited with status {status}")
    return pickle.loads(report)


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------

def _periodic_wrap(x, x_min: float, length: float, out=None):
    """x_min + np.mod(x - x_min, length), bit for bit, in one new array, or
    in out: a contiguous array of x's shape that does not overlap x.

    numpy's float remainder is fmod plus the divisor where fmod's sign
    differs from the (positive) divisor's, so the fmod form below computes
    the same values in place and about three times faster. The two differ
    only in the sign of a zero remainder (fmod keeps -0.0, np.mod gives
    +0.0); adding an x_min that is never -0.0 maps both to the same result.
    fmod(r, length) is r itself for r in [0, length), so arrays run fmod
    only on the offsets outside it (NaN and +-inf included), which are
    usually few. A tiny negative r (-1e-300, say) maps to x_min + length,
    as in the np.mod form, because r + length rounds to length.
    """
    x = np.asarray(x, dtype=float)
    x_min = float(x_min) + 0.0  # -0.0 -> +0.0
    r = np.subtract(x, x_min, out=np.empty(x.shape) if out is None else out)
    inside = r >= 0
    inside &= r < length
    flat = r.reshape(-1)  # a view: r is contiguous
    bad = np.flatnonzero(~inside)
    rb = np.fmod(flat[bad], length)
    rb[rb < 0] += length
    flat[bad] = rb
    r += x_min
    return r if r.ndim else r[()]


# Largest grid and vehicle count accepted: one field of 10**8 cells, or
# one position array of 10**8 vehicles, already takes 800 MB. Largest step
# count T/dt: the longest run of the paper's studies takes 10**4 steps, and
# 10**7 steps of even the cheapest step (about 10 us) take 100 s.
MAX_CELLS = 10**8
MAX_VEHICLES = 10**8
MAX_STEPS = 10**7


def _short_repr(x) -> str:
    """repr(x), or, for a number whose repr runs past 12 characters, x to 6
    significant digits: a number read from JSON can have hundreds of digits
    (a 1e300 written for an integer field, say), too many for a message."""
    text = repr(x)
    if len(text) <= 12 or not isinstance(x, (int, float)):
        return text
    try:
        return f"{x:.6g}"
    except OverflowError:  # an int past the float range
        from decimal import Decimal
        return f"{Decimal(x).normalize():.6g}"


@dataclass(frozen=True)
class Grid1D:
    """Equispaced 1-D grid of cell centers on [x_min, x_max]."""

    x_min: float
    x_max: float
    dx: float

    def __post_init__(self):
        # each message starts with the field it names, so that a scenario
        # parser can prefix it with the section ("domain.dx = ...")
        if self.dx <= 0:
            raise ConfigError(f"dx = {self.dx!r} must be positive")
        if self.x_max <= self.x_min:
            raise ConfigError(f"xmax = {self.x_max!r} must exceed "
                              f"xmin = {self.x_min!r}")
        length = self.x_max - self.x_min
        n = length / self.dx
        if n > MAX_CELLS:
            raise ConfigError(f"dx = {self.dx!r} gives {n:.6g} cells, more "
                              f"than the {MAX_CELLS} allowed")
        if abs(n - round(n)) > 1e-9 * max(1.0, n):
            raise ConfigError(f"dx = {self.dx!r} does not divide the domain "
                              f"length {length!r} into whole cells")
        if round(n) < 1:
            raise ConfigError(f"dx = {self.dx!r} leaves no cell on a domain "
                              f"of length {length!r}")

    @property
    def n_cells(self) -> int:
        return int(round((self.x_max - self.x_min) / self.dx))

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx

    def wrap(self, x):
        """Map positions into [x_min, x_max]: to x_max only from just below
        x_min, within a rounding error (see _periodic_wrap)."""
        return _periodic_wrap(x, self.x_min, self.length)

    def cell_index(self, x) -> np.ndarray:
        """Cell of each wrapped position; x_max is clipped into the last."""
        idx = np.floor((self.wrap(x) - self.x_min) / self.dx).astype(np.int64)
        return np.clip(idx, 0, self.n_cells - 1)


# ---------------------------------------------------------------------------
# Model parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelParams:
    """Interaction / relaxation parameters shared by all model scales.

    gamma   -- interaction timescale of the headway update
    eta     -- interaction distance (non-locality of the kinetic operator)
    epsilon -- ratio of relaxation to interaction rates
    a       -- relaxation strength towards the recommended headway, in [0, 1]
    dt, T   -- time step and horizon
    L       -- reference vehicle length
    N       -- vehicle (or particle) count
    """

    gamma: float = 0.5
    eta: float = 1e-2
    epsilon: float = 1e-3
    a: float = 0.0
    dt: float = 1e-3
    T: float = 10.0
    L: float = 1e-4
    N: int = 10_000

    def __post_init__(self):
        # each message starts with the field it names, so that a scenario
        # parser can prefix it with the section ("params.gamma = ..."). The
        # particle update s + gamma (V* - V(s)) + a (H - s) keeps headways
        # non-negative when gamma + a <= 1 (V(s) <= s for the default speed
        # closure), not for every gamma and a in [0, 1] checked here; the
        # run's check rejects a negative headway
        for name in ("gamma", "a"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} = {getattr(self, name)!r} must "
                                  f"lie in [0, 1]")
        for name in ("eta", "epsilon", "dt", "T", "L"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} = {getattr(self, name)!r} must "
                                  f"be positive")
        # checked before any N-long array is allocated
        if not 1 <= self.N <= MAX_VEHICLES:
            raise ConfigError(f"N = {_short_repr(self.N)} must lie in "
                              f"[1, {MAX_VEHICLES}]")
        # checked before any step is taken
        steps = self.T / self.dt
        if steps > MAX_STEPS:
            raise ConfigError(f"dt = {self.dt!r} and T = {self.T!r} give "
                              f"{steps:.6g} steps, more than the "
                              f"{MAX_STEPS} allowed")

    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------

def _on_step_grid(what: str, t: float, dt: float) -> int:
    """Step index of time t; a ConfigError naming `what` unless t is a
    multiple of dt up to 1e-9 steps."""
    steps = t / dt
    if not np.isfinite(steps):
        raise ConfigError(f"{what} {t} is not a finite number")
    j = int(round(steps))
    if abs(steps - j) > 1e-9 * max(1, j):
        raise ConfigError(f"{what} {t} is not a multiple of dt = {dt}")
    return j


def _snap_times(out_times, params: ModelParams) -> dict:
    """Map output times to step indices, {step: requested time}.

    T and every requested time must lie on the step grid up to rounding, and
    no two requested times may share a step. The default (0, T/2, T) is
    built from step indices; its middle snapshot is the step nearest T/2 and
    keeps the label T/2.
    """
    n_steps = _on_step_grid("T =", params.T, params.dt)
    if out_times is None:
        # on very short runs the middle step coincides with an end point,
        # whose label then wins
        mid = int(round(params.T / 2 / params.dt))
        return {mid: params.T / 2, 0: 0.0, n_steps: params.T}
    snapped = {}
    for t in out_times:
        j = _on_step_grid("output time", t, params.dt)
        if not 0 <= j <= n_steps:
            raise ConfigError(f"output time {t} outside [0, T]")
        if j in snapped:
            raise ConfigError(f"output times {snapped[j]} and {t} fall on "
                              f"the same step {j}")
        snapped[j] = t
    return snapped


def first_invalid(ok: np.ndarray, reason: str, item: str, row="row",
                  error=NumericalError):
    """None if the boolean array ok is all true, else error("<reason> at
    <row> r, <item> i") naming its first false entry ("<row> r, " once per
    leading axis, or, when row is a list, its entry r for a 2-D ok): the
    result of a check (see integrate)."""
    if ok.all():
        return None
    *rows, i = np.unravel_index(int(np.argmin(ok)), ok.shape)
    where = "".join(f"{row} {int(r)}, " if isinstance(row, str)
                    else f"{row[int(r)]}, " for r in rows)
    return error(f"{reason} at {where}{item} {int(i)}")


def integrate(state, step, observe, check, params: ModelParams,
              out_times=None, emit=None):
    """Advance state to params.T; returns {time: observe(state)} at the
    output times (default 0, T/2, T).

    step(state, j) returns the state after step j (j = 1..n_steps), so
    per-step random streams can be keyed on j. check(state), the model's
    one validity rule in one vectorised pass, returns None or the
    NumericalError naming the first bad entry (first_invalid). It runs on
    the initial state after the t = 0 snapshot, as step 1, and on the
    result of every step j before it is observed; its error, and a
    NumericalError of observe at step j, is raised with "step j (t = ...): "
    in front. Steps and closures check nothing, and
    run with numpy's floating-point warnings off: the check reports a
    state they made invalid, once.

    With emit, each snapshot goes to emit(time, snapshot) the moment it is
    observed, in time order, and none is kept: the returned dict is empty,
    so memory does not grow with the number of output times.
    """
    out = _snap_times(out_times, params)
    snapshots = {}
    if emit is None:
        emit = snapshots.__setitem__

    def located(error, j):
        return type(error)(f"step {j} (t = {j * params.dt:.6g}): {error}")

    def checked(state, j):
        error = check(state)
        if error is not None:
            raise located(error, j)
        return state

    def observed(state, j):
        try:
            return observe(state)
        except NumericalError as error:
            raise located(error, j) from None

    with np.errstate(all="ignore"):
        if 0 in out:
            emit(out[0], observed(state, 0))
        checked(state, 1)
        for j in range(1, params.n_steps() + 1):
            state = checked(step(state, j), j)
            if j in out:
                emit(out[j], observed(state, j))
    return snapshots


# ---------------------------------------------------------------------------
# Closures
# ---------------------------------------------------------------------------

# Plain arithmetic (integrate's check keeps invalid states out). out=, if
# given, lets a step run them without allocating; it must not be the input
# of speed_V or headway_H, while the micro speed laws may overwrite theirs.

def speed_V(h, out=None):
    """Speed as a function of headway: V(h) = h / (h + 1)."""
    return np.divide(h, np.add(h, 1.0, out=out), out=out)


def speed_V_prime(h):
    h = np.asarray(h, dtype=float)
    return 1.0 / (1.0 + h) ** 2


def speed_V_second(h):
    h = np.asarray(h, dtype=float)
    return -2.0 / (1.0 + h) ** 3


def headway_H(rho, out=None):
    """Recommended headway as a function of density: H(rho) = 1 / (1 + rho)."""
    return np.divide(1.0, np.add(1.0, rho, out=out), out=out)


def micro_speed_Vtilde(u, out=None):
    """Microscopic speed from the occupancy ratio u = L / gap: 1 - u."""
    return np.subtract(1.0, u, out=out)


def micro_speed_equilibrium(u, out=None):
    """Microscopic speed V(H(u)) from the occupancy ratio u = L / gap.

    Composes the macroscopic closures, so follow-the-leader runs using this
    law share their wave speeds with the macroscopic solvers; the linear law
    micro_speed_Vtilde produces roughly twice faster free-flow waves.
    """
    return speed_V(headway_H(u), out=out)


def pressure(rho, params: ModelParams, out=None):
    """Pressure closure p(rho) = (gamma/2) * eta * rho."""
    return np.multiply(0.5 * params.gamma * params.eta, rho, out=out)


# ---------------------------------------------------------------------------
# Road capacity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantCapacity:
    c0: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.c0 <= 1.0:
            raise ConfigError(f"c0 = {self.c0!r} must lie in [0, 1]")


@dataclass(frozen=True)
class PiecewiseRampCapacity:
    """Capacity drop to c_low on [x_left, x_right] with linear delta-ramps.

    Continuous by construction: the value interpolates linearly between 1 and
    c_low on [x_left - delta, x_left + delta] and back on the right edge.
    """

    c_low: float
    x_left: float
    x_right: float
    delta: float

    def __post_init__(self):
        # each message starts with the field it names (see ModelParams)
        if not 0.0 <= self.c_low <= 1.0:
            raise ConfigError(f"c_low = {self.c_low!r} must lie in [0, 1]")
        if self.delta <= 0:
            raise ConfigError(f"delta = {self.delta!r} must be positive")
        if self.x_right - self.x_left <= 2 * self.delta:
            raise ConfigError(f"delta = {self.delta!r} leaves no inner "
                              f"interval: x_right - x_left must exceed "
                              f"2 * delta")

    @property
    def breakpoints(self):
        """(xp, fp): the capacity is np.interp(x, xp, fp)."""
        return ([self.x_left - self.delta, self.x_left + self.delta,
                 self.x_right - self.delta, self.x_right + self.delta],
                [1.0, self.c_low, self.c_low, 1.0])


@dataclass(frozen=True)
class AccidentCapacity:
    """c(x; Y) = 1 - drop on [-Y, Y], 1 elsewhere; Y supplied at evaluation."""

    drop: float = 0.4

    def __post_init__(self):
        if not 0.0 <= self.drop <= 1.0:
            raise ConfigError(f"drop = {self.drop!r} must lie in [0, 1]")


CapacitySpec = Union[ConstantCapacity, PiecewiseRampCapacity, AccidentCapacity]


def capacity_eval(spec: CapacitySpec, x, y=None):
    """Evaluate the capacity at (already wrapped) positions x.

    The result has the broadcast shape of x and y for every variant, so a y
    with a leading sample axis gives one row per sample; only the accident
    variant reads the value of y (its half-width) and requires it.
    """
    x = np.asarray(x, dtype=float)
    shape = np.broadcast_shapes(x.shape, np.shape(y))
    if isinstance(spec, ConstantCapacity):
        return np.full(shape, spec.c0)
    if isinstance(spec, PiecewiseRampCapacity):
        return np.broadcast_to(np.interp(x, *spec.breakpoints), shape)
    if isinstance(spec, AccidentCapacity):
        if y is None:
            raise ConfigError("accident capacity requires the half-width y")
        y = np.asarray(y, dtype=float)
        return np.where(np.abs(x) <= y, 1.0 - spec.drop, 1.0)
    raise ConfigError(f"unknown capacity spec {spec!r}")


def _capacity_eval_sorted(spec: CapacitySpec, xs: np.ndarray, y, out):
    """capacity_eval(spec, xs, y), bit for bit, written into out, for
    sorted 1-D positions xs. The ramp capacity is constant on contiguous
    index ranges of xs, found by searchsorted, so only its ramps go through
    np.interp. The other variants, and NaN positions (sorted last, in no
    range), take capacity_eval, whose result must then fit out."""
    if isinstance(spec, ConstantCapacity):
        out.fill(spec.c0)
    elif (not isinstance(spec, PiecewiseRampCapacity)
          or (xs.size and np.isnan(xs[-1]))):
        out[...] = capacity_eval(spec, xs, y)
    else:
        xp, fp = spec.breakpoints
        i0, i2 = np.searchsorted(xs, xp[::2], side="left")
        i1, i3 = np.searchsorted(xs, xp[1::2], side="right")
        # np.interp gives exactly 1.0 beyond the end points and c_low + 0.0
        # strictly inside the flat part; it runs on the ramps and the
        # breakpoints (the ramps overlap only if rounding makes xp1 >= xp2)
        out.fill(1.0)
        out[i1:i2] = spec.c_low + 0.0
        for lo, hi in ((i0, i1), (i2, i3)):
            out[lo:hi] = np.interp(xs[lo:hi], xp, fp)
    return out


def capacity_max(spec: CapacitySpec) -> float:
    """Supremum of the capacity, used by the CFL guard."""
    if isinstance(spec, ConstantCapacity):
        return spec.c0
    return 1.0


# ---------------------------------------------------------------------------
# Macroscopic field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MacroField:
    """Density and mean headway sampled at the cell centers of a grid; the
    last axis runs over the cells, any leading axes over samples."""

    rho: np.ndarray
    h: np.ndarray
    grid: Grid1D

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        h = np.asarray(self.h, dtype=float)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "h", h)
        if rho.shape != h.shape or rho.shape[-1:] != (self.grid.n_cells,):
            raise ConfigError("field arrays must share one shape whose last "
                              "axis matches the grid cell count")
        # Tolerate rounding-level negatives, reject anything real; the
        # error names the field, and the row and cell of its first bad entry
        for test, what in ((np.isfinite, "non-finite"),
                           (lambda v: v >= -1e-12, "negative")):
            for name, v in (("rho", rho), ("h", h)):
                error = first_invalid(test(v), f"{what} values in "
                                      f"macroscopic field {name}", "cell")
                if error is not None:
                    raise error
        object.__setattr__(self, "rho", np.maximum(rho, 0.0))
        object.__setattr__(self, "h", np.maximum(h, 0.0))
