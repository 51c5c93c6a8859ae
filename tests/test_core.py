"""Closures, capacities, grids and parameter validation."""

import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from trafficflow.core import (
    AccidentCapacity,
    _capacity_eval_sorted,
    _periodic_wrap,
    ConfigError,
    ConstantCapacity,
    Grid1D,
    MAX_CELLS,
    MAX_VEHICLES,
    MacroField,
    ModelParams,
    NumericalError,
    OrderingViolationError,
    PiecewiseRampCapacity,
    capacity_eval,
    capacity_max,
    first_invalid,
    headway_H,
    integrate,
    micro_speed_Vtilde,
    micro_speed_equilibrium,
    pressure,
    speed_V,
    speed_V_prime,
    speed_V_second,
)

headways = st.floats(min_value=0.0, max_value=1e6,
                     allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# Closures
# ---------------------------------------------------------------------------

def test_speed_V_values():
    assert speed_V(0.0) == 0.0
    assert speed_V(1.0) == 0.5
    assert speed_V(3.0) == 0.75


def test_headway_H_values():
    assert headway_H(0.0) == 1.0
    assert headway_H(1.0) == 0.5
    assert headway_H(0.25) == 0.8


def test_micro_speed_values():
    assert micro_speed_Vtilde(0.0) == 1.0
    assert micro_speed_Vtilde(1.0) == 0.0
    assert micro_speed_Vtilde(0.4) == pytest.approx(0.6)


def test_micro_speed_equilibrium_composes_closures():
    for u in (0.0, 0.1, 0.5, 2.0):
        assert micro_speed_equilibrium(u) == pytest.approx(
            speed_V(headway_H(u)))
    assert micro_speed_equilibrium(0.0) == pytest.approx(0.5)


def test_pressure_values():
    params = ModelParams(gamma=0.5, eta=0.01)
    assert pressure(0.0, params) == 0.0
    assert pressure(0.1, params) == pytest.approx(2.5e-4)
    assert pressure(1.0, params) == pytest.approx(2.5e-3)


@given(headways)
def test_speed_V_bounded_by_one_and_h(h):
    v = speed_V(h)
    assert 0.0 <= v <= min(1.0, h) + 1e-15


@given(st.floats(min_value=1e-3, max_value=100.0))
def test_speed_V_derivative_matches_finite_difference(h):
    eps = 1e-6 * max(1.0, h)
    fd = (speed_V(h + eps) - speed_V(h - eps)) / (2 * eps)
    assert speed_V_prime(h) == pytest.approx(fd, abs=1e-6)


@given(st.floats(min_value=1e-2, max_value=50.0))
def test_speed_V_second_matches_finite_difference(h):
    eps = 1e-4 * max(1.0, h)
    fd = (speed_V(h + eps) - 2 * speed_V(h) + speed_V(h - eps)) / eps ** 2
    assert speed_V_second(h) == pytest.approx(fd, rel=1e-4, abs=1e-6)


@given(st.floats(min_value=0.0, max_value=10.0),
       st.floats(min_value=0.0, max_value=10.0))
def test_pressure_is_linear(rho, alpha):
    params = ModelParams()
    assert pressure(alpha * rho, params) == pytest.approx(
        alpha * pressure(rho, params), abs=1e-15)


@given(arrays(np.float64, st.integers(1, 6), elements=st.floats(0.0, 1e6)),
       st.floats(0.0, 1.0), st.floats(1e-6, 1.0))
def test_closures_keep_their_plain_formulas_bit_for_bit(x, gamma, eta):
    # the macro2 step calls these closures with out=, which keeps the
    # formulas and their operand order
    params = ModelParams(gamma=gamma, eta=eta)
    assert speed_V(x).tobytes() == (x / (x + 1.0)).tobytes()
    assert headway_H(x).tobytes() == (1.0 / (1.0 + x)).tobytes()
    assert pressure(x, params).tobytes() == (
        0.5 * params.gamma * params.eta * x).tobytes()
    assert np.float64(speed_V(x[0])) == x[0] / (x[0] + 1.0)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def test_first_invalid_names_the_first_bad_entry():
    assert first_invalid(np.ones((2, 3), dtype=bool), "bad", "cell") is None
    ok = np.array([[True, True, True], [True, False, False]])
    err = first_invalid(ok, "vanishing density", "cell")
    assert type(err) is NumericalError
    assert str(err) == "vanishing density at row 1, cell 1"
    err = first_invalid(ok, "vehicle ordering lost", "vehicle", row="node",
                        error=OrderingViolationError)
    assert type(err) is OrderingViolationError
    assert str(err) == "vehicle ordering lost at node 1, vehicle 1"
    assert str(first_invalid(np.array([True, False, False]), "negative "
                             "headway", "particle")) == \
        "negative headway at particle 1"


def _counting_run(bad):
    """integrate on the states 0, 1, 2, ... (one per step of 0.5, T = 2),
    whose check rejects the state bad; the error and the observed states."""
    seen = []

    def observe(state):
        seen.append(state)
        return state

    with pytest.raises(NumericalError) as err:
        integrate(0, lambda state, j: state + 1, observe,
                  lambda state: first_invalid(np.array([state != bad]),
                                              "bad state", "cell"),
                  ModelParams(dt=0.5, T=2.0), (0.0, 0.5, 1.0, 1.5, 2.0))
    return str(err.value), seen


def test_integrate_checks_the_initial_state_after_its_snapshot():
    assert _counting_run(0) == ("step 1 (t = 0.5): bad state at cell 0", [0])


def test_integrate_checks_every_step_before_observing_it():
    assert _counting_run(2) == ("step 2 (t = 1): bad state at cell 0",
                                [0, 1])
    # the final state is checked too
    assert _counting_run(4) == ("step 4 (t = 2): bad state at cell 0",
                                [0, 1, 2, 3])


# ---------------------------------------------------------------------------
# Capacities
# ---------------------------------------------------------------------------

def test_ramp_capacity_values():
    spec = PiecewiseRampCapacity(0.6, -2.0, 2.0, 0.1)
    assert capacity_eval(spec, 0.0) == pytest.approx(0.6)
    assert capacity_eval(spec, -2.0) == pytest.approx(0.8)
    assert capacity_eval(spec, -4.0) == 1.0
    assert capacity_eval(spec, 3.0) == 1.0
    # y adds a leading sample axis, although the ramp does not read it
    assert capacity_eval(spec, np.zeros(5), y=np.ones((3, 1))).shape == (3, 5)


def test_accident_capacity_values():
    spec = AccidentCapacity(0.4)
    assert capacity_eval(spec, 2.5, y=2.0) == 1.0
    assert capacity_eval(spec, 0.0, y=2.0) == pytest.approx(0.6)
    c = capacity_eval(spec, np.array([0.0, 2.5]), y=np.array([[1.0], [3.0]]))
    assert np.array_equal(c, [[0.6, 1.0], [0.6, 0.6]])


def test_accident_capacity_requires_half_width():
    with pytest.raises(ConfigError):
        capacity_eval(AccidentCapacity(0.4), 0.0)


def test_constant_capacity():
    assert capacity_eval(ConstantCapacity(0.7), 123.0) == 0.7
    assert capacity_eval(ConstantCapacity(0.7), np.zeros(5),
                         y=np.ones((3, 1))).shape == (3, 5)
    assert capacity_max(ConstantCapacity(0.7)) == 0.7


@given(st.floats(min_value=-10.0, max_value=10.0))
def test_capacities_stay_in_unit_interval(x):
    for spec, y in ((PiecewiseRampCapacity(0.6, -2.0, 2.0, 0.1), None),
                    (AccidentCapacity(0.4), 1.7),
                    (ConstantCapacity(1.0), None)):
        c = capacity_eval(spec, x, y=y)
        assert 0.0 <= c <= 1.0


@given(st.floats(min_value=-4.0, max_value=4.0),
       st.floats(min_value=1e-6, max_value=0.01))
def test_ramp_capacity_is_lipschitz(x, step):
    spec = PiecewiseRampCapacity(0.6, -2.0, 2.0, 0.1)
    jump = abs(capacity_eval(spec, x + step) - capacity_eval(spec, x))
    assert jump <= (0.4 / 0.1 + 1e-9) * step


@st.composite
def ramps_and_positions(draw):
    """A valid ramp, its breakpoints and positions around and between them."""
    c_low = draw(st.one_of(st.sampled_from([0.0, -0.0, 0.6, 1.0]),
                           st.floats(min_value=0.0, max_value=1.0)))
    x_left = draw(st.one_of(st.just(-2.0),
                            st.floats(min_value=-1e6, max_value=1e6)))
    # a delta below half an ulp of x_left makes xp0 == xp1
    delta = draw(st.floats(min_value=1e-12, max_value=10.0))
    x_right = x_left + 2 * delta + draw(st.floats(min_value=1e-9,
                                                  max_value=100.0))
    assume(x_right - x_left > 2 * delta)
    spec = PiecewiseRampCapacity(c_low, x_left, x_right, delta)
    xp = [x_left - delta, x_left + delta, x_right - delta, x_right + delta]
    pts = [0.0, -0.0, np.nan, np.inf, -np.inf]
    for b in xp:
        pts += [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf)]
    fracs = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                          min_size=1, max_size=8))
    for lo, hi in zip(xp[:-1], xp[1:]):
        pts += [lo + f * (hi - lo) for f in fracs]
    pts += draw(st.lists(st.floats(), max_size=8))
    return spec, xp, [1.0, c_low, c_low, 1.0], np.array(pts)


@given(ramps_and_positions())
def test_ramp_capacity_equals_interp_bit_for_bit(case):
    spec, xp, fp, x = case
    want = np.interp(x, xp, fp)
    got = capacity_eval(spec, x)
    assert got.shape == x.shape and _bits(got) == _bits(want)
    for b in xp:  # scalars take the same path
        assert _bits(capacity_eval(spec, b)) == _bits(np.interp(b, xp, fp))
    # a 2-D batch with one y per row, and a y that adds the batch axis
    x2 = np.stack([x, x[::-1]])
    got = capacity_eval(spec, x2, y=np.array([[1.0], [2.0]]))
    assert got.shape == x2.shape
    assert _bits(got) == _bits(np.interp(x2, xp, fp))
    got = capacity_eval(spec, x, y=np.ones((3, 1)))
    assert got.shape == (3, len(x)) and not got.flags.writeable
    assert _bits(got) == _bits(np.broadcast_to(want, (3, len(x))))


@st.composite
def sorted_capacity_cases(draw):
    """A capacity of each variant and sorted positions at its breakpoints,
    1 ulp either side of them, and around them, each maybe repeated."""
    kind = draw(st.sampled_from(["ramp", "accident", "constant"]))
    y = None
    if kind == "ramp":
        spec, _, _, x = draw(ramps_and_positions())
        if draw(st.booleans()):  # NaN sorts last and takes capacity_eval
            x = x[~np.isnan(x)]
    else:
        x = [0.0, -0.0, np.inf, -np.inf]
        if kind == "accident":
            spec = AccidentCapacity(draw(st.sampled_from([0.4, 1.0, 0.0])))
            y = draw(st.one_of(st.sampled_from([0.0, 1.5]),
                               st.floats(min_value=0.0, max_value=1e3)))
            for b in (-y, y):  # |x| = y
                x += [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf)]
        else:
            spec = ConstantCapacity(draw(st.sampled_from([0.8, 0.0])))
        x += draw(st.lists(st.floats(min_value=-2e3, max_value=2e3),
                           max_size=40))
    x = np.repeat(x, draw(st.integers(1, 3)))
    return spec, y, np.sort(x)


@settings(max_examples=300, deadline=None)
@given(sorted_capacity_cases())
@example((PiecewiseRampCapacity(-0.0, -2.0, 1.0, 1.0), None,
          np.array([-3.0, -1.0, 0.0, 2.0])))  # interp gives -0.0 at xp1
def test_sorted_range_capacity_equals_capacity_eval(case):
    spec, y, xs = case
    out = np.full(xs.size, -1.0)
    assert _capacity_eval_sorted(spec, xs, y, out) is out
    assert _bits(out) == _bits(capacity_eval(spec, xs, y))


def test_sorted_range_capacity_raises_as_capacity_eval():
    with pytest.raises(ConfigError, match="requires the half-width y"):
        _capacity_eval_sorted(AccidentCapacity(0.4), np.zeros(3), None,
                              np.empty(3))


def test_ramp_capacity_rejects_overlapping_ramps():
    with pytest.raises(ConfigError):
        PiecewiseRampCapacity(0.6, -0.05, 0.05, 0.1)


# ---------------------------------------------------------------------------
# Grid and parameters
# ---------------------------------------------------------------------------

def test_grid_centers_and_counts():
    grid = Grid1D(-4.0, 4.0, 0.5)
    assert grid.n_cells == 16
    assert grid.length == pytest.approx(8.0)
    assert grid.centers[0] == pytest.approx(-3.75)
    assert grid.centers[-1] == pytest.approx(3.75)
    assert np.all(np.diff(grid.centers) > 0)


def test_grid_requires_integer_cell_count():
    with pytest.raises(ConfigError):
        Grid1D(0.0, 1.0, 0.3)
    # 8 / 1e300 rounds to 0 cells within the integer-multiple tolerance
    with pytest.raises(ConfigError, match="no cell"):
        Grid1D(-4.0, 4.0, 1e300)


@pytest.mark.parametrize("dx", [1e-300, 1e-320, 1e-9, 7.9e-8])
def test_grid_rejects_more_than_max_cells(dx):
    # checked before anything is allocated; 1e-320 gives an infinite count
    with pytest.raises(ConfigError, match="cells, more than"):
        Grid1D(-4.0, 4.0, dx)
    assert Grid1D(-4.0, 4.0, 8e-8).n_cells == MAX_CELLS


def test_grid_wrap_and_cell_index():
    grid = Grid1D(-4.0, 4.0, 1.0)
    assert grid.wrap(4.5) == pytest.approx(-3.5)
    assert grid.cell_index(-3.999) == 0
    assert grid.cell_index(3.999) == grid.n_cells - 1


def _mod_wrap(x, x_min, length):
    return x_min + np.mod(np.asarray(x, dtype=float) - x_min, length)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


lengths = st.one_of(st.just(8.0), st.floats(min_value=1e-3, max_value=1e3))
x_mins = st.one_of(st.sampled_from([0.0, -0.0, -4.0]),
                   st.floats(min_value=-1e6, max_value=1e6))


@given(st.lists(st.one_of(st.floats(min_value=-1e6, max_value=1e6),
                          st.sampled_from([0.0, -0.0, 1e-300, -1e-300])),
                min_size=1, max_size=64),
       x_mins, lengths)
def test_periodic_wrap_equals_mod_bit_for_bit(xs, x_min, length):
    x = np.array(xs)
    got = _periodic_wrap(x, x_min, length)
    assert _bits(got) == _bits(_mod_wrap(x, x_min, length))
    assert np.array_equal(x, np.array(xs))  # input untouched


@pytest.mark.parametrize("zero", [0.0, -0.0])
@given(x_mins, lengths)
def test_periodic_wrap_edges_equal_mod_bit_for_bit(zero, x_min, length):
    # whole laps and 1 ulp either side of them: as offsets from x_min = +-0,
    # where x - x_min is exactly x, and as positions from any x_min
    laps = [0.0, -0.0, 1e-300, -1e-300, 1e6, -1e6]
    for k in (-3, -2, -1, 1, 2, 3):
        laps += [k * length, np.nextafter(k * length, np.inf),
                 np.nextafter(k * length, -np.inf)]
    edges = [x_min + r for r in laps] + [x_min - 1e-300]
    for k in (1, 2):
        for e in (x_min + k * length, x_min + length + (k - 1) * length):
            edges += [e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf)]
    for base, x in ((zero, np.array(laps)), (x_min, np.array(edges))):
        assert _bits(_periodic_wrap(x, base, length)) == _bits(
            _mod_wrap(x, base, length))


@given(x_mins, lengths,
       st.lists(st.one_of(st.floats(min_value=-1e7, max_value=1e7),
                          st.sampled_from([0.0, -0.0, 1e-300, -1e-300])),
                max_size=32))
def test_wrap_returns_its_own_results_except_x_max(x_min, length, xs):
    # the particle step sorts its own wrapped positions unwrapped again,
    # which is exact because of this
    x_max = x_min + length
    assume(x_max > x_min)
    grid = Grid1D(x_min, x_max, x_max - x_min)
    assert grid.wrap(grid.x_max) == grid.x_min
    edges = [x_min, x_max, x_min - 1e-300]
    for e in edges[:2]:
        edges += [np.nextafter(e, -np.inf), np.nextafter(e, np.inf)]
    w = grid.wrap(np.array(xs + edges))
    inside = w < grid.x_max
    assert np.all(w >= grid.x_min)
    assert _bits(grid.wrap(w[inside])) == _bits(w[inside])


@given(st.lists(st.one_of(st.floats(),
                          st.sampled_from([np.nan, np.inf, -np.inf, -0.0])),
                min_size=1, max_size=32),
       st.one_of(st.sampled_from([0.0, -0.0, -4.0]),
                 st.floats(min_value=-1e3, max_value=1e3)),
       lengths)
def test_periodic_wrap_2d_nan_and_inf_equal_mod_bit_for_bit(xs, x_min,
                                                            length):
    row = np.array(xs + [np.nan, np.inf, -np.inf])
    x = np.stack([row, row[::-1]])
    with np.errstate(invalid="ignore"):
        for arr in (x, x.T):  # contiguous and strided input
            got = _periodic_wrap(arr, x_min, length)
            assert got.shape == arr.shape
            assert _bits(got) == _bits(_mod_wrap(arr, x_min, length))


@pytest.mark.parametrize("x", [4.5, -12.25, np.float64(8.0), np.array(-4.0)])
def test_periodic_wrap_takes_scalars_and_0d_arrays(x):
    got = _periodic_wrap(x, -4.0, 8.0)
    want = _mod_wrap(x, -4.0, 8.0)
    assert type(got) is type(want) and np.ndim(got) == 0
    assert _bits(got) == _bits(want)


def test_params_validate_ranges():
    with pytest.raises(ConfigError):
        ModelParams(a=1.5)
    with pytest.raises(ConfigError):
        ModelParams(gamma=1.5)
    with pytest.raises(ConfigError):
        ModelParams(dt=-1e-3)


@pytest.mark.parametrize("N", [0, MAX_VEHICLES + 1, 10**300])
def test_params_reject_vehicle_counts_outside_the_cap(N):
    # checked on construction, before any N-long array exists; a count
    # whose digits would run past 12 characters is printed to 6 digits
    text = "1e+300" if N == 10**300 else str(N)
    with pytest.raises(ConfigError, match=rf"^N = {re.escape(text)} must "
                                          r"lie in \[1, 100000000\]$"):
        ModelParams(N=N)
    assert ModelParams(N=MAX_VEHICLES).N == MAX_VEHICLES


def test_params_step_count():
    assert ModelParams(dt=1e-3, T=10.0).n_steps() == 10_000
    assert ModelParams(dt=4e-3, T=10.0).n_steps() == 2_500


def test_macro_field_rejects_negative_density():
    grid = Grid1D(0.0, 1.0, 0.5)
    with pytest.raises(NumericalError):
        MacroField(rho=np.array([-0.1, 0.1]), h=np.ones(2), grid=grid)


def test_macro_field_names_the_field_row_and_cell_of_a_bad_entry():
    grid = Grid1D(0.0, 1.0, 0.5)
    h = np.ones((2, 2))
    h[1, 0] = -0.1
    with pytest.raises(NumericalError, match="^negative values in "
                       "macroscopic field h at row 1, cell 0$"):
        MacroField(rho=np.ones((2, 2)), h=h, grid=grid)
    # a non-finite entry is named first, whichever field holds it
    with pytest.raises(NumericalError, match="^non-finite values in "
                       "macroscopic field h at row 0, cell 1$"):
        MacroField(rho=-np.ones((2, 2)), h=np.array([[1, np.nan], [1, 1]]),
                   grid=grid)


def test_macro_field_takes_leading_axes_and_rejects_shape_mismatch():
    grid = Grid1D(0.0, 1.0, 0.5)
    f = MacroField(rho=np.ones((3, 2)), h=np.ones((3, 2)), grid=grid)
    assert f.rho.shape == f.h.shape == (3, 2)
    with pytest.raises(ConfigError):
        MacroField(rho=np.ones((3, 2)), h=np.ones(2), grid=grid)
    with pytest.raises(ConfigError):
        MacroField(rho=np.ones(3), h=np.ones(3), grid=grid)


def test_macro_field_clips_roundoff_negatives():
    grid = Grid1D(0.0, 1.0, 0.5)
    f = MacroField(rho=np.array([-1e-13, 0.1]), h=np.ones(2), grid=grid)
    assert np.all(f.rho >= 0.0)
