"""Lax-Friedrichs solvers: CFL guard, conservation, fixed points."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from trafficflow.core import (
    CFLViolationError,
    ConstantCapacity,
    Grid1D,
    ModelParams,
    NumericalError,
    headway_H,
    pressure,
)
from trafficflow.macro import (
    _lf,
    capacity_on_grid,
    cfl_check,
    cfl_ratio,
    lf_step_conservative,
    lf_step_first_order,
    run_first_order,
    run_second_order,
    total_mass,
)
from trafficflow.scenario import paper_comparison_scenario

C1 = ConstantCapacity(1.0)
GRID = Grid1D(-4.0, 4.0, 1e-3)


def test_cfl_ratio_examples():
    grid = Grid1D(-4.0, 4.0, 1e-3)
    assert cfl_ratio(ModelParams(dt=1e-3), C1, grid) == pytest.approx(1.0)
    cfl_check(ModelParams(dt=1e-3), C1, grid)  # ratio 1 is admissible
    assert cfl_ratio(ModelParams(dt=2e-3), C1, grid) == pytest.approx(2.0)
    with pytest.raises(CFLViolationError) as err:
        cfl_check(ModelParams(dt=2e-3), C1, grid)
    assert err.value.ratio == pytest.approx(2.0)
    # halving the capacity restores admissibility at the doubled step
    cfl_check(ModelParams(dt=2e-3), ConstantCapacity(0.5), grid)


def test_uniform_state_is_fixed_point_first_order():
    grid = Grid1D(-4.0, 4.0, 0.1)
    params = ModelParams(dt=0.05)
    rho = np.full(grid.n_cells, 0.125)
    new = lf_step_first_order(rho, C1, params, grid)
    assert np.array_equal(new, rho)


def test_uniform_state_is_fixed_point_second_order():
    grid = Grid1D(-4.0, 4.0, 0.1)
    params = ModelParams(dt=0.05, a=0.0)
    rho = np.full(grid.n_cells, 0.125)
    z = rho * (0.8 + pressure(rho, params))
    new_rho, new_z = lf_step_conservative(rho, z, C1, params, grid)
    assert np.allclose(new_rho, rho, atol=1e-14)
    assert np.allclose(new_z, z, atol=1e-14)


def test_pure_relaxation_increment():
    # gamma = 0 (so p = 0 and z = rho h), a = 1, uniform data: one step adds
    # exactly dt (H(rho) - h) to the headway.
    grid = Grid1D(-4.0, 4.0, 0.1)
    dt = 0.05
    params = ModelParams(gamma=0.0, a=1.0, dt=dt)
    rho = np.full(grid.n_cells, 0.25)
    h = np.full(grid.n_cells, 2.0)
    new_rho, new_z = lf_step_conservative(rho, rho * h, C1, params, grid)
    expected = 2.0 + dt * (headway_H(0.25) - 2.0)
    assert np.allclose(new_z / new_rho, expected, atol=1e-14)


def test_mass_conservation_on_rough_data():
    grid = Grid1D(-4.0, 4.0, 0.05)
    params = ModelParams(dt=0.025)
    rng = np.random.default_rng(0)
    rho = rng.uniform(0.05, 0.5, grid.n_cells)
    h = rng.uniform(0.5, 2.0, grid.n_cells)
    m0 = total_mass(rho, grid)

    r1 = rho.copy()
    for _ in range(200):
        r1 = lf_step_first_order(r1, C1, params, grid)
    assert total_mass(r1, grid) == pytest.approx(m0, rel=1e-12)
    assert np.all(r1 >= 0)  # monotone scheme positivity

    params_a = ModelParams(dt=0.025, a=1.0)
    r2, z2 = rho.copy(), rho * (h + pressure(rho, params_a))
    for _ in range(200):
        r2, z2 = lf_step_conservative(r2, z2, C1, params_a, grid)
    assert total_mass(r2, grid) == pytest.approx(m0, rel=1e-12)


def test_total_mass_examples():
    grid = Grid1D(-4.0, 4.0, 0.1)
    assert total_mass(np.full(grid.n_cells, 0.125), grid) == pytest.approx(1.0)
    sc = paper_comparison_scenario(dx=0.1, dt=0.1)
    assert total_mass(sc.rho0_field(), grid) == pytest.approx(1.0)
    assert total_mass(np.zeros(grid.n_cells), grid) == 0.0


def test_capacity_on_grid_matches_pointwise():
    sc = paper_comparison_scenario(dx=0.1, dt=0.1)
    c = capacity_on_grid(sc.capacity, sc.grid)
    assert c[sc.grid.cell_index(0.0)] == pytest.approx(0.6)
    assert c[sc.grid.cell_index(-3.5)] == 1.0


def test_runs_report_requested_snapshots():
    sc = paper_comparison_scenario(dx=0.1, dt=0.05, T=1.0)
    params = ModelParams(dt=0.05, T=1.0)
    fields = run_first_order(sc.rho0_field(), sc.capacity, params, sc.grid)
    assert set(fields) == {0.0, 0.5, 1.0}
    # first-order headway is reported through the equilibrium closure
    f = fields[1.0]
    assert np.allclose(f.h, headway_H(f.rho))

    fields2 = run_second_order(sc.rho0_field(), sc.h0_field(), sc.capacity,
                               params, sc.grid, out_times=(1.0,))
    assert set(fields2) == {1.0}


def test_second_order_initial_snapshot_is_the_input_bit_for_bit():
    grid = Grid1D(-4.0, 4.0, 0.1)
    params = ModelParams(dt=0.05, T=0.1)
    rng = np.random.default_rng(1)
    rho = rng.uniform(0.05, 0.5, grid.n_cells)
    h = rng.uniform(0.5, 2.0, grid.n_cells)
    # some cells do not round-trip through z = rho (h + p(rho))
    z = rho * (h + pressure(rho, params))
    assert not np.array_equal(z / rho - pressure(rho, params), h)
    f0 = run_second_order(rho, h, C1, params, grid, out_times=(0.0,))[0.0]
    assert np.array_equal(f0.rho, rho)
    assert np.array_equal(f0.h, h)


def test_grid_refinement_reduces_solution_change():
    sc_c = paper_comparison_scenario(dx=4e-2, dt=4e-2, T=2.0)
    sc_m = paper_comparison_scenario(dx=2e-2, dt=2e-2, T=2.0)
    sc_f = paper_comparison_scenario(dx=1e-2, dt=1e-2, T=2.0)

    def final_rho(sc):
        return run_first_order(sc.rho0_field(), sc.capacity, sc.params,
                               sc.grid, out_times=(2.0,))[2.0].rho

    rc, rm, rf = final_rho(sc_c), final_rho(sc_m), final_rho(sc_f)
    # compare successive refinements on the coarse cells
    d_cm = np.sum(np.abs(rc - rm.reshape(-1, 2).mean(axis=1))) * sc_c.grid.dx
    d_mf = np.sum(np.abs(rm - rf.reshape(-1, 2).mean(axis=1))) * sc_m.grid.dx
    assert d_mf < d_cm


def test_second_order_guards_against_vanishing_density():
    grid = Grid1D(0.0, 1.0, 0.25)
    params = ModelParams(dt=0.1)
    rho = np.array([0.0, 0.0, 0.0, 0.0])
    z = np.ones(4)
    with pytest.raises(NumericalError):
        lf_step_conservative(rho, z, C1, params, grid)


def test_pressure_enters_conservative_variable():
    # z = rho (h + p(rho)) round-trips h exactly
    params = ModelParams()
    rho, h = 0.125, 1.0
    z = rho * (h + pressure(rho, params))
    assert z == pytest.approx(0.125 * (1 + 0.0003125))
    assert z / rho - pressure(rho, params) == pytest.approx(h)


def _roll_lf(q, flux, lam):
    q_m, q_p = np.roll(q, 1, axis=-1), np.roll(q, -1, axis=-1)
    f_m, f_p = np.roll(flux, 1, axis=-1), np.roll(flux, -1, axis=-1)
    return 0.5 * (q_m + q_p) - lam * (f_p - f_m)


@st.composite
def lf_inputs(draw):
    """(q, flux) of 1 to 5 cells, 1-D or with 1 to 3 rows; a transposed
    q is not contiguous along the cells."""
    n = draw(st.integers(1, 5))
    rows = draw(st.sampled_from([(), (1,), (2,), (3,)]))
    elements = st.floats(-1e6, 1e6)
    flux = draw(arrays(np.float64, rows + (n,), elements=elements))
    if rows and draw(st.booleans()):
        q = draw(arrays(np.float64, (n,) + rows, elements=elements)).T
    else:
        q = draw(arrays(np.float64, rows + (n,), elements=elements))
    return q, flux


@given(lf_inputs(), st.floats(0.0, 1.0))
def test_lf_update_equals_roll_form_bit_for_bit(inputs, lam):
    q, flux = inputs
    before = q.copy(), flux.copy()
    got, want = _lf(q, flux, lam), _roll_lf(q, flux, lam)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(q, before[0]) and np.array_equal(flux, before[1])
