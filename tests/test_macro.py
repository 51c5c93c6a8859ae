"""Lax-Friedrichs solvers: CFL guard, conservation, fixed points."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from trafficflow.core import (
    CFLViolationError,
    AccidentCapacity,
    ConstantCapacity,
    Grid1D,
    ModelParams,
    NumericalError,
    headway_H,
    pressure,
    speed_V,
)
from trafficflow.macro import (
    LFWork,
    _lf,
    capacity_on_grid,
    cfl_check,
    check_second_order,
    cfl_ratio,
    lf_step_conservative,
    lf_step_first_order,
    run_first_order,
    run_second_order,
    total_mass,
)
from trafficflow.micro import periodic_gaps
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
    params = ModelParams(dt=0.1, T=0.1)
    rho = np.array([0.0, 0.0, 0.0, 0.0])
    h = np.ones(4)
    with pytest.raises(NumericalError):
        run_second_order(rho, h, C1, params, grid)


def test_second_order_check_rejects_vanishing_and_nan_density():
    assert check_second_order(np.array([1e-12 * 1.01, 0.3])) is None
    for bad in (1e-12, 0.0, -0.2, np.nan):
        err = check_second_order(np.array([[0.1, 0.2], [0.3, bad]]))
        assert str(err) == "vanishing density at row 1, cell 1"


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


@st.composite
def flat_batches(draw):
    """(a, b): two arrays of 1 to 70 rows of 1, 2, 3 or 500 cells, each
    contiguous or one row broadcast to every row, with NaN or +-inf
    written into some rows."""
    shape = (draw(st.integers(1, 70)), draw(st.sampled_from([1, 2, 3, 500])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = []
    for _ in range(2):
        rows = draw(st.sampled_from([1, shape[0]]))
        a = rng.uniform(-1e6, 1e6, (rows, shape[1]))
        for r in draw(st.lists(st.integers(0, rows - 1), max_size=3)):
            a[r, rng.integers(shape[1])] = draw(
                st.sampled_from([np.nan, np.inf, -np.inf]))
        out.append(np.broadcast_to(a, shape))
    return out


@given(flat_batches(), st.floats(0.0, 1.0))
def test_flat_batch_stencils_equal_their_per_row_forms_bit_for_bit(
        batch, lam):
    # _lf and periodic_gaps run their interior slices over the flattened
    # batch; a 1-D row takes the same slices as the row-by-row form
    q, flux = batch
    with np.errstate(invalid="ignore", over="ignore"):
        got = _lf(q, flux, lam)
        want = np.stack([_lf(qr, fr, lam) for qr, fr in zip(q, flux)])
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == _roll_lf(q, flux, lam).tobytes()
        got = periodic_gaps(q, 8.0)
        want = np.stack([periodic_gaps(row, 8.0) for row in q])
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == np.concatenate(
            [np.diff(q, axis=-1), q[:, :1] + 8.0 - q[:, -1:]],
            axis=-1).tobytes()


def _reference_conservative_step(rho, z, c, params, lam):
    """The conservative step written from the public closures, as in its
    plain form: c V(max(z/rho - p(rho), 0)) advection through the np.roll
    update, then dt a rho (H(rho) - h) on the post-advection state."""
    cv = c * speed_V(np.maximum(z / rho - pressure(rho, params), 0.0))
    rho_new = _roll_lf(rho, cv * rho, lam)
    z_new = _roll_lf(z, cv * z, lam)
    if params.a != 0.0:
        h = z_new / rho_new - pressure(rho_new, params)
        z_new = z_new + params.dt * params.a * rho_new * (
            headway_H(rho_new) - h)
    return rho_new, z_new


@st.composite
def conservative_states(draw, rows, n):
    """(rho, z, c): rho above the vanishing-density guard, z from zero
    (whose headway is floored) up, c of the state's shape or one row."""
    shape = rows + (n,)
    rho = draw(arrays(np.float64, shape, elements=st.floats(1e-9, 10.0)))
    z = draw(arrays(np.float64, shape, elements=st.floats(0.0, 20.0)))
    c_shape = shape if draw(st.booleans()) else (n,)
    c = draw(arrays(np.float64, c_shape, elements=st.floats(0.0, 1.0)))
    return rho, z, c


@pytest.mark.parametrize("n", [1, 2, 9])
@pytest.mark.parametrize("rows", [(), (3,)], ids=["one-row", "batch"])
@pytest.mark.parametrize("a", [0.0, 0.7])
@given(data=st.data(), courant=st.floats(0.01, 1.0),
       gamma=st.floats(0.0, 1.0), eta=st.floats(1e-3, 1.0))
def test_conservative_step_equals_closure_form_bit_for_bit(n, rows, a, data,
                                                           courant, gamma,
                                                           eta):
    # dt <= dx keeps the LF update positive, so neither form raises
    grid = Grid1D(0.0, float(n), 1.0)
    params = ModelParams(a=a, dt=courant, gamma=gamma, eta=eta)
    rho, z, c = data.draw(conservative_states(rows, n))
    before = rho.copy(), z.copy(), c.copy()
    got = lf_step_conservative(rho, z, C1, params, grid, c=c)
    want = _reference_conservative_step(rho, z, c, params,
                                        params.dt / (2 * grid.dx))
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    for arr, old in zip((rho, z, c), before):
        assert np.array_equal(arr, old)


def _steps(rho, z, c, params, grid, n_steps, work):
    """The states after 1..n_steps conservative steps, or the error."""
    states = []
    try:
        for _ in range(n_steps):
            rho, z = lf_step_conservative(rho, z, C1, params, grid, c=c,
                                          work=work)
            states.append((rho.copy(), z.copy()))
    except NumericalError as exc:
        return states, str(exc)
    return states, None


@pytest.mark.parametrize("layout", ["row", "1xn", "64xn", "broadcast"])
@pytest.mark.parametrize("a", [0.0, 1.0])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9),
       courant=st.floats(0.01, 1.0), n_steps=st.integers(1, 4))
def test_workspace_step_equals_allocating_step_bit_for_bit(layout, a, seed,
                                                           n, courant,
                                                           n_steps):
    # several steps, so that both pairs of the workspace take their turn;
    # "broadcast" starts, as run_second_order does, from one read-only row
    # broadcast to a batch whose capacity differs per row
    rng = np.random.default_rng(seed)
    shape = {"row": (n,), "1xn": (1, n), "64xn": (64, n),
             "broadcast": (n,)}[layout]
    rho = rng.uniform(1e-3, 10.0, shape)
    z = rho * rng.uniform(0.0, 2.0, shape)
    c = rng.uniform(0.0, 1.0, (64, n) if layout == "broadcast" else shape)
    if layout == "broadcast":
        rho, z = np.broadcast_to(rho, c.shape), np.broadcast_to(z, c.shape)
    before = rho.copy(), z.copy(), c.copy()
    for arr in (rho, z, c):
        arr.flags.writeable = False
    grid = Grid1D(0.0, float(n), 1.0)
    params = ModelParams(a=a, dt=courant)
    work = LFWork(np.broadcast(rho, z, c).shape)
    got = _steps(rho, z, c, params, grid, n_steps, work)
    want = _steps(rho, z, c, params, grid, n_steps, None)
    assert got[1] == want[1]
    assert len(got[0]) == len(want[0])
    for g, w in zip(got[0], want[0]):
        for g_arr, w_arr in zip(g, w):
            assert g_arr.shape == w_arr.shape == c.shape
            assert g_arr.tobytes() == w_arr.tobytes()
    for arr, old in zip((rho, z, c), before):
        assert np.array_equal(arr, old)


def test_vanishing_density_names_step_and_time():
    grid = Grid1D(0.0, 1.0, 0.25)
    rho0 = np.array([0.2, 0.0, 0.2, 0.2])
    with pytest.raises(NumericalError,
                       match=r"^step 1 \(t = 0\.1\): vanishing density"):
        run_second_order(rho0, np.full(4, 0.5), C1,
                         ModelParams(dt=0.1, T=0.2), grid)


def test_vanishing_density_in_a_batch_names_row_cell_step_and_time():
    # rho = 2e-12 everywhere; row 1's accident (c = 0 on |x| <= 1) stops
    # the traffic there, so the cell just downstream of it (cell 12)
    # drains below the 1e-12 floor at step 4, while row 0's accident
    # covers no cell centre and its state stays uniform
    grid = Grid1D(-2.0, 2.0, 0.25)
    with pytest.raises(NumericalError,
                       match=r"^step 4 \(t = 1\): vanishing density at "
                             r"row 1, cell 12$"):
        run_second_order(np.full(16, 2e-12), np.ones(16),
                         AccidentCapacity(drop=1.0),
                         ModelParams(dt=0.25, T=2.0), grid, y=[0.1, 1.0])
