"""Follow-the-leader model: initialization, stepping and density sampling."""

import numpy as np
import pytest

from trafficflow.core import (
    AccidentCapacity,
    ConfigError,
    ConstantCapacity,
    Grid1D,
    ModelParams,
    PiecewiseRampCapacity,
    headway_H,
    micro_speed_equilibrium,
)
from trafficflow.micro import (
    OrderingViolationError,
    advance_positions,
    check_ordering,
    micro_init_from_density,
    periodic_gaps,
    run_micro,
    sample_density,
)
from trafficflow.scenario import PiecewiseProfile, paper_comparison_scenario

GRID = Grid1D(-4.0, 4.0, 0.1)
ROAD = Grid1D(0.0, 4.0, 0.5)  # the road of the hand-placed vehicles
C1 = ConstantCapacity(1.0)


def test_init_uniform_density_gives_equispaced_gaps():
    positions = micro_init_from_density(PiecewiseProfile.uniform(0.125),
                                        N=1000, L=1e-3, grid=GRID)
    assert positions.shape == (1000,)
    assert np.allclose(periodic_gaps(positions, GRID.length), 8e-3,
                       rtol=1e-9)


def test_init_step_profile_gaps_and_reconstruction():
    rho0 = PiecewiseProfile((0.0, 4.0), (0.15, 0.1))
    positions = micro_init_from_density(rho0, N=10_000, L=1e-4, grid=GRID)
    x = GRID.wrap(positions)[:-1]
    gaps = periodic_gaps(positions, GRID.length)[:-1]
    interior = (np.abs(x) > 0.05) & (np.abs(np.abs(x) - 4.0) > 0.05)
    expected = 1e-4 / rho0(x[interior])
    assert np.allclose(gaps[interior], expected, rtol=1e-6)

    sampled = sample_density(positions, 1e-4, GRID)
    centers_ok = np.abs(GRID.centers) > 0.1
    assert np.allclose(sampled[centers_ok], rho0(GRID.centers)[centers_ok],
                       rtol=2e-2)


def test_init_rejects_infeasible_packing():
    with pytest.raises(ConfigError):
        micro_init_from_density(PiecewiseProfile.uniform(0.5),
                                N=1000, L=0.01, grid=GRID)


def test_pair_with_double_gap_advances_half_step():
    # Two vehicles with gaps of 2L each: occupancy 1/2, speed 1/2.
    positions = np.array([0.0, 2.0])
    dt = 1e-3
    new = advance_positions(positions, C1, ModelParams(dt=dt, L=1.0), ROAD)
    assert np.allclose(new - positions, dt / 2)


def test_uniform_state_translates_without_gap_change():
    positions = micro_init_from_density(PiecewiseProfile.uniform(0.2),
                                        N=500, L=1e-3, grid=GRID)
    new = advance_positions(positions, C1, ModelParams(dt=1e-3, L=1e-3),
                            GRID)
    assert np.allclose(periodic_gaps(new, GRID.length),
                       periodic_gaps(positions, GRID.length), rtol=1e-12)


def test_fully_packed_follower_stalls():
    # Gap equal to the vehicle length: occupancy 1, speed 0.
    new = advance_positions(np.array([0.0, 0.5, 2.0]), C1,
                            ModelParams(dt=1e-2, L=0.5), ROAD)
    assert new[0] == 0.0


def test_gap_collapse_raises_ordering_violation():
    # The middle vehicle is jammed (gap L, speed 0); its follower closes a
    # 1.5 L gap at speed 1/3, so a large step drives the gap negative.
    positions = np.array([0.0, 1.5e-4, 2.5e-4])
    params = ModelParams(dt=1e-3, T=1e-3, N=3, L=1e-4)
    with pytest.raises(OrderingViolationError):
        run_micro(positions, C1, params, ROAD)


def test_ordering_violation_names_row_and_vehicle():
    # row 1 is the jam of the test above; it collapses at vehicle 0
    batch = np.array([[0.0, 1.0, 2.0], [0.0, 1.5e-4, 2.5e-4]])
    new = advance_positions(batch, C1, ModelParams(dt=1e-3, L=1e-4), ROAD)
    with pytest.raises(OrderingViolationError,
                       match="lost at row 1, vehicle 0$"):
        raise check_ordering(periodic_gaps(new, 4.0))


def test_run_micro_batch_names_the_first_collapse_of_row_1():
    # two jams: vehicle 0 closes a 1.5 L gap at speed 1/3 and vehicle 3 a
    # 2 L gap at speed 1/2, so both gaps turn negative in step 1, vehicle
    # 3's more so. Row 0's accident (c = 0) covers every vehicle and holds
    # them; row 1's covers none. The check names the first bad gap.
    positions = np.array([2.0, 2.00015, 2.00025, 2.5, 2.5002, 2.5003])
    params = ModelParams(dt=1e-3, T=4e-3, N=6, L=1e-4)
    with pytest.raises(OrderingViolationError,
                       match=r"^step 1 \(t = 0.001\): vehicle ordering lost "
                             r"at row 1, vehicle 0$"):
        run_micro(positions, AccidentCapacity(drop=1.0), params,
                  Grid1D(-4.0, 4.0, 0.5), y=[3.0, 1.0])


def test_run_micro_ordering_violation_names_step_and_time():
    positions = np.array([0.0, 1.5e-4, 2.5e-4])
    params = ModelParams(dt=1e-3, T=4e-3, N=3, L=1e-4)
    with pytest.raises(OrderingViolationError,
                       match=r"^step 1 \(t = 0.001\): .* row 0, vehicle 0$"):
        run_micro(positions, C1, params, ROAD, y=[1.0, 2.0])


def test_run_micro_rejects_unordered_initial_positions_as_step_1():
    # the check of the initial state: vehicle 1 stands ahead of its leader
    params = ModelParams(dt=1e-3, T=4e-3, N=3, L=1e-4)
    with pytest.raises(OrderingViolationError,
                       match=r"^step 1 \(t = 0.001\): vehicle ordering lost "
                             r"at row 0, vehicle 1$"):
        run_micro(np.array([0.0, 2.0, 1.0]), C1, params, ROAD, y=[1.0, 2.0])


def test_step_leaves_read_only_batch_unchanged_and_matches_rows():
    ramp = PiecewiseRampCapacity(c_low=0.6, x_left=-2.0, x_right=2.0,
                                 delta=0.1)
    positions = micro_init_from_density(
        PiecewiseProfile((0.0, 4.0), (0.15, 0.1)), N=400, L=1e-3, grid=GRID)
    args = (ramp, ModelParams(dt=0.05, L=1e-3), GRID)
    shifted = np.stack([positions, positions + 13.0])
    shifted.flags.writeable = False  # the second row needs the wrap
    for batch in (np.broadcast_to(positions, (2, 400)), shifted):
        before = batch.copy()
        new = advance_positions(batch, *args)
        assert np.array_equal(batch, before)
        for row, new_row in zip(batch, new):
            assert np.array_equal(new_row, advance_positions(row, *args))


def test_carried_gaps_give_the_same_step_and_the_new_gaps():
    positions = micro_init_from_density(
        PiecewiseProfile((0.0, 4.0), (0.15, 0.1)), N=400, L=1e-3, grid=GRID)
    args = (C1, ModelParams(dt=0.05, L=1e-3), GRID)
    gaps = periodic_gaps(positions, GRID.length)
    new = advance_positions(positions, *args, gaps=gaps)
    assert np.array_equal(new, advance_positions(positions, *args))
    assert np.array_equal(gaps, periodic_gaps(new, GRID.length))


def test_local_density_and_headway_fields():
    L = 1.0
    assert np.allclose(L / periodic_gaps(np.array([0.0, 2.0]), 4.0), 0.5)

    grid = Grid1D(-4.0, 4.0, 0.5)
    uniform = micro_init_from_density(PiecewiseProfile.uniform(0.1),
                                      N=800, L=1e-3, grid=grid)
    h = headway_H(sample_density(uniform, 1e-3, grid))
    assert np.allclose(h, 1 / 1.1, rtol=1e-6)


def test_periodic_gaps_sum_to_road_length():
    positions = np.sort(np.random.default_rng(0).uniform(0, 4.0, 50))
    gaps = periodic_gaps(positions, 4.0)
    assert gaps.sum() == pytest.approx(4.0)
    assert np.all(gaps > 0)


def test_mass_consistency_of_sampled_density():
    positions = micro_init_from_density(
        PiecewiseProfile((0.0, 4.0), (0.15, 0.1)), N=10_000, L=1e-4,
        grid=GRID)
    sampled = sample_density(positions, 1e-4, GRID)
    mass = sampled.sum() * GRID.dx
    assert mass == pytest.approx(10_000 * 1e-4, rel=2e-2)


def test_run_micro_snapshot_times_and_mass():
    sc = paper_comparison_scenario(dx=4e-2, dt=4e-2, N=500, T=1.0)
    params = ModelParams(dt=4e-2, T=1.0, N=500, L=1 / 500)
    positions = micro_init_from_density(sc.rho0, params.N, params.L, sc.grid)
    fields = run_micro(positions, sc.capacity, params, sc.grid)
    assert set(fields) == {0.0, 0.5, 1.0}
    m0 = fields[0.0].rho.sum()
    mT = fields[1.0].rho.sum()
    assert mT == pytest.approx(m0, rel=5e-2)


def test_translation_invariance_with_constant_capacity():
    params = ModelParams(dt=1e-3, L=1e-3)
    rng = np.random.default_rng(1)
    base = np.sort(rng.uniform(0.0, 3.0, 40))
    shift = 0.25
    s0, s1 = base, base + shift
    for _ in range(5):
        s0 = advance_positions(s0, C1, params, ROAD)
        s1 = advance_positions(s1, C1, params, ROAD)
    assert np.allclose(s1 - s0, shift, atol=1e-12)


def test_equilibrium_speed_law_is_slower_in_free_flow():
    positions = micro_init_from_density(PiecewiseProfile.uniform(0.1),
                                        N=500, L=1e-3, grid=GRID)
    params = ModelParams(dt=1e-2, L=1e-3)
    linear = advance_positions(positions, C1, params, GRID)
    eq = advance_positions(positions, C1, params, GRID,
                           speed_law=micro_speed_equilibrium)
    adv_linear = (linear - positions).mean()
    adv_eq = (eq - positions).mean()
    assert adv_eq < adv_linear
    assert adv_eq == pytest.approx(1e-2 * micro_speed_equilibrium(
        1e-3 / periodic_gaps(positions, GRID.length).mean()), rel=1e-6)
