"""Stochastic particle model: binning, update rules and determinism."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trafficflow.core import (
    AccidentCapacity,
    ConfigError,
    ConstantCapacity,
    Grid1D,
    ModelParams,
    NumericalError,
    PiecewiseRampCapacity,
    _periodic_wrap,
    headway_H,
    speed_V,
)
from trafficflow.particle import (
    ParticleEnsemble,
    ParticleWork,
    RngStream,
    _density_at,
    _draw_subset,
    _select_partners,
    bin_to_fields,
    particle_init,
    particle_step,
    run_particle,
)
from trafficflow.scenario import PiecewiseProfile, paper_comparison_scenario

C1 = ConstantCapacity(1.0)


def test_bin_to_fields_single_cell():
    grid = Grid1D(0.0, 2.0, 0.5)
    ens = ParticleEnsemble(x=np.full(100, 0.25), s=np.ones(100), weight=0.01)
    field = bin_to_fields(ens, grid)
    assert field.rho[0] == pytest.approx(2.0)
    assert np.all(field.rho[1:] == 0.0)
    assert field.h[0] == 1.0
    assert np.all(field.h[1:] == 0.0)  # empty-cell convention


def test_binned_mass_equals_particle_mass():
    grid = Grid1D(-4.0, 4.0, 0.25)
    rng = np.random.default_rng(3)
    ens = ParticleEnsemble(x=rng.uniform(-4, 4, 5000),
                           s=rng.uniform(0.5, 1.5, 5000), weight=2e-4)
    field = bin_to_fields(ens, grid)
    assert field.rho.sum() * grid.dx == pytest.approx(ens.weight * ens.n,
                                                      rel=1e-12)


def test_particle_init_uniform_density():
    grid = Grid1D(-4.0, 4.0, 0.1)
    ens = particle_init(PiecewiseProfile.uniform(0.125),
                        PiecewiseProfile.uniform(1.0), 20_000, grid)
    assert ens.weight * ens.n == pytest.approx(1.0, rel=1e-9)
    field = bin_to_fields(ens, grid)
    assert np.allclose(field.rho, 0.125, atol=0.02)
    assert np.allclose(field.h, 1.0)


def test_frozen_dynamics_advect_with_constant_speed():
    # gamma = 0 and a = 0: headways never change, positions advance by
    # c * V(s) * dt each step.
    grid = Grid1D(-4.0, 4.0, 0.1)
    params = ModelParams(gamma=0.0, a=0.0, dt=1e-3)
    ens = ParticleEnsemble(x=np.linspace(-3, 3, 50), s=np.ones(50),
                           weight=1e-2)
    rng = RngStream(0, 1).generator()
    new = particle_step(ens, params, C1, grid, rng)
    assert np.allclose(new.s, ens.s)
    assert np.allclose(new.x - ens.x, speed_V(1.0) * 1e-3)


def test_symmetric_interactions_leave_headways_unchanged():
    # All headways equal and capacity constant: the interaction increment
    # gamma (c V(S*) - c V(S)) vanishes whatever partner is drawn.
    grid = Grid1D(-4.0, 4.0, 0.1)
    params = ModelParams(gamma=0.5, a=0.0, dt=0.9)  # high interaction rate
    ens = ParticleEnsemble(x=np.linspace(-4, 3.9, 200), s=np.full(200, 0.7),
                           weight=1e-2)
    new = particle_step(ens, params, C1, grid, RngStream(1, 1).generator())
    assert np.allclose(new.s, 0.7)


def test_interaction_from_zero_headway_stays_nonnegative():
    # A stopped particle (S = 0) interacting with S* = 1 at gamma = 0.5 gains
    # 0.5 * V(1) = 0.25.
    grid = Grid1D(0.0, 1.0, 0.5)
    params = ModelParams(gamma=0.5, a=0.0, dt=1.0, eta=0.5)
    ens = ParticleEnsemble(x=np.array([0.25, 0.75]), s=np.array([0.0, 1.0]),
                           weight=0.5)
    new = particle_step(ens, params, C1, grid, RngStream(2, 1).generator())
    assert np.all(new.s >= 0)
    assert new.s[0] in (0.0, 0.25)  # unchanged or one interaction


def test_headways_stay_nonnegative_over_run():
    sc = paper_comparison_scenario(dx=4e-2, dt=4e-2, N=2000, T=1.0)
    params = ModelParams(gamma=0.5, a=1.0, dt=4e-2, T=1.0, N=2000)
    ens = particle_init(sc.rho0, sc.h0, params.N, sc.grid)
    fields = run_particle(ens, sc.capacity, params, sc.grid, seed=0)
    assert all(np.all(f.h >= 0) for f in fields.values())
    masses = [f.rho.sum() * sc.grid.dx for f in fields.values()]
    assert masses[0] == pytest.approx(masses[-1], rel=1e-12)


def test_seed_determinism_and_sensitivity():
    sc = paper_comparison_scenario(dx=4e-2, dt=4e-2, N=1000, T=0.4)
    params = ModelParams(dt=4e-2, T=0.4, N=1000)
    ens = particle_init(sc.rho0, sc.h0, params.N, sc.grid)
    a = run_particle(ens, sc.capacity, params, sc.grid, seed=11)
    b = run_particle(ens, sc.capacity, params, sc.grid, seed=11)
    c = run_particle(ens, sc.capacity, params, sc.grid, seed=12)
    assert np.array_equal(a[0.4].rho, b[0.4].rho)
    assert np.array_equal(a[0.4].h, b[0.4].h)
    assert not np.array_equal(a[0.4].h, c[0.4].h)


def test_mean_headway_relaxes_toward_equilibrium():
    # c = 1, gamma = 0, a > 0 on uniform data: each relaxation event pulls S
    # toward H(rho) by the factor a, so the ensemble mean contracts toward it.
    grid = Grid1D(-4.0, 4.0, 0.5)
    params = ModelParams(gamma=0.0, a=1.0, epsilon=1.0, dt=0.5)
    rho_bar = 0.25
    ens = particle_init(PiecewiseProfile.uniform(rho_bar),
                        PiecewiseProfile.uniform(2.0), 8000, grid)
    target = headway_H(rho_bar)
    dev0 = abs(ens.s.mean() - target)
    for j in range(40):
        ens = particle_step(ens, params, C1, grid,
                            RngStream(5, j).generator())
    # after 40 events at probability 1/2 each the expected deviation factor
    # is (1/2)^20; sampling noise dominates, so just require a strong drop
    assert abs(ens.s.mean() - target) < 0.05 * dev0


def test_rng_stream_reproducibility():
    a = RngStream(42, 7).generator().random(5)
    b = RngStream(42, 7).generator().random(5)
    c = RngStream(42, 8).generator().random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_run_particle_rejects_large_dt():
    grid = Grid1D(0.0, 1.0, 0.5)
    params = ModelParams(epsilon=1e-3, dt=0.9, T=0.9)
    ens = ParticleEnsemble(x=np.array([0.2]), s=np.array([1.0]), weight=1.0)
    # dt = 0.9 <= min(1, 1/epsilon) is fine; dt above 1 is rejected upstream
    run_particle(ens, C1, params, grid, seed=0)
    with pytest.raises(ConfigError):
        bad = ModelParams(epsilon=2.0, dt=0.9, T=0.9)
        run_particle(ens, C1, bad, grid, seed=0)


# ---------------------------------------------------------------------------
# Partner search and draw layout
# ---------------------------------------------------------------------------

def _select_partners_concat(xs, targets, half_window, length, x_min, u):
    """Reference partner search on the full 2N concatenation of two laps
    of the sorted positions xs."""
    t = _periodic_wrap(targets, x_min, length)
    t = np.where(t - half_window < x_min, t + length, t)
    xs2 = np.concatenate([xs, xs + length])
    lo = np.searchsorted(xs2, t - half_window, side="left")
    hi = np.searchsorted(xs2, t + half_window, side="right")
    count = hi - lo
    pick = lo + np.floor(u * np.maximum(count, 1)).astype(np.int64)
    ahead = np.searchsorted(xs2, t, side="right")
    pick = np.where(count > 0, pick, ahead)
    return pick % len(xs)


ROADS = [(-4.0, 4.0), (0.0, 1.0), (0.1, 0.7), (-1e3, 2.5)]


@st.composite
def partner_cases(draw):
    x_min, x_max = draw(st.sampled_from(ROADS))
    length = x_max - x_min
    n = draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 60)))
    edges = [x_min, x_max, np.nextafter(x_min, -np.inf),
             np.nextafter(x_max, np.inf), x_min - 1e-300]
    offsets = st.floats(min_value=-length, max_value=2 * length)
    pool = st.one_of(st.sampled_from(edges), offsets.map(lambda r: x_min + r))
    if draw(st.booleans()):  # many equal positions
        pool = st.sampled_from(draw(st.lists(pool, min_size=1, max_size=3)))
    # the step searches the wrapped positions in road order
    x = np.sort(_periodic_wrap(np.array(draw(st.lists(pool, min_size=n,
                                                      max_size=n))),
                               x_min, length))
    # windows from empty (sparse roads) to wider than the road
    half_window = draw(st.one_of(
        st.sampled_from([1e-9 * length, 0.01 * length, 0.5 * length]),
        st.floats(min_value=1e-12 * length, max_value=1.5 * length)))
    idx = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    eta = draw(st.floats(min_value=0.0, max_value=2 * length))
    targets = [x[i] + eta for i in idx]
    targets += draw(st.lists(st.sampled_from(
        [x_min, x_max, np.nextafter(x_max, -np.inf), x_min + half_window,
         x_max - half_window, x_max - half_window / 2]), max_size=4))
    u = draw(st.lists(st.floats(min_value=0.0, max_value=1.0,
                                exclude_max=True),
                      min_size=len(targets), max_size=len(targets)))
    return x, np.array(targets), half_window, length, x_min, np.array(u)


@settings(max_examples=300, deadline=None)
@given(partner_cases())
def test_one_lap_partner_search_equals_concatenation(case):
    assert np.array_equal(_select_partners(*case),
                          _select_partners_concat(*case))


@pytest.mark.parametrize("shift", [-2, -1, 0, 1, 2])
def test_one_lap_partner_search_with_many_equal_positions_at_the_lap_end(
        shift):
    # hundreds of equal positions whose second-lap copies sit at the edge
    # of the largest query, so the second-lap prefix must grow past them
    x_min, length, half_window = -4.0, 8.0, 0.006
    t = x_min + length - half_window / 2
    reach = t + half_window
    # the last position whose second-lap copy is within reach lies above
    # reach - length, which therefore undercounts the prefix
    v = reach - length
    while np.nextafter(v, np.inf) + length <= reach:
        v = np.nextafter(v, np.inf)
    assert v > reach - length
    for _ in range(abs(shift)):
        v = np.nextafter(v, np.inf if shift > 0 else -np.inf)
    x = np.sort(np.concatenate([np.full(300, x_min), np.full(400, v),
                                np.linspace(x_min, x_min + length, 50,
                                            endpoint=False)]))
    targets = np.array([t, t, t - half_window, x_min + 1.0])
    u = np.array([0.0, 0.999, 0.5, 0.25])
    args = (x, targets, half_window, length, x_min, u)
    assert np.array_equal(_select_partners(*args),
                          _select_partners_concat(*args))


@pytest.mark.parametrize("bit_generator", [np.random.PCG64,
                                           np.random.MT19937])
def test_skipped_relaxation_draws_leave_the_step_unchanged(bit_generator):
    # at epsilon = 1e-300 relaxation never fires, so a = 1 draws the
    # relaxation uniforms and ignores them while a = 0 skips them
    sc = paper_comparison_scenario(dx=4e-2, dt=4e-2, N=2000, T=0.4)
    ens = particle_init(sc.rho0, sc.h0, 2000, sc.grid)
    runs = []
    for a in (0.0, 1.0):
        params = ModelParams(a=a, epsilon=1e-300, dt=0.5, T=1.0, N=2000)
        e = ens
        for j in range(3):
            rng = np.random.Generator(bit_generator([9, j]))
            e = particle_step(e, params, sc.capacity, sc.grid, rng)
        runs.append(e)
    assert np.array_equal(runs[0].x, runs[1].x)
    assert np.array_equal(runs[0].s, runs[1].s)
    assert not np.array_equal(runs[0].s, ens.s)  # interactions happened


@pytest.mark.parametrize("n, p", [(1, 0.5), (50, 0.1), (1000, 2.5e-3),
                                  (200_000, 2.5e-3), (5000, 0.3)])
def test_drawn_subsets_are_sorted_unique_and_in_range(n, p):
    for j in range(20):
        idx = _draw_subset(RngStream(7, j).generator(), n, p)
        assert idx.dtype.kind == "i"
        assert np.all(np.diff(idx) > 0)
        assert idx.size == 0 or (idx[0] >= 0 and idx[-1] < n)


@pytest.mark.parametrize("p", [1.0, 1.0 + 1e-13])
def test_probability_one_draws_every_particle(p):
    # dt_check admits dt up to 1 + 1e-12, so p past 1 by rounding is 1
    for n in (1, 7, 3000):
        idx = _draw_subset(RngStream(1, 2).generator(), n, p)
        assert np.array_equal(idx, np.arange(n))


def test_each_particle_interacts_at_rate_dt():
    # over 2000 fixed (seed, step) streams each particle's count of
    # interactions is Binomial(2000, dt): mean 200, sigma 13.4; 5 sigma
    # bounds all 50 particles, failing with chance about 3e-5 (normal
    # approximation) for a seed drawn at random
    n, dt, steps = 50, 0.1, 2000
    counts = np.zeros(n, dtype=np.int64)
    for j in range(1, steps + 1):
        counts[_draw_subset(RngStream(3, j).generator(), n, dt)] += 1
    sigma = np.sqrt(steps * dt * (1 - dt))
    assert np.all(np.abs(counts - steps * dt) <= 5 * sigma)
    assert abs(counts.sum() - n * steps * dt) <= 5 * np.sqrt(n) * sigma


def test_unsorted_ensemble_steps_as_its_sorted_copy():
    # the step puts the ensemble in road order first, so any input order
    # gives the same result, returned in road order
    sc = paper_comparison_scenario(dx=4e-2, dt=4e-2, N=500, T=0.4)
    x = np.linspace(-3.99, 3.99, 500)
    s = np.random.default_rng(4).uniform(0.2, 2.0, 500)
    perm = np.random.default_rng(5).permutation(500)
    params = ModelParams(a=1.0, epsilon=1.0, dt=0.5, T=1.0)
    new = [particle_step(ParticleEnsemble(x=xs, s=ss, weight=1e-3), params,
                         sc.capacity, sc.grid, RngStream(6, 1).generator())
           for xs, ss in ((x, s), (x[perm], s[perm]))]
    assert np.array_equal(new[0].x, new[1].x)
    assert np.array_equal(new[0].s, new[1].s)
    assert not np.array_equal(new[0].s, s)  # interactions happened


def test_run_across_x_max_keeps_every_particle():
    # every particle starts just below x_max and ends one cell past x_min
    # half a road later; equal headways on a constant capacity never change
    grid = Grid1D(0.0, 1.0, 0.1)
    n = 1000
    ens = ParticleEnsemble(x=np.linspace(0.92, 0.98, n), s=np.ones(n),
                           weight=1.0 / n)
    params = ModelParams(gamma=0.5, a=0.0, dt=0.1, T=1.0)
    fields = run_particle(ens, C1, params, grid, seed=8)
    counts = fields[1.0].rho * grid.dx / ens.weight
    assert np.array_equal(counts, np.eye(grid.n_cells)[4] * n)
    masses = [f.rho.sum() * grid.dx for f in fields.values()]
    assert masses[0] == pytest.approx(masses[-1], rel=1e-12)


def test_negative_headway_names_the_particle_step_and_time():
    # dt = epsilon dt = 1: every particle interacts and relaxes in step 1.
    # The ensemble is in road order already, so particle i is the i-th
    # from x_min. Particle 4 (s = 50, speed near 1) meets a partner of
    # headway 0, and relaxes towards H of a dense cell, so its headway goes
    # below zero.
    n = 40
    ens = ParticleEnsemble(x=np.linspace(0.01, 0.99, n),
                           s=np.where(np.arange(n) % 2 == 0, 50.0, 0.0),
                           weight=1.0)
    params = ModelParams(gamma=1.0, a=1.0, epsilon=1.0, dt=1.0, T=3.0,
                         eta=0.25)
    with pytest.raises(NumericalError,
                       match=r"^step 1 \(t = 1\): negative headway at "
                             r"particle 4$"):
        run_particle(ens, C1, params, Grid1D(0.0, 1.0, 0.25), seed=0)


def test_run_particle_rejects_large_dt_before_stepping():
    ens = ParticleEnsemble(x=np.array([0.2]), s=np.array([1.0]), weight=1.0)
    observed = []
    with pytest.raises(ConfigError, match=r"params\.dt = 0\.04 .* "
                                          r"params\.epsilon = 50"):
        run_particle(ens, C1, ModelParams(epsilon=50.0, dt=0.04, T=0.08),
                     Grid1D(0.0, 1.0, 0.5), seed=0,
                     emit=lambda t, field: observed.append(t))
    assert observed == []


# ---------------------------------------------------------------------------
# Relaxation density and the step's workspace
# ---------------------------------------------------------------------------

def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("x_min, x_max, dx", [(0.0, 1.0, 0.1),
                                              (-4.0, 4.0, 0.01),
                                              (0.1, 0.7, 0.05)])
def test_relaxation_density_equals_bin_to_fields(x_min, x_max, dx):
    grid = Grid1D(x_min, x_max, dx)
    edges = x_min + np.arange(grid.n_cells + 1) * dx
    x = np.concatenate([
        [x_min, x_max, x_min - 1e-300, x_min - 1e-300, x_max, x_min],
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        np.random.default_rng(2).uniform(x_min - 1.0, x_max + 1.0, 500),
        [np.nan]])  # sorts last; cell_index puts it in cell 0
    ens = ParticleEnsemble(x=x, s=np.ones(x.size), weight=0.3)
    order = np.argsort(grid.wrap(x), kind="stable")
    xs = grid.wrap(x)[order]
    at = np.arange(x.size)
    with np.errstate(invalid="ignore"):  # NaN cast to an integer
        want = bin_to_fields(ens, grid).rho[grid.cell_index(x[order])]
        got = _density_at(xs, at, ens.weight, grid)
        # a few particles, in any order and repeated, as the step draws them
        few = np.array([3, 0, 1, x.size - 2, 0])
        got_few = _density_at(xs, few, ens.weight, grid)
    assert _bits(got) == _bits(want)
    assert _bits(got_few) == _bits(want[few])


CAPACITIES = [(PiecewiseRampCapacity(0.6, 0.3, 0.7, 0.05), None),
              (AccidentCapacity(0.4), 0.2), (ConstantCapacity(0.8), None)]


@pytest.mark.parametrize("capacity, y", CAPACITIES)
@pytest.mark.parametrize("a", [0.0, 1.0])
def test_steps_with_a_work_equal_steps_without(capacity, y, a):
    # particles at x_max, at x_min and just below it; those below it have
    # headway 0, so they stand still and the first step leaves them at
    # x_max, where the second step cannot use its positions as the key
    grid = Grid1D(0.0, 1.0, 0.05)
    n = 2000
    x = np.linspace(-0.5, 1.5, n)
    s = np.random.default_rng(1).uniform(0.1, 1.5, n)
    x[:6], x[6:12], x[12:20], s[12:20] = 1.0, 0.0, -1e-300, 0.0
    params = ModelParams(gamma=0.5, a=a, epsilon=10.0, eta=0.05, dt=0.04,
                         T=1.0)
    work = ParticleWork(n)
    with_work = without = ParticleEnsemble(x=x, s=s, weight=1.0 / n)
    for j in range(1, 201):
        rng = [RngStream(3, j).generator() for _ in range(2)]
        with_work = particle_step(with_work, params, capacity, grid, rng[0],
                                  y, work=work)
        without = particle_step(without, params, capacity, grid, rng[1], y)
        assert with_work.x is work.x
        assert _bits(with_work.x) == _bits(without.x)
        assert _bits(with_work.s) == _bits(without.s)
        if j == 1:
            assert with_work.x.max() == grid.x_max
    assert not np.array_equal(with_work.s, s)  # interactions happened


def test_step_without_a_work_leaves_the_ensemble_unchanged():
    grid = Grid1D(0.0, 1.0, 0.05)
    x = np.linspace(-0.2, 1.2, 300)
    s = np.random.default_rng(3).uniform(0.1, 1.5, 300)
    ens = ParticleEnsemble(x=x.copy(), s=s.copy(), weight=1.0 / 300)
    params = ModelParams(gamma=0.5, a=1.0, epsilon=10.0, eta=0.05, dt=0.08)
    new = particle_step(ens, params, CAPACITIES[0][0], grid,
                        RngStream(4, 1).generator())
    assert _bits(ens.x) == _bits(x) and _bits(ens.s) == _bits(s)
    assert not np.array_equal(new.s, s[np.argsort(grid.wrap(x))])
