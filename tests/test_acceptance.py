"""End-to-end acceptance suite.

Each test pins a quantitative claim about the toolkit at a fixed scale:
fixed grids, step sizes, sample counts and seeds, with explicit tolerances.
These are the headline guarantees; the per-module suites cover the parts.
"""

import numpy as np
import pytest

from trafficflow import analysis, macro, micro, particle, uq
from trafficflow.cli import main
from trafficflow.core import (
    ConstantCapacity,
    Grid1D,
    ModelParams,
    headway_H,
    micro_speed_equilibrium,
)
from trafficflow.scenario import (
    PiecewiseProfile,
    Scenario,
    UQConfig,
    accident_scenario,
    paper_comparison_scenario,
)


def rel_l1(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(np.abs(a - b)) / np.sum(np.abs(b)))


def coarsen(rho: np.ndarray, factor: int) -> np.ndarray:
    return rho.reshape(-1, factor).mean(axis=1)


# ---------------------------------------------------------------------------
# 1. Uniform states are fixed points of every model
# ---------------------------------------------------------------------------

def test_uniform_state_is_fixed_point_of_all_models():
    rho_c, n_vehicles = 0.125, 1000
    h_c = headway_H(rho_c)
    grid = Grid1D(-4.0, 4.0, 0.04)
    params = ModelParams(dt=0.04, T=1.0, N=n_vehicles, L=1.0 / n_vehicles)
    cap = ConstantCapacity(1.0)
    rho0 = np.full(grid.n_cells, rho_c)
    h0 = np.full(grid.n_cells, h_c)

    f1 = macro.run_first_order(rho0, cap, params, grid, out_times=(1.0,))[1.0]
    assert np.max(np.abs(f1.rho - rho_c)) <= 1e-14

    f2 = macro.run_second_order(rho0, h0, cap, params, grid,
                                out_times=(1.0,))[1.0]
    assert np.max(np.abs(f2.rho - rho_c)) <= 1e-14
    assert np.max(np.abs(f2.h - h_c)) <= 1e-14

    profile = PiecewiseProfile.uniform(rho_c)
    state = micro.micro_init_from_density(profile, n_vehicles, params.L, grid)
    fm = micro.run_micro(state, cap, params, grid, out_times=(1.0,))[1.0]
    # uniform translation: density is preserved up to position round-off
    assert np.max(np.abs(fm.rho - rho_c)) <= 1e-13

    # particle positions churn stochastically; per-cell occupation stays
    # within 3 sigma of the binomial count at 1e5 particles
    n_particles = 100_000
    pgrid = Grid1D(-4.0, 4.0, 0.1)
    pparams = ModelParams(dt=0.05, T=1.0, a=0.0)
    ens = particle.particle_init(profile, PiecewiseProfile.uniform(h_c),
                                 n_particles, pgrid)
    fp = particle.run_particle(ens, cap, pparams, pgrid, seed=11,
                               out_times=(1.0,))[1.0]
    p_cell = pgrid.dx / pgrid.length
    mean_count = n_particles * p_cell
    sigma = np.sqrt(n_particles * p_cell * (1 - p_cell))
    counts = fp.rho * pgrid.dx / ens.weight
    assert np.max(np.abs(counts - mean_count)) <= 3 * sigma
    # headways never change in a uniform state; binning only adds round-off
    assert np.max(np.abs(fp.h - h_c)) <= 1e-12


# ---------------------------------------------------------------------------
# 2. Exact discrete mass conservation over the full horizon
# ---------------------------------------------------------------------------

def test_macro_solvers_conserve_mass_over_full_horizon():
    sc = paper_comparison_scenario(dx=2e-3, dt=2e-3, T=10.0)
    rho0, h0 = sc.rho0_field(), sc.h0_field()
    m0 = macro.total_mass(rho0, sc.grid)

    out1 = macro.run_first_order(rho0, sc.capacity, sc.params, sc.grid,
                                 out_times=(10.0,))[10.0]
    assert abs(macro.total_mass(out1.rho, sc.grid) - m0) <= 1e-10 * m0

    out2 = macro.run_second_order(rho0, h0, sc.capacity, sc.params, sc.grid,
                                  out_times=(10.0,))[10.0]
    assert abs(macro.total_mass(out2.rho, sc.grid) - m0) <= 1e-10 * m0


# ---------------------------------------------------------------------------
# 3. Vehicle-following dynamics reproduce the first-order continuum model
# ---------------------------------------------------------------------------

def test_micro_density_matches_first_order_macro():
    n_vehicles = 2000
    sc = paper_comparison_scenario(dx=4e-3, dt=4e-3, T=10.0)
    params = ModelParams(dt=4e-3, T=10.0, N=n_vehicles, L=1.0 / n_vehicles)
    state = micro.micro_init_from_density(sc.rho0, n_vehicles, params.L,
                                          sc.grid)
    fm = micro.run_micro(state, sc.capacity, params, sc.grid,
                         out_times=(10.0,),
                         speed_law=micro_speed_equilibrium)[10.0]
    f1 = macro.run_first_order(sc.rho0_field(), sc.capacity, params, sc.grid,
                               out_times=(10.0,))[10.0]
    assert rel_l1(fm.rho, f1.rho) <= 0.05


# ---------------------------------------------------------------------------
# 4. Stochastic particle ensemble reproduces the second-order macro model
# ---------------------------------------------------------------------------

def test_particle_density_matches_second_order_macro():
    sc_p = paper_comparison_scenario(dx=1e-2, dt=1e-3, T=10.0)
    ens = particle.particle_init(sc_p.rho0, sc_p.h0, 200_000, sc_p.grid)
    fp = particle.run_particle(ens, sc_p.capacity, sc_p.params, sc_p.grid,
                               seed=42, out_times=(10.0,))[10.0]

    sc_m = paper_comparison_scenario(dx=1e-3, dt=1e-3, T=10.0)
    fm = macro.run_second_order(sc_m.rho0_field(), sc_m.h0_field(),
                                sc_m.capacity, sc_m.params, sc_m.grid,
                                out_times=(10.0,))[10.0]

    rho_p = coarsen(fp.rho, 2)   # 1e-2 cells -> 2e-2 comparison bins
    rho_m = coarsen(fm.rho, 20)  # 1e-3 cells -> 2e-2 comparison bins
    assert rel_l1(rho_p, rho_m) <= 0.08


# ---------------------------------------------------------------------------
# 5. Headway relaxation pulls the two macro models together
# ---------------------------------------------------------------------------

def test_relaxation_shrinks_macro_model_distance_by_20_percent():
    distances = {}
    for a in (0.0, 1.0):
        sc = paper_comparison_scenario(dx=2e-3, dt=2e-3, a=a, T=10.0)
        f1 = macro.run_first_order(sc.rho0_field(), sc.capacity, sc.params,
                                   sc.grid, out_times=(10.0,))[10.0]
        f2 = macro.run_second_order(sc.rho0_field(), sc.h0_field(),
                                    sc.capacity, sc.params, sc.grid,
                                    out_times=(10.0,))[10.0]
        distances[a] = float(np.sum(np.abs(f2.rho - f1.rho)) * sc.grid.dx)
    assert distances[1.0] <= 0.8 * distances[0.0]


# ---------------------------------------------------------------------------
# 6. Eigenstructure across the admissible state space
# ---------------------------------------------------------------------------

def test_eigenstructure_holds_across_sampled_states():
    params = ModelParams()
    states = analysis.sample_admissible_states(1000, seed=0)
    for state in states:
        dec = analysis.eigenstructure(state, params)
        assert analysis.eigen_residual(state, params) <= 1e-10
        l1, l2, l3 = dec.lambdas
        assert 0.0 <= l1 < l2 < l3
        assert analysis.genuine_nonlinearity_2(state, params) < 0.0
        assert abs(analysis.directional_derivative_fd(1, state, params)) <= 1e-8
        assert abs(analysis.directional_derivative_fd(3, state, params)) <= 1e-8


# ---------------------------------------------------------------------------
# 7. Shock loci coincide with rarefaction curves
# ---------------------------------------------------------------------------

def test_shock_curves_coincide_with_rarefaction_curves():
    params = ModelParams()
    left = analysis.StateUHC(rho=0.1, h=1.0, c=1.0)
    assert analysis.shock_equals_rarefaction_check(
        2, left, n_points=20, params=params) <= 1e-8
    assert analysis.shock_equals_rarefaction_check(
        3, left, n_points=20, params=params) <= 1e-8
    assert analysis.shock_equals_rarefaction_check(
        1, left, n_points=20, params=params, ode_steps=10_000) <= 1e-6


# ---------------------------------------------------------------------------
# 8. Quadrature exactness and basis orthonormality
# ---------------------------------------------------------------------------

def test_quadrature_exactness_and_basis_orthonormality():
    rng = np.random.default_rng(8)
    for n in range(1, 13):
        quad = uq.gauss_legendre(n)
        assert abs(quad.weights.sum() - 2.0) <= 1e-12
        for deg in range(2 * n):
            coeffs = rng.uniform(-1.0, 1.0, deg + 1)
            exact = sum(c / (k + 1) * (1 - (-1) ** (k + 1))
                        for k, c in enumerate(coeffs))
            approx = np.polynomial.polynomial.polyval(quad.nodes,
                                                      coeffs) @ quad.weights
            assert abs(approx - exact) <= 1e-12

    quad = uq.gauss_legendre(20)
    basis = uq.legendre_basis(6, quad.y_nodes)
    gram = np.einsum("iq,jq,q->ij", basis, basis, 0.5 * quad.weights)
    assert np.max(np.abs(gram - np.eye(7))) <= 1e-12


# ---------------------------------------------------------------------------
# 9. Chaos expansion degenerates to the deterministic solvers
# ---------------------------------------------------------------------------

def test_pce_with_deterministic_capacity_equals_deterministic_runs():
    sc = paper_comparison_scenario(dx=1e-2, dt=1e-2, N=400, T=1.0)
    runs = uq.GalerkinRuns([uq.gauss_legendre(3)], (0,))
    c_nodes = macro.capacity_on_grid(sc.capacity, sc.grid, runs.y_nodes)

    from trafficflow.core import pressure
    rho = sc.rho0_field()
    z = rho * (sc.h0_field() + pressure(rho, sc.params))
    rho_hat = runs.deterministic(rho)
    modes = uq.PceModesMacro(rho_hat, runs.deterministic(z),
                             runs.to_nodes(rho_hat))
    for _ in range(sc.params.n_steps()):
        modes = uq.pce_macro_step(modes, runs, c_nodes, sc.params, sc.grid)
        rho, z = macro.lf_step_conservative(rho, z, sc.capacity, sc.params,
                                            sc.grid)
        assert np.max(np.abs(modes.rho_hat[0] - rho)) <= 1e-12
        assert np.max(np.abs(modes.z_hat[0] - z)) <= 1e-12

    params = ModelParams(dt=1e-2, T=1.0, N=400, L=1.0 / 400)
    x = micro.micro_init_from_density(sc.rho0, 400, params.L, sc.grid)
    x_hat = runs.deterministic(x)
    mmodes = uq.PceModesMicro(x_hat, runs.to_nodes(x_hat))
    for _ in range(params.n_steps()):
        mmodes = uq.pce_micro_step(mmodes, runs, sc.capacity, params,
                                   sc.grid)
        x = micro.advance_positions(x, sc.capacity, params, sc.grid)
        assert np.max(np.abs(mmodes.x_hat[0] - x)) <= 1e-12


# ---------------------------------------------------------------------------
# 10. Single-node chaos expansion equals the mean-accident run
# ---------------------------------------------------------------------------

def test_single_node_pce_equals_mean_accident_size_run():
    sc = accident_scenario(dx=1e-2, dt=1e-2, N=500, T=1.0)
    pce = uq.run_pce(sc, "macro2", [(1, 0)], out_times=(1.0,))[1.0][0]
    det = macro.run_second_order(sc.rho0_field(), sc.h0_field(), sc.capacity,
                                 sc.params, sc.grid, y=2.0,
                                 out_times=(1.0,))[1.0]
    assert np.max(np.abs(pce.rho - det.rho)) <= 1e-12
    assert np.max(np.abs(pce.h - det.h)) <= 1e-12

    pce_m = uq.run_pce(sc, "micro", [(1, 0)], out_times=(1.0,))[1.0][0]
    state = micro.micro_init_from_density(sc.rho0, 500, sc.params.L, sc.grid)
    det_m = micro.run_micro(state, sc.capacity, sc.params, sc.grid, y=2.0,
                            out_times=(1.0,))[1.0]
    assert np.max(np.abs(pce_m.rho - det_m.rho)) <= 1e-12


# ---------------------------------------------------------------------------
# 11. Chaos expansion converges to the Monte Carlo expectation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def accident_uq_scenario():
    return accident_scenario(dx=4e-3, dt=4e-3, N=1000, T=10.0,
                             uq=UQConfig("uniform"))


def test_pce_expectations_converge_to_monte_carlo(accident_uq_scenario):
    sc = accident_uq_scenario
    for model in ("macro2", "micro"):
        ref = uq.monte_carlo(sc, model, 2000, seed=123)
        res = uq.pce_convergence_study(sc, model, ref)
        assert np.all(np.diff(res.l2_rho) < 0), model
        assert res.rate_rho >= 1.5, (model, res.rate_rho)


# ---------------------------------------------------------------------------
# 12. Uncertainty concentrates upstream of the accident
# ---------------------------------------------------------------------------

def test_monte_carlo_band_is_wide_only_near_the_accident(accident_uq_scenario):
    sc = accident_uq_scenario
    stats = uq.monte_carlo(sc, "macro2", 500, seed=7)
    x = sc.grid.centers
    width = stats.rho_q95 - stats.rho_q05
    inside_max = (x >= -1.5) & (x <= 0.5)
    assert inside_max[np.argmax(width)]
    excluded = ((x >= -3.5) & (x <= 1.0)) | (np.abs(x) <= 3.0)
    assert width[~excluded].max() < 0.01


# ---------------------------------------------------------------------------
# 13. Thread count never changes seeded results
# ---------------------------------------------------------------------------

def test_thread_count_does_not_change_seeded_outputs(tmp_path):
    import json
    doc = {
        "domain": {"xmin": -4.0, "xmax": 4.0, "dx": 0.02},
        "params": {"dt": 0.004, "T": 0.4, "N": 400, "L": 1 / 400},
        "capacity": {"variant": "accident"},
        "initial": {
            "rho": [{"x_lt": 0.0, "value": 0.15},
                    {"x_lt": 4.0, "value": 0.1}],
            "h": [{"x_lt": 0.0, "value": 0.8},
                  {"x_lt": 4.0, "value": 0.95}],
        },
        "uq": {"distribution": "uniform"},
    }
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps(doc))
    outputs = []
    for threads in ("1", "7"):
        out = tmp_path / f"threads{threads}"
        assert main(["uq", "mc", "--scenario", str(sc), "--model", "micro",
                     "--samples", "8", "--seed", "9", "--threads", threads,
                     "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
