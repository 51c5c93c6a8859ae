"""Accident-size sampling, quadrature, polynomial chaos and Monte Carlo."""

import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from trafficflow.core import (
    AccidentCapacity,
    CFLViolationError,
    ConfigError,
    ConstantCapacity,
    Grid1D,
    ModelParams,
    NumericalError,
    OrderingViolationError,
    headway_H,
    pressure,
)
from trafficflow import macro, micro, uq
from trafficflow.scenario import (
    PiecewiseProfile,
    Scenario,
    UQConfig,
    accident_scenario,
    paper_comparison_scenario,
)
from trafficflow.uq import (
    accident_size,
    gauss_legendre,
    legendre_basis,
    map_chunks,
    monte_carlo,
    pce_convergence_study,
    pce_macro_step,
    pce_micro_step,
    pool_size,
    sample_accident_sizes,
)


def deterministic_macro_modes(runs, rho0, h0, params):
    """The batch's modes of the deterministic data (rho0, h0)."""
    rho_hat = runs.deterministic(rho0)
    return uq.PceModesMacro(
        rho_hat, runs.deterministic(rho0 * (h0 + pressure(rho0, params))),
        runs.to_nodes(rho_hat))


def deterministic_micro_modes(runs, positions):
    """The batch's modes of the deterministic positions."""
    x_hat = runs.deterministic(positions)
    return uq.PceModesMicro(x_hat, runs.to_nodes(x_hat))


def with_uq(sc: Scenario, cfg=None) -> Scenario:
    return Scenario(grid=sc.grid, params=sc.params, capacity=sc.capacity,
                    rho0=sc.rho0, h0=sc.h0,
                    uq=cfg or UQConfig("uniform"), model=sc.model)


# ---------------------------------------------------------------------------
# Accident size distribution
# ---------------------------------------------------------------------------

def test_uniform_accident_sizes_have_mean_two():
    rng = np.random.default_rng(0)
    cfg = UQConfig("uniform")
    ys = np.array([accident_size(cfg, rng) for _ in range(100_000)])
    assert np.all((ys >= 1.0) & (ys <= 3.0))
    # exact mean 2, variance 1/3: 3-sigma band for the empirical mean
    assert abs(ys.mean() - 2.0) < 3 * np.sqrt(1 / 3 / len(ys))


def test_beta_accident_sizes_have_scaled_beta_mean():
    rng = np.random.default_rng(1)
    cfg = UQConfig("beta", alpha=5.0, beta=2.0)
    ys = np.array([accident_size(cfg, rng) for _ in range(100_000)])
    assert np.all((ys >= 1.0) & (ys <= 3.0))
    mean = 1 + 2 * (5 / 7)
    var = 4 * (5 * 2) / ((5 + 2) ** 2 * (5 + 2 + 1))
    assert abs(ys.mean() - mean) < 3 * np.sqrt(var / len(ys))


def test_flat_beta_matches_uniform_in_distribution():
    rng = np.random.default_rng(2)
    cfg = UQConfig("beta", alpha=1.0, beta=1.0)
    ys = np.sort([accident_size(cfg, rng) for _ in range(100_000)])
    # Kolmogorov-Smirnov distance against the exact uniform CDF on [1, 3]
    cdf = (ys - 1.0) / 2.0
    emp = np.arange(1, len(ys) + 1) / len(ys)
    ks = np.max(np.maximum(np.abs(emp - cdf),
                           np.abs(emp - 1 / len(ys) - cdf)))
    assert ks < 0.01


def test_sample_accident_sizes_deterministic_per_seed():
    cfg = UQConfig("uniform")
    a = sample_accident_sizes(cfg, 50, seed=9)
    b = sample_accident_sizes(cfg, 50, seed=9)
    c = sample_accident_sizes(cfg, 50, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# Quadrature and basis
# ---------------------------------------------------------------------------

def test_gauss_legendre_small_orders():
    q1 = gauss_legendre(1)
    assert q1.nodes == pytest.approx([0.0])
    assert q1.weights == pytest.approx([2.0])
    q2 = gauss_legendre(2)
    assert np.allclose(np.sort(q2.nodes),
                       [-0.5773502691896258, 0.5773502691896258])
    assert np.allclose(q2.weights, [1.0, 1.0])


def test_gauss_legendre_exactness_and_weight_sum():
    for n in range(1, 13):
        q = gauss_legendre(n)
        assert q.weights.sum() == pytest.approx(2.0, abs=1e-12)
        for deg in range(2 * n - 1 + 1):
            exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
            approx = np.sum(q.weights * q.nodes ** deg)
            assert approx == pytest.approx(exact, abs=1e-12)


def test_gauss_legendre_matches_numpy_reference():
    for n in (3, 5, 9, 12):
        q = gauss_legendre(n)
        nodes, weights = np.polynomial.legendre.leggauss(n)
        assert np.allclose(np.sort(q.nodes), np.sort(nodes), atol=1e-13)
        assert np.allclose(q.weights[np.argsort(q.nodes)],
                           weights[np.argsort(nodes)], atol=1e-13)


def test_mapped_nodes_cover_accident_interval():
    q = gauss_legendre(5)
    assert np.all((q.y_nodes > 1.0) & (q.y_nodes < 3.0))
    assert gauss_legendre(1).y_nodes == pytest.approx([2.0])


def test_legendre_basis_orthonormal():
    assert legendre_basis(0, 1.7)[0] == 1.0
    assert legendre_basis(1, 2.0)[1] == 0.0
    q = gauss_legendre(20)
    phi = legendre_basis(6, q.y_nodes)  # (K+1, n)
    gram = np.einsum("iq,jq,q->ij", phi, phi, 0.5 * q.weights)
    assert np.max(np.abs(gram - np.eye(7))) <= 1e-12


def test_basis_projection_round_trip():
    # a degree-3 polynomial in y projects and reconstructs exactly
    q = gauss_legendre(6)
    y = q.y_nodes
    f = 0.3 * y ** 3 - y + 0.5
    phi = legendre_basis(3, y)
    coeff = np.einsum("q,kq,q->k", f, phi, 0.5 * q.weights)
    assert np.allclose(coeff @ phi, f, atol=1e-12)


# ---------------------------------------------------------------------------
# Polynomial chaos degeneracies
# ---------------------------------------------------------------------------

def test_pce_macro_k0_deterministic_equals_conservative_step():
    sc = paper_comparison_scenario(dx=2e-2, dt=2e-2, T=1.0)
    params, grid = sc.params, sc.grid
    rho0, h0 = sc.rho0_field(), sc.h0_field()
    runs = uq.GalerkinRuns([gauss_legendre(3)], (0,))
    c_nodes = macro.capacity_on_grid(sc.capacity, grid, runs.y_nodes)
    modes = deterministic_macro_modes(runs, rho0, h0, params)
    rho, z = rho0, rho0 * (h0 + pressure(rho0, params))
    for _ in range(10):
        modes = pce_macro_step(modes, runs, c_nodes, params, grid)
        rho, z = macro.lf_step_conservative(rho, z, sc.capacity, params, grid)
    assert np.max(np.abs(modes.rho_hat[0] - rho)) <= 1e-12
    assert np.max(np.abs(modes.z_hat[0] - z)) <= 1e-12


def test_pce_macro_higher_modes_stay_zero_without_randomness():
    sc = paper_comparison_scenario(dx=2e-2, dt=2e-2, T=1.0)
    runs = uq.GalerkinRuns([gauss_legendre(5)], (2,))
    c_nodes = macro.capacity_on_grid(sc.capacity, sc.grid, runs.y_nodes)
    modes = deterministic_macro_modes(runs, sc.rho0_field(), sc.h0_field(),
                                      sc.params)
    for _ in range(20):
        modes = pce_macro_step(modes, runs, c_nodes, sc.params, sc.grid)
    assert np.max(np.abs(modes.rho_hat[1:])) <= 1e-12
    assert np.max(np.abs(modes.z_hat[1:])) <= 1e-12
    mass = modes.rho_hat[0].sum() * sc.grid.dx
    assert mass == pytest.approx(sc.rho0_field().sum() * sc.grid.dx,
                                 rel=1e-10)


def test_pce_micro_k0_deterministic_equals_advance_positions():
    sc = paper_comparison_scenario(dx=1e-2, dt=1e-2, N=500, T=1.0)
    x = micro.micro_init_from_density(sc.rho0, 500, sc.params.L, sc.grid)
    runs = uq.GalerkinRuns([gauss_legendre(3)], (0,))
    modes = deterministic_micro_modes(runs, x)
    for _ in range(10):
        modes = pce_micro_step(modes, runs, sc.capacity, sc.params, sc.grid)
        x = micro.advance_positions(x, sc.capacity, sc.params, sc.grid)
    assert np.max(np.abs(modes.x_hat[0] - x)) <= 1e-12


def test_run_pce_rejects_an_empty_run_list():
    sc = accident_scenario(dx=4e-2, dt=4e-2, N=200, T=0.4)
    for model in ("macro2", "micro"):
        with pytest.raises(ConfigError, match="at least one Galerkin run"):
            uq.run_pce(sc, model, [])


def test_pce_requires_enough_nodes():
    with pytest.raises(ConfigError):
        uq.GalerkinRuns([gauss_legendre(2)], (3,))


def test_pce_macro_zero_density_names_the_node_and_the_cell():
    # rho0 = 0 from x = 0 on: cell 100 (centre 0.02) is the first empty one,
    # and mode 0 alone carries rho0, so every node sees it
    base = accident_scenario(dx=4e-2, dt=4e-2, N=500, T=1.0)
    sc = replace(base, rho0=PiecewiseProfile((0.0, 4.0), (0.15, 0.0)))
    with pytest.raises(NumericalError,
                       match=r"^step 1 \(t = 0\.04\): vanishing density at "
                             r"node 0, cell 100$"):
        uq.run_pce(sc, "macro2", [(3, 2)])


def test_pce_single_node_equals_mean_accident_run():
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


def test_pce_macro_single_node_relaxes_like_mean_accident_run():
    # with a = 1 the Galerkin step applies the relaxation source of the
    # deterministic step; one node and K = 0 reproduce it bit for bit
    base = accident_scenario(dx=1e-2, dt=1e-2, N=500, T=1.0)
    sc = Scenario(grid=base.grid, params=replace(base.params, a=1.0),
                  capacity=base.capacity, rho0=base.rho0, h0=base.h0,
                  uq=base.uq)
    pce = uq.run_pce(sc, "macro2", [(1, 0)], out_times=(1.0,))[1.0][0]
    det = macro.run_second_order(sc.rho0_field(), sc.h0_field(), sc.capacity,
                                 sc.params, sc.grid, y=2.0,
                                 out_times=(1.0,))[1.0]
    assert np.array_equal(pce.rho, det.rho)
    assert np.array_equal(pce.h, det.h)


def test_runners_run_one_row_per_accident_size():
    sc = accident_scenario(dx=2e-2, dt=2e-2, N=200, T=1.0)
    ys = np.array([1.2, 2.0, 2.9])
    state = micro.micro_init_from_density(sc.rho0, 200, sc.params.L, sc.grid)
    runners = {
        "macro2": lambda y: macro.run_second_order(
            sc.rho0_field(), sc.h0_field(), sc.capacity, sc.params, sc.grid,
            y=y),
        "micro": lambda y: micro.run_micro(state, sc.capacity, sc.params,
                                           sc.grid, y=y),
    }
    for name, run in runners.items():
        batch = run(ys)
        for j, y in enumerate(ys):
            single = run(y)
            assert set(batch) == set(single) == {0.0, 0.5, 1.0}
            for t, f in batch.items():
                assert f.rho.shape == f.h.shape == (3, sc.grid.n_cells)
                assert np.array_equal(f.rho[j], single[t].rho), (name, t)
                assert np.array_equal(f.h[j], single[t].h), (name, t)


def test_expected_micro_density_example():
    # equispaced mode-0 positions with gap 2L give density 1/2
    grid = Grid1D(-4.0, 4.0, 0.5)
    L = 8.0 / 2000
    positions = np.linspace(-4.0, 4.0, 1000, endpoint=False)
    runs = uq.GalerkinRuns([gauss_legendre(1)], (0,))
    (field,) = uq.expectation_from_micro_modes(
        deterministic_micro_modes(runs, positions), runs, grid, L)
    assert np.allclose(field.rho, 0.5)
    assert np.allclose(field.h, headway_H(0.5))


# ---------------------------------------------------------------------------
# Monte Carlo statistics
# ---------------------------------------------------------------------------

def test_monte_carlo_degenerate_randomness():
    # capacity independent of Y: every sample is the same run
    sc = with_uq(paper_comparison_scenario(dx=2e-2, dt=2e-2, T=1.0))
    stats = monte_carlo(sc, "macro2", 5, seed=0)
    det = macro.run_second_order(sc.rho0_field(), sc.h0_field(), sc.capacity,
                                 sc.params, sc.grid, out_times=(1.0,))[1.0]
    for arr in (stats.rho_median, stats.rho_q05, stats.rho_q95):
        assert np.array_equal(arr, det.rho)
    assert np.allclose(stats.rho_mean, det.rho, atol=1e-12)


def test_monte_carlo_single_sample_collapses_statistics():
    sc = accident_scenario(dx=2e-2, dt=2e-2, N=200, T=1.0)
    stats = monte_carlo(sc, "macro2", 1, seed=3)
    for arr in (stats.rho_median, stats.rho_q05, stats.rho_q95):
        assert np.array_equal(arr, stats.rho_mean)


def test_monte_carlo_quantile_ordering_and_determinism():
    sc = accident_scenario(dx=2e-2, dt=2e-2, N=200, T=1.0)
    a = monte_carlo(sc, "macro2", 16, seed=5)
    b = monte_carlo(sc, "macro2", 16, seed=5)
    assert np.array_equal(a.rho_mean, b.rho_mean)
    assert np.array_equal(a.h_q95, b.h_q95)
    assert np.all(a.rho_q05 <= a.rho_median)
    assert np.all(a.rho_median <= a.rho_q95)
    assert np.all(a.rho_mean >= a.rho_q05.min())


def test_monte_carlo_micro_matches_single_run():
    sc = accident_scenario(dx=2e-2, dt=2e-2, N=200, T=1.0)
    stats = monte_carlo(sc, "micro", 1, seed=4)
    y = sample_accident_sizes(UQConfig("uniform"), 1, seed=4)[0]
    state = micro.micro_init_from_density(sc.rho0, 200, sc.params.L, sc.grid)
    det = micro.run_micro(state, sc.capacity, sc.params, sc.grid, y=y,
                          out_times=(1.0,))[1.0]
    assert np.allclose(stats.rho_mean, det.rho, atol=1e-12)


def per_sample_summary(sc, n_samples, seed):
    """Independent one-sample macro2 runs, stacked and summarized."""
    ys = sample_accident_sizes(UQConfig("uniform"), n_samples, seed)
    T = sc.params.T
    finals = [macro.run_second_order(sc.rho0_field(), sc.h0_field(),
                                     sc.capacity, sc.params, sc.grid, y=y,
                                     out_times=(T,))[T] for y in ys]
    return uq._summarize(sc.grid, np.stack([f.rho for f in finals]),
                         np.stack([f.h for f in finals]))


STAT_FIELDS = ("rho_mean", "rho_median", "rho_q05", "rho_q95",
               "h_mean", "h_median", "h_q05", "h_q95")


@pytest.mark.parametrize("a", [0.0, 1.0])
def test_deduplicated_macro2_monte_carlo_matches_per_sample_runs(a):
    # 200 samples cover fewer distinct accident footprints than samples, but
    # more than one 64-row chunk of them (90 here)
    base = accident_scenario(dx=2e-2, dt=2e-2, N=200, T=1.0)
    sc = Scenario(grid=base.grid, params=replace(base.params, a=a),
                  capacity=base.capacity, rho0=base.rho0, h0=base.h0,
                  uq=base.uq)
    stats = monte_carlo(sc, "macro2", 200, seed=11)
    assert 64 < stats.rows_solved < 200
    want = per_sample_summary(sc, 200, 11)
    for name in STAT_FIELDS:
        assert np.array_equal(getattr(stats, name), getattr(want, name)), name


def test_constant_capacity_steps_one_row_for_every_sample():
    # every sample has the same capacity row, so one row is stepped
    base = accident_scenario(dx=2e-2, dt=2e-2, N=200, T=1.0)
    sc = Scenario(grid=base.grid, params=base.params,
                  capacity=ConstantCapacity(0.8), rho0=base.rho0,
                  h0=base.h0, uq=base.uq)
    stats = monte_carlo(sc, "macro2", 50, seed=3)
    assert stats.rows_solved == 1
    want = per_sample_summary(sc, 50, 3)
    for name in STAT_FIELDS:
        assert np.array_equal(getattr(stats, name), getattr(want, name)), name


def test_distinct_rows_are_told_apart_by_their_bytes():
    rows = np.array([[1.0, 2.0], [0.0, 1.0], [1.0, 2.0], [-0.0, 1.0],
                     [0.0, 1.0]])
    first, inverse = uq._distinct_rows(rows)
    # -0.0 and 0.0 differ in their bytes, so they are stepped apart
    assert first.tolist() == [0, 1, 3]
    assert inverse.tolist() == [0, 1, 0, 2, 1]
    assert rows[first][inverse].tobytes() == rows.tobytes()


def test_monte_carlo_rejects_unsupported_model():
    sc = accident_scenario(dx=2e-2, dt=2e-2, N=200, T=1.0)
    with pytest.raises(ConfigError):
        monte_carlo(sc, "macro1", 2, seed=0)


def test_monte_carlo_rejects_negative_threads():
    sc = accident_scenario(dx=2e-2, dt=2e-2, N=200, T=1.0)
    with pytest.raises(ConfigError, match="threads"):
        monte_carlo(sc, "macro2", 2, seed=0, threads=-1)


# ---------------------------------------------------------------------------
# The Monte Carlo chunk pool
# ---------------------------------------------------------------------------

def test_pool_size_is_clamped_to_chunks_and_cpus():
    # the clamp alone: no worker is forked here
    cpus = pool_size(0, 10**9)
    assert 1 <= cpus <= (os.cpu_count() or 1)
    for n_chunks in (1, 2, 3, 64, 10**6):
        assert pool_size(10**9, n_chunks) <= min(n_chunks, cpus)
        assert pool_size(0, n_chunks) == min(n_chunks, cpus)
        assert pool_size(1, n_chunks) == 1
    for threads in (0, 1, 2, 7, 10**9):
        assert pool_size(threads, 1) == 1


def test_pool_of_one_starts_no_thread(monkeypatch):
    def no_fork(*args, **kwargs):
        raise AssertionError("a pool of size 1 forked a worker")

    monkeypatch.setattr(uq.os, "fork", no_fork)
    assert map_chunks(lambda i: i * i, 5, threads=1) == [0, 1, 4, 9, 16]
    assert map_chunks(lambda i: -i, 1, threads=0) == [0]


def test_map_chunks_without_os_fork_runs_the_plain_loop(monkeypatch):
    monkeypatch.setattr(uq, "pool_size", lambda threads, n_chunks: 2)
    monkeypatch.delattr(os, "fork")
    ran = []

    def fn(i):
        ran.append((i, os.getpid()))
        return -i

    assert map_chunks(fn, 5, threads=2) == [0, -1, -2, -3, -4]
    assert ran == [(i, os.getpid()) for i in range(5)]


def test_monte_carlo_rows_alive_do_not_grow_with_the_pool(monkeypatch):
    # pool_size reports k CPUs (k - 1 workers are forked, at most 7); the
    # chunks shrink as the pool grows, so the rows stepped at once, and
    # with them the peak of the caller's numpy allocations, stay about
    # fixed
    sc = accident_scenario(dx=0.5, dt=8e-3, N=1000, T=4e-2)
    peaks = {}
    for k in (2, 8):
        monkeypatch.setattr(uq, "pool_size",
                            lambda threads, n_chunks, k=k: min(k, n_chunks))
        tracemalloc.start()
        try:
            monte_carlo(sc, "micro", 512, seed=1)
            peaks[k] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8] <= 1.25 * peaks[2], peaks


def test_map_chunks_keeps_chunk_order():
    def slow_first(i):
        if i == 0:
            time.sleep(0.05)  # later chunks finish first on a pool
        return i

    for threads in (1, 2, 0):
        assert map_chunks(slow_first, 9, threads) == list(range(9))


def chunk_log(path):
    """(record, ran): record(i) appends chunk index i to the file at path,
    opened with O_APPEND, so that the calling process and every forked
    worker add whole lines to one log; ran() reads it back in the order
    the lines were written."""
    def record(i):
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, b"%d\n" % i)
        finally:
            os.close(fd)

    def ran():
        return ([int(v) for v in path.read_text().split()]
                if path.exists() else [])
    return record, ran


def test_map_chunks_hands_out_each_chunk_once_under_contention(monkeypatch,
                                                                tmp_path):
    # more workers than CPUs, and a caller on a thread with a short switch
    # interval: a lost update of the chunk counter would run a chunk twice
    # or skip one
    monkeypatch.setattr(uq, "pool_size", lambda threads, n_chunks: 8)
    record, ran_log = chunk_log(tmp_path / "ran")
    got = []

    def fn(i):
        record(i)
        return -i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        t = threading.Thread(
            target=lambda: got.append(map_chunks(fn, 2000)))
        t.start()
        t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not t.is_alive()
    ran = ran_log()
    assert got == [[-i for i in range(2000)]]
    assert sorted(ran) == list(range(2000))


@pytest.mark.parametrize("threads", [1, 2])
def test_map_chunks_raises_the_lowest_failed_chunk(threads, tmp_path):
    # on two workers chunk 3 fails first, while chunk 1 is still running
    record, ran_log = chunk_log(tmp_path / "ran")

    def fn(i):
        record(i)
        if i == 1:
            time.sleep(0.05)
        if i in (1, 3):
            raise NumericalError(f"chunk {i} failed")
        return i

    with pytest.raises(NumericalError, match="chunk 1 failed"):
        map_chunks(fn, 8, threads)
    ran = ran_log()
    assert set(ran) <= {0, 1, 2, 3}
    if threads == 1:
        assert ran == [0, 1]


@pytest.mark.parametrize("threads", [1, 2])
def test_map_chunks_hands_out_no_chunk_after_a_failure(threads, tmp_path):
    # chunk 1 fails while chunk 0 still runs on the other worker
    record, ran_log = chunk_log(tmp_path / "ran")

    def fn(i):
        record(i)
        if i == 0:
            time.sleep(0.05)
        if i == 1:
            raise NumericalError("chunk 1 failed")
        return i

    with pytest.raises(NumericalError, match="chunk 1 failed"):
        map_chunks(fn, 8, threads)
    ran = ran_log()
    assert sorted(ran) == [0, 1]


def test_map_chunks_leaves_no_child_process(monkeypatch):
    # every forked worker has been waited for, after a success and after a
    # failure
    monkeypatch.setattr(uq, "pool_size",
                        lambda threads, n_chunks: min(2, n_chunks))

    def fn(i):
        if i == 5:
            raise NumericalError("chunk 5 failed")
        return i

    assert map_chunks(fn, 5) == list(range(5))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    with pytest.raises(NumericalError, match="chunk 5 failed"):
        map_chunks(fn, 8)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# a worker that dies in a chunk, or whose result does not pickle, sends no
# report; chunk 0 sleeps, so that the worker takes a chunk meanwhile
UNREPORTED_WORKER = """
import os, sys, time
from trafficflow import uq
uq.pool_size = lambda threads, n_chunks: 2
caller = os.getpid()

def fn(i):
    if i == 0:
        time.sleep(0.5)
    if os.getpid() == caller:
        return i
    if sys.argv[1] == "exit":
        os._exit(7)
    return lambda: i

try:
    uq.map_chunks(fn, 8)
except ChildProcessError as exc:
    print(exc)
"""


@pytest.mark.parametrize("mode, status", [("exit", 7), ("unpicklable", 1)])
def test_a_worker_without_a_report_raises_child_process_error(mode, status):
    # run as its own process with a timeout, so that a pool that waits for
    # the lost report fails the test instead of hanging it; a worker left
    # running would hold the output pipe open until the timeout too
    src = os.path.dirname(os.path.dirname(uq.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", UNREPORTED_WORKER, mode],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"Monte Carlo worker exited with status {status}\n"


# the caller is killed in its first chunk, while the worker runs chunks
# whose report would not fit in a pipe's buffer
ORPHANED_WORKER = """
import os, signal, sys, time
from trafficflow import uq
uq.pool_size = lambda threads, n_chunks: 2
caller = os.getpid()

def fn(i):
    if os.getpid() == caller:
        time.sleep(0.2)
        os.kill(caller, signal.SIGKILL)
    with open(sys.argv[1], "a") as log:
        log.write(f"{os.getpid()}\\n")
    time.sleep(0.05)
    return bytes(100_000)

uq.map_chunks(fn, 400)
"""


def test_a_worker_whose_caller_is_killed_stops(tmp_path):
    # the worker checks for its caller before each chunk, so it runs a few
    # of the 400 chunks, and its report fails instead of blocking; until it
    # exits it holds the output pipes, which run() reads to the end
    log = tmp_path / "log"
    src = os.path.dirname(os.path.dirname(uq.__file__))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", ORPHANED_WORKER, str(log)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            timeout=60)
    except subprocess.TimeoutExpired:
        for pid in set(log.read_text().split()):  # the worker left running
            os.kill(int(pid), signal.SIGKILL)
        raise
    assert proc.returncode == -signal.SIGKILL
    assert 1 <= len(log.read_text().split()) < 20


def test_a_worker_exception_keeps_its_type_and_attributes(monkeypatch):
    # the worker's chunks fail the CFL check, the caller's sleep meanwhile;
    # the CFLViolationError comes back through a pickle, which rebuilds it
    # from its own arguments
    monkeypatch.setattr(uq, "pool_size", lambda threads, n_chunks: 2)
    caller = os.getpid()

    def fn(i):
        if os.getpid() == caller:
            time.sleep(0.2)
            return i
        macro.cfl_check(ModelParams(dt=2e-3), ConstantCapacity(1.0),
                        Grid1D(-4.0, 4.0, 1e-3))

    with pytest.raises(CFLViolationError, match="CFL condition") as err:
        map_chunks(fn, 8)
    assert err.value.ratio == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Convergence study plumbing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 10))
def test_blas_projections_match_einsum_forms(n):
    # the Galerkin steps reconstruct with phi.T @ and project with proj @;
    # these are the einsum forms they replaced, summed in another order
    quad = gauss_legendre(n)
    runs = uq.GalerkinRuns([quad], (n - 1,))
    phi, proj, half_w = runs.phis[0], runs.projs[0], 0.5 * quad.weights
    rng = np.random.default_rng(n)
    modes = rng.uniform(-1.0, 1.0, (n, 500))
    nodes = rng.uniform(-1.0, 1.0, (n, 500))
    for got, want in [
            (phi.T @ modes, np.einsum("kc,kq->qc", modes, phi)),
            (proj @ nodes, np.einsum("qc,kq,q->kc", nodes, phi, half_w)),
            (half_w @ nodes, np.einsum("qc,q->c", nodes, half_w))]:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13


def test_convergence_study_deterministic_capacity_is_flat_zero():
    # capacity independent of Y: micro PCE and micro MC are the same explicit
    # Euler dynamics, so every node count reproduces the reference exactly
    sc = with_uq(paper_comparison_scenario(dx=2e-2, dt=2e-2, N=200, T=1.0))
    ref = monte_carlo(sc, "micro", 2, seed=0)
    res = pce_convergence_study(sc, "micro", ref, n_list=(1, 2, 3))
    assert np.all(res.l2_rho <= 1e-12)


@pytest.mark.parametrize("model, a", [("macro2", 0.0), ("macro2", 1.0),
                                      ("micro", 0.0)])
def test_convergence_study_equals_separate_single_runs(model, a):
    # the study steps its five runs as one stacked batch; every run's
    # expectation, and so every error, is the one its own run gives
    base = accident_scenario(dx=4e-2, dt=2e-2, N=200, T=0.4)
    sc = replace(base, params=replace(base.params, a=a))
    ref = monte_carlo(sc, model, 8, seed=1)
    res = pce_convergence_study(sc, model, ref)
    T = 0.4
    singles = [uq.run_pce(sc, model, [(n, n - 1)], out_times=(T,))[T][0]
               for n in (1, 3, 5, 7, 9)]
    batch = uq.run_pce(sc, model, [(n, n - 1) for n in (1, 3, 5, 7, 9)],
                       out_times=(T,))[T]
    for got, want in zip(batch, singles, strict=True):
        assert got.rho.tobytes() == want.rho.tobytes()
        assert got.h.tobytes() == want.h.tobytes()
    for name, field in (("l2_rho", "rho"), ("l2_h", "h")):
        want = [uq._l2(getattr(f, field), getattr(ref, f"{field}_mean"),
                       sc.grid) for f in singles]
        assert getattr(res, name).tolist() == want


def test_galerkin_errors_name_the_run_and_its_node():
    # nodes are numbered within their run; a batch of several runs names
    # the run by its node count
    runs = uq.GalerkinRuns([gauss_legendre(n) for n in (1, 3, 5)], (0, 2, 4))
    assert [runs.node_names[r] for r in (0, 1, 3, 4, 8)] == [
        "run n = 1, node 0", "run n = 3, node 0", "run n = 3, node 2",
        "run n = 5, node 0", "run n = 5, node 4"]
    one = uq.GalerkinRuns([gauss_legendre(3)], (1,))
    assert one.node_names == ["node 0", "node 1", "node 2"]
    with pytest.raises(ConfigError, match="order 3 needs at least 4"):
        uq.GalerkinRuns([gauss_legendre(3)], (3,))


def test_micro_galerkin_batch_names_the_run_node_and_vehicle():
    # the benchmark's accident scenario with drop 0.5: the Euler step loses
    # the vehicle order at the n = 3 run's node 1 first; the batch names
    # the run, its one-run form the node alone
    base = accident_scenario(dx=1.6e-2, dt=8e-3, N=1000, T=0.8)
    sc = replace(base, capacity=AccidentCapacity(0.5))
    where = r"^step 11 \(t = 0\.088\): vehicle ordering lost at "
    with pytest.raises(OrderingViolationError,
                       match=where + r"run n = 3, node 1, vehicle 289$"):
        uq.run_pce(sc, "micro", [(3, 2), (5, 4), (9, 8)])
    with pytest.raises(OrderingViolationError,
                       match=where + r"node 1, vehicle 289$"):
        uq.run_pce(sc, "micro", [(3, 2)])
