"""Uncertainty quantification of random accident sizes.

Covers draws of the accident size Y = 2Z + 1 under the law of a
scenario.UQConfig, Monte Carlo statistics (mean / median / 90% band) over
model runs, and the intrusive stochastic-Galerkin propagation of
Legendre-chaos modes for the conservative second-order macro model and the
microscopic ODE model.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .core import (
    CapacitySpec,
    ConfigError,
    Grid1D,
    MacroField,
    ModelParams,
    _fork,
    _join,
    headway_H,
    integrate,
    micro_speed_Vtilde,
    pressure,
)
from . import macro, micro
from .micro import micro_init_from_density, sample_density
from .particle import RngStream
from .scenario import Scenario, UQConfig

# Y in [Y_LOW, Y_HIGH] maps onto the Legendre basis's [-1, 1] as Y - Y_MID
Y_LOW, Y_HIGH = 1.0, 3.0
Y_MID = (Y_LOW + Y_HIGH) / 2


# ---------------------------------------------------------------------------
# Gauss-Legendre quadrature and the orthonormal Legendre basis
# ---------------------------------------------------------------------------

def _legendre_and_derivative(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) via the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    if n == 0:
        return p_prev, np.zeros_like(x)
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


@dataclass(frozen=True)
class Quadrature:
    """Gauss-Legendre rule on [-1, 1]; mapped nodes live on [1, 3]."""

    nodes: np.ndarray
    weights: np.ndarray
    n: int

    @property
    def y_nodes(self) -> np.ndarray:
        return self.nodes + Y_MID


def gauss_legendre(n: int) -> Quadrature:
    """Nodes as Newton-refined roots of P_n, weights 2 / ((1-z^2) P_n'(z)^2)."""
    if n < 1:
        raise ConfigError("quadrature order must be at least 1")
    # Chebyshev-type initial guesses, then Newton iteration
    k = np.arange(n)
    x = np.cos(np.pi * (k + 0.75) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre_and_derivative(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = _legendre_and_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    return Quadrature(nodes=x[order], weights=w[order], n=n)


def legendre_basis(K: int, y: np.ndarray) -> np.ndarray:
    """Matrix phi[k, q] = phi_k(y_q) for k = 0..K, the basis polynomials
    orthonormal w.r.t. (1/2) dy on [1, 3]."""
    x = np.asarray(y, dtype=float) - Y_MID
    out = np.empty((K + 1,) + x.shape)
    p_prev = np.ones_like(x)
    out[0] = p_prev
    if K >= 1:
        p = x.copy()
        out[1] = np.sqrt(3.0) * p
        for k in range(2, K + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            out[k] = np.sqrt(2 * k + 1.0) * p
    return out


# ---------------------------------------------------------------------------
# Polynomial chaos modes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PceModesMacro:
    """Galerkin coefficients of the conservative pair (rho, z) per cell of
    the runs of a GalerkinRuns batch, stacked one row per mode, and the
    densities at the quadrature nodes of every run (rho_nodes): the step
    that made the modes computes them for the check and the next step."""

    rho_hat: np.ndarray  # (modes of all runs, n_cells)
    z_hat: np.ndarray
    rho_nodes: np.ndarray  # (nodes of all runs, n_cells)


@dataclass(frozen=True)
class PceModesMicro:
    """Galerkin coefficients of the vehicle positions of a batch, one row
    per mode, and the positions at its quadrature nodes (x_nodes), as
    PceModesMacro."""

    x_hat: np.ndarray  # (modes of all runs, N)
    x_nodes: np.ndarray  # (nodes of all runs, N)


class GalerkinRuns:
    """Galerkin runs stepped as one batch: run r expands to the order
    orders[r] on the Gauss rule quads[r] (a ConfigError unless the rule has
    more nodes than the order, raised before any basis is built), with the
    basis phis[r] and the projector projs[r][k, q] = phi_k(y_q) w_q / 2, so
    that proj @ f projects node values f[q, ...] onto the modes and
    phi.T @ modes reconstructs them. Its modes are the rows modes[r] of the
    stacked modes, and its node values the rows nodes[r] of the stacked
    node values, whose mapped nodes are y_nodes and names node_names."""

    def __init__(self, quads, orders):
        if not quads:
            raise ConfigError("need at least one Galerkin run")
        for quad, K in zip(quads, orders):
            if K + 1 > quad.n:
                raise ConfigError(f"order {K} needs at least {K + 1} "
                                  f"quadrature nodes, got {quad.n}")
        self.quads = tuple(quads)
        self.phis = [legendre_basis(K, q.y_nodes)
                     for q, K in zip(quads, orders)]
        self.projs = [phi * (0.5 * q.weights)
                      for phi, q in zip(self.phis, quads)]
        self.modes, self.nodes = (
            [slice(end - n, end) for n, end in zip(sizes, np.cumsum(sizes))]
            for sizes in ([K + 1 for K in orders], [q.n for q in quads]))
        self.y_nodes = np.concatenate([q.y_nodes for q in quads])
        self.node_names = [f"node {i}" if len(quads) == 1 else
                           f"run n = {q.n}, node {i}"
                           for q in quads for i in range(q.n)]

    def deterministic(self, values: np.ndarray) -> np.ndarray:
        """Stacked modes of deterministic data: mode 0 of every run holds
        values, the higher modes are 0."""
        out = np.zeros((self.modes[-1].stop, len(values)))
        out[[m.start for m in self.modes]] = values
        return out

    def to_nodes(self, modes: np.ndarray) -> np.ndarray:
        """Node values of stacked modes: phi.T @ modes per run."""
        out = np.empty((len(self.y_nodes), modes.shape[1]))
        for phi, m, q in zip(self.phis, self.modes, self.nodes):
            np.matmul(phi.T, modes[m], out=out[q])
        return out

    def to_modes(self, values: np.ndarray) -> np.ndarray:
        """Projection of stacked node values: proj @ values per run."""
        out = np.empty((self.modes[-1].stop, values.shape[1]))
        for proj, m, q in zip(self.projs, self.modes, self.nodes):
            np.matmul(proj, values[q], out=out[m])
        return out


def pce_macro_step(modes: PceModesMacro, runs: GalerkinRuns,
                   c_nodes: np.ndarray, params: ModelParams,
                   grid: Grid1D) -> PceModesMacro:
    """One Lax-Friedrichs step of the Galerkin system of the batch runs,
    with the capacity c_nodes at its mapped quadrature nodes y_q.

    Fluxes are reconstructed at the nodes and projected back onto the
    basis; so is the relaxation source of the deterministic step, from the
    node reconstructions of the post-advection modes. Reconstruction and
    projection are one matrix product per run (phi.T @, proj @), which may
    round differently from a sum in another order, by about 1e-16
    relative; the elementwise rest runs once on the stack. The result
    carries its node densities.
    """
    rho_y = modes.rho_nodes
    z_y = runs.to_nodes(modes.z_hat)
    cv = macro.advection_speed(rho_y, z_y, c_nodes, params)

    lam = params.dt / (2 * grid.dx)
    rho_new = macro._lf(modes.rho_hat, runs.to_modes(cv * rho_y), lam)
    z_new = macro._lf(modes.z_hat, runs.to_modes(cv * z_y), lam)
    rho_y = runs.to_nodes(rho_new)
    if params.a != 0.0:
        z_new += runs.to_modes(macro.relaxation_source(
            rho_y, runs.to_nodes(z_new), params))
    return PceModesMacro(rho_hat=rho_new, z_hat=z_new, rho_nodes=rho_y)


def pce_micro_step(modes: PceModesMicro, runs: GalerkinRuns,
                   capacity: CapacitySpec, params: ModelParams, grid: Grid1D,
                   speed_law=micro_speed_Vtilde) -> PceModesMicro:
    """Explicit Euler on the position modes of the batch runs: the Euler
    rates of the deterministic step, with the follow-the-leader law
    speed_law, at the node positions, projected back onto the modes. The
    result carries its node positions."""
    c, speed = micro._capacity_and_speed(modes.x_nodes, capacity, params,
                                         grid, runs.y_nodes[:, None],
                                         speed_law)
    x_hat = modes.x_hat + params.dt * runs.to_modes(c * speed)
    return PceModesMicro(x_hat=x_hat, x_nodes=runs.to_nodes(x_hat))


def expectation_from_macro_modes(modes: PceModesMacro, runs: GalerkinRuns,
                                 params: ModelParams,
                                 grid: Grid1D) -> list:
    """Expected density and headway fields of each run of the batch.

    The density expectation is mode 0 itself (the projection is linear in
    rho). The headway is a nonlinear function z/rho - p(rho) of the state,
    so its expectation is taken by quadrature over the node values; at
    K = 0 it is the point value of mode 0, from which the quadrature
    average differs only in the last bits.
    """
    z_y = runs.to_nodes(modes.z_hat)
    fields = []
    for quad, m, q in zip(runs.quads, runs.modes, runs.nodes):
        rho = modes.rho_hat[m.start]
        if m.stop - m.start == 1:
            h = modes.z_hat[m.start] / rho - pressure(rho, params)
        else:
            rho_y = modes.rho_nodes[q]
            h_y = (z_y[q] / np.maximum(rho_y, 1e-300)
                   - pressure(rho_y, params))
            h = np.maximum((0.5 * quad.weights) @ h_y, 0.0)
        fields.append(MacroField(rho=rho, h=h, grid=grid))
    return fields


def expectation_from_micro_modes(modes: PceModesMicro, runs: GalerkinRuns,
                                 grid: Grid1D, L: float) -> list:
    """Expected piecewise-constant density of each run's position
    expansion.

    The density L/gap is nonlinear in the positions, so the expectation is
    the quadrature average of the densities at the node positions; at
    K = 0 it is the density of the mode-0 positions, from which the
    average differs only in the last bits. The mode-0 density at K > 0
    would carry an order-independent bias.
    """
    fields = []
    for quad, m, q in zip(runs.quads, runs.modes, runs.nodes):
        if m.stop - m.start == 1:
            rho = sample_density(modes.x_hat[m.start], L, grid)
            h = headway_H(rho)
        else:
            w = 0.5 * quad.weights[:, None]
            rho_y = sample_density(modes.x_nodes[q], L, grid)
            rho = (w * rho_y).sum(axis=0)
            h = (w * headway_H(rho_y)).sum(axis=0)
        fields.append(MacroField(rho=rho, h=h, grid=grid))
    return fields


def run_pce(scenario: Scenario, model: str, runs, out_times=None,
            speed_law=micro_speed_Vtilde):
    """Galerkin propagation of the runs [(n_nodes, K), ...] of the model
    (macro2 or micro, with micro's follow-the-leader law speed_law) in one
    core.integrate loop on stacked arrays (GalerkinRuns), from
    deterministic initial data: {time: [the expectation MacroField of each
    run]}. The check sees the node values of every run at once; its error
    names the node (and its run's n)."""
    params, grid, capacity = scenario.params, scenario.grid, scenario.capacity
    if model == "macro2":
        macro.cfl_check(params, capacity, grid)
    elif model == "micro":
        micro.euler_dt_check(params, capacity, grid)
    else:
        raise ConfigError("the Galerkin runs support the micro and macro2 "
                          "models")
    batch = GalerkinRuns([gauss_legendre(n) for n, _ in runs],
                         [K for _, K in runs])

    if model == "macro2":
        c_nodes = macro.capacity_on_grid(capacity, grid, batch.y_nodes)
        rho0 = scenario.rho0_field()
        rho_hat = batch.deterministic(rho0)
        z_hat = batch.deterministic(
            rho0 * (scenario.h0_field() + pressure(rho0, params)))
        return integrate(
            PceModesMacro(rho_hat, z_hat, batch.to_nodes(rho_hat)),
            lambda m, j: pce_macro_step(m, batch, c_nodes, params, grid),
            lambda m: expectation_from_macro_modes(m, batch, params, grid),
            lambda m: macro.check_second_order(m.rho_nodes,
                                               row=batch.node_names),
            params, out_times)

    x_hat = batch.deterministic(micro_init_from_density(
        scenario.rho0, params.N, params.L, grid))
    return integrate(
        PceModesMicro(x_hat, batch.to_nodes(x_hat)),
        lambda m, j: pce_micro_step(m, batch, capacity, params, grid,
                                    speed_law),
        lambda m: expectation_from_micro_modes(m, batch, grid, params.L),
        lambda m: micro.check_ordering(
            micro.periodic_gaps(m.x_nodes, grid.length),
            row=batch.node_names),
        params, out_times)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StatSummary:
    """Per-cell Monte Carlo statistics of density and headway at time T."""

    grid: Grid1D
    n_samples: int
    rho_mean: np.ndarray
    rho_median: np.ndarray
    rho_q05: np.ndarray
    rho_q95: np.ndarray
    h_mean: np.ndarray
    h_median: np.ndarray
    h_q05: np.ndarray
    h_q95: np.ndarray
    rows_solved: int  # model rows actually stepped to produce the samples


def _summarize(grid: Grid1D, rho: np.ndarray, h: np.ndarray,
               rows_solved: int | None = None,
               expand=slice(None)) -> StatSummary:
    """Stats over the sample axis (axis 0) of rho[expand] and h[expand].
    Median is the lower-interpolated empirical quantile; the 5%/95%
    quantiles interpolate linearly. rows_solved defaults to one row per
    sample. Each field is expanded only while its own stats are taken, so
    one field's samples are alive at a time."""
    def stats(x):
        x = x[expand]
        q05, q95 = np.quantile(x, [0.05, 0.95], axis=0)
        return (x.shape[0], x.mean(axis=0),
                np.quantile(x, 0.5, axis=0, method="lower"), q05, q95)

    n, rho_mean, rho_median, rho_q05, rho_q95 = stats(rho)
    _, h_mean, h_median, h_q05, h_q95 = stats(h)
    return StatSummary(
        grid=grid, n_samples=n,
        rows_solved=n if rows_solved is None else rows_solved,
        rho_mean=rho_mean, rho_median=rho_median, rho_q05=rho_q05,
        rho_q95=rho_q95, h_mean=h_mean, h_median=h_median, h_q05=h_q05,
        h_q95=h_q95)


def accident_size(cfg: UQConfig, rng: np.random.Generator) -> float:
    """One draw of Y = 2Z + 1 under cfg's law: Z uniform if cfg.is_uniform,
    else the Beta(alpha, beta) variate g1 / (g1 + g2) of two gamma draws."""
    if cfg.is_uniform:
        z = rng.random()
    else:
        g1 = rng.gamma(cfg.alpha)
        g2 = rng.gamma(cfg.beta)
        z = g1 / (g1 + g2)
    return Y_LOW + (Y_HIGH - Y_LOW) * z


def sample_accident_sizes(cfg: UQConfig, n_samples: int,
                          seed: int) -> np.ndarray:
    """One independent substream per sample, so results do not depend on how
    the samples are scheduled."""
    return np.array([accident_size(cfg, RngStream(seed, j).generator())
                     for j in range(n_samples)])


def pool_size(threads: int, n_chunks: int) -> int:
    """Workers that map_chunks runs on, the calling process included:
    min(threads, n_chunks, CPUs this process may run on), where threads = 0
    means all of those CPUs."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(threads or cpus, n_chunks, cpus))


def map_chunks(fn, n_chunks: int, threads: int = 0) -> list:
    """[fn(0), ..., fn(n_chunks - 1)], computed on pool_size(threads,
    n_chunks) workers: the calling process and size - 1 forked ones.

    The workers take chunk indices in order from a pipe that holds one
    8-byte record, the next index, so the pipe is the counter and its lock
    in one. Once a chunk raises, its worker puts back n_chunks, the stop
    mark, and no further chunk is handed out. A forked worker stops early
    if the caller is gone, and returns its results and its failure, which
    must pickle, when it stops. After every worker has been joined
    (core._join), the exception of the lowest-numbered failed chunk, the
    one a serial loop would raise, is raised; a worker that ended without
    its report raises ChildProcessError. A pool of size 1, or a platform
    without os.fork, runs the plain loop.
    """
    size = pool_size(threads, n_chunks)
    if size == 1 or not hasattr(os, "fork"):
        return [fn(i) for i in range(n_chunks)]
    counter_r, counter_w = os.pipe()
    os.write(counter_w, (0).to_bytes(8, "little"))
    caller = os.getpid()

    def take(stop=False) -> int:
        i = int.from_bytes(os.read(counter_r, 8), "little")
        try:
            return i
        finally:  # an interrupt here must not lose the record
            os.write(counter_w, (n_chunks if stop else min(i + 1, n_chunks))
                     .to_bytes(8, "little"))

    def work(done, failed):
        # the caller, or a worker whose caller is still running; a worker
        # reports once, at the end: a per-chunk write could fill the pipe
        # and stall the worker while the caller computes
        while caller in (os.getpid(), os.getppid()):
            i = take()
            if i == n_chunks:
                break
            try:
                done.append((i, fn(i)))
            except BaseException as exc:  # raised by the caller, at the end
                failed[i] = exc
                take(stop=True)
                break
        return done, failed

    done, failed, workers = [], {}, []
    try:
        for _ in range(size - 1):
            workers.append(_fork(lambda: work([], {})))
        work(done, failed)
    finally:
        for worker in workers:  # every worker is joined before a raise
            try:
                more_done, more_failed = _join(worker, "Monte Carlo worker")
                done += more_done
                failed.update(more_failed)
            except Exception as exc:  # ranks before every chunk's failure
                failed.setdefault(-1, exc)
        os.close(counter_r)
        os.close(counter_w)
    if failed:
        raise failed[min(failed)]
    results = [None] * n_chunks
    for i, result in done:
        results[i] = result
    return results


def _distinct_rows(rows: np.ndarray):
    """(first, inverse): the index of the first of each distinct row, in
    increasing order, and for each row the position of its copy in first.
    Rows are told apart by their bytes, which needs no sort; the bytes of
    all distinct rows are freed on return."""
    seen = {}
    firsts = [seen.setdefault(row.tobytes(), j) for j, row in enumerate(rows)]
    return np.unique(firsts, return_inverse=True)


def monte_carlo(scenario: Scenario, model: str, n_samples: int,
                seed: int = 0, speed_law=micro_speed_Vtilde,
                threads: int = 0) -> StatSummary:
    """Per-cell statistics of the chosen model at T over sampled accident
    sizes. Each chunk of up to 64 samples (16 to 64, fewer on a larger
    pool) is one run of the model's runner with an array of accident sizes
    (one row per sample), which equals independent runs because rows never
    interact; speed_law is the follow-the-leader law of the micro model.

    The chunks run on map_chunks's pool of min(threads, chunks, CPUs)
    workers, the calling process and forked ones (threads = 0: every CPU),
    and are put together in chunk order, so the statistics are
    bit-identical whatever the worker count. A chunk's runs are
    elementwise per row and make no BLAS call, so no lock that a BLAS
    thread holds at the fork is taken in a worker."""
    if model not in ("micro", "macro2"):
        raise ConfigError("monte_carlo supports the micro and macro2 models")
    if scenario.uq is None:
        raise ConfigError("scenario lacks a uq section")
    if n_samples < 1:
        raise ConfigError(f"need at least one sample, got {n_samples}")
    if threads < 0:
        raise ConfigError(f"threads must be at least 0, got {threads}")
    ys = sample_accident_sizes(scenario.uq, n_samples, seed)
    params, grid, capacity = scenario.params, scenario.grid, scenario.capacity
    T = params.T

    if model == "macro2":
        # The macro solver sees Y only through c(x_i; Y), so samples that
        # cover the same cells give bit-identical rows: run one
        # representative Y per distinct capacity row and expand the results
        # afterwards.
        first, expand = _distinct_rows(
            macro.capacity_on_grid(capacity, grid, ys))
        ys = ys[first]
        rho0, h0 = scenario.rho0_field(), scenario.h0_field()

        def final(y):
            return macro.run_second_order(rho0, h0, capacity, params, grid,
                                          y=y, out_times=(T,))[T]
    else:
        # the capacity is evaluated at each vehicle's position, so every
        # sample is distinct work
        positions = micro_init_from_density(scenario.rho0, params.N,
                                            params.L, grid)
        expand = slice(None)

        def final(y):
            return micro.run_micro(positions, capacity, params, grid, y=y,
                                   out_times=(T,), speed_law=speed_law)[T]

    # Rows evolve in chunks of at most 64, and fewer per chunk on a larger
    # pool, so that the rows stepped at once (one chunk per worker) stay
    # about 128 whatever the CPU count. A chunk is not cache-resident: 64
    # macro2 rows of 2000 cells touch about 8 MiB, against 2 MiB of L2 per
    # core on a 2-core x86 machine, yet 8-, 16- and 32-row chunks made both
    # uq benchmark jobs slower there. Rows are independent and every
    # operation is elementwise per row, so the chunk size cannot change the
    # results.
    chunk = min(64, max(16, 128 // pool_size(threads, len(ys))))
    fields = map_chunks(lambda i: final(ys[i * chunk:(i + 1) * chunk]),
                        -(-len(ys) // chunk), threads)
    rho = np.concatenate([f.rho for f in fields])
    h = np.concatenate([f.h for f in fields])
    del fields  # the chunks' own copies, not needed by the statistics
    return _summarize(grid, rho, h, rows_solved=len(ys), expand=expand)


# ---------------------------------------------------------------------------
# PCE -> MC convergence study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceResult:
    n_nodes: np.ndarray
    l2_rho: np.ndarray
    l2_h: np.ndarray
    rate_rho: float
    rate_h: float


def _l2(a: np.ndarray, b: np.ndarray, grid: Grid1D) -> float:
    """Integrated squared error on the grid.

    The squared norm (rather than its square root) is the quantity whose
    decay the study reports: expectation fields of solutions with moving
    fronts differ by displaced discontinuities, and the squared norm is
    what decays linearly with the displacement, making the fitted rate
    comparable across models and resolutions.
    """
    return float(np.sum((a - b) ** 2) * grid.dx)


def _fit_rate(n: np.ndarray, err: np.ndarray) -> float:
    """Decay rate: negative slope of the log-log least-squares fit."""
    slope = np.polyfit(np.log(n), np.log(np.maximum(err, 1e-300)), 1)[0]
    return float(-slope)


def pce_convergence_study(scenario: Scenario, model: str,
                          reference: StatSummary,
                          n_list=(1, 3, 5, 7, 9),
                          speed_law=micro_speed_Vtilde) -> ConvergenceResult:
    """Squared-L2 distance of the expectation from the MC mean, per node count.

    Each run uses the highest expansion order the quadrature resolves
    (K = n - 1); a truncation held fixed while n grows would stall at its
    truncation bias instead of converging to the Monte Carlo mean. speed_law
    is the follow-the-leader law of the micro model. The study runs in the
    calling process alone.
    """
    T = scenario.params.T
    fields = run_pce(scenario, model, [(n, n - 1) for n in n_list],
                     out_times=(T,), speed_law=speed_law)[T]
    grid = scenario.grid
    l2_rho = np.array([_l2(f.rho, reference.rho_mean, grid) for f in fields])
    l2_h = np.array([_l2(f.h, reference.h_mean, grid) for f in fields])
    n_arr = np.asarray(n_list, dtype=float)
    return ConvergenceResult(n_nodes=n_arr, l2_rho=l2_rho, l2_h=l2_h,
                             rate_rho=_fit_rate(n_arr, l2_rho),
                             rate_h=_fit_rate(n_arr, l2_h))
