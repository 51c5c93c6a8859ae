"""Command-line driver: simulate / compare / uq / analyze.

Exit codes: 0 ok, 2 configuration error, 3 numerical failure, 4 I/O error.
Each command and each mode of `uq` and `analyze` declares only the flags
it reads; argparse rejects any other (exit 2, naming it). Every run is
reproducible from (scenario file, seed). `--threads` (`uq mc`,
`uq convergence`) sets the Monte Carlo workers: the command's own process
and forked ones (0, the default, means every CPU). Outputs are
byte-identical whatever its value.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import analysis, macro, micro, output, particle, uq
from .core import (
    AccidentCapacity,
    ConfigError,
    MacroField,
    ModelParams,
    NumericalError,
    _fork,
    _join,
    _short_repr,
    _snap_times,
    micro_speed_Vtilde,
    micro_speed_equilibrium,
)
from .scenario import (
    KNOWN_MODELS,
    MAX_PCE_NODES,
    MAX_SAMPLES,
    Scenario,
    load_scenario,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


MICRO_SPEED_LAWS = {
    "linear": micro_speed_Vtilde,
    "equilibrium": micro_speed_equilibrium,
}


# each model's entry check; its runner calls the same function first, so
# run_model can check a model before any model of a command steps
ENTRY_CHECKS = {"macro1": macro.cfl_check, "macro2": macro.cfl_check,
                "micro": micro.euler_dt_check, "particle": particle.dt_check}


def run_model(scenario: Scenario, model: str, seed: int = 0, y=None,
              out_times=None, micro_speed: str = "linear", emit=None):
    """Check one model on the scenario grid and build its initial state;
    returns run(), which runs the model from that state and returns
    {time: MacroField}, or hands each snapshot to emit as it is observed
    (see core.integrate)."""
    params, grid, capacity = scenario.params, scenario.grid, scenario.capacity
    if isinstance(capacity, AccidentCapacity) and y is None:
        raise ConfigError("accident capacity requires --accident-size (or a "
                          "uq command) to fix the half-width Y")
    if micro_speed not in MICRO_SPEED_LAWS:
        raise ConfigError(f"unknown micro speed law {micro_speed!r}")
    if model not in ENTRY_CHECKS:
        raise ConfigError(f"unknown model {model!r}")
    options = dict(y=y, out_times=out_times, emit=emit)
    if model == "macro1":
        state, runner = [scenario.rho0_field()], macro.run_first_order
    elif model == "macro2":
        state = [scenario.rho0_field(), scenario.h0_field()]
        runner = macro.run_second_order
    elif model == "micro":
        state = [micro.micro_init_from_density(scenario.rho0, params.N,
                                               params.L, grid)]
        runner = micro.run_micro
        options["speed_law"] = MICRO_SPEED_LAWS[micro_speed]
    else:
        state = [particle.particle_init(scenario.rho0, scenario.h0,
                                        params.N, grid)]
        runner, options["seed"] = particle.run_particle, seed
    ENTRY_CHECKS[model](params, capacity, grid)

    def run():
        return runner(*state, capacity, params, grid, **options)
    return run


def _parse_times(arg, params: ModelParams):
    """The --times values; exit 2 on a time off the step grid, two times on
    one step, or two times whose snapshot files would share a name (the
    second would overwrite the first)."""
    if arg is None:
        return None
    try:
        times = tuple(float(v) for v in arg.split(","))
    except ValueError:
        raise ConfigError(f"--times: not a list of numbers: {arg!r}") from None
    _snap_times(times, params)
    named = {}
    for t in times:
        name = output.fields_filename(t)
        if name in named:
            raise ConfigError(f"output times {named[name]!r} and {t!r} would "
                              f"both be written to {name}")
        named[name] = t
    return times


def _count(value, flag: str, minimum: int, default=None, maximum=None):
    """The value of an integer flag, or default when it is not given; exit 2
    naming the flag when it is below minimum or above maximum."""
    if value is None:
        return default
    if value < minimum:
        raise ConfigError(f"{flag} must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{flag} must be at most {maximum}, got "
                          f"{_short_repr(value)}")
    return value


def _reject_unused_flags(args, scenario: Scenario, models) -> None:
    """Exit 2 on a negative --seed, or on a flag that the scenario or all
    of the command's models ignore (argparse rejects the flags a command
    does not declare)."""
    _count(args.seed, "--seed", 0)
    if args.micro_speed != "linear" and "micro" not in models:
        raise ConfigError("--micro-speed applies to the micro model only")
    if (getattr(args, "accident_size", None) is not None
            and not isinstance(scenario.capacity, AccidentCapacity)):
        raise ConfigError("--accident-size applies to the accident capacity "
                          "only")


class _SnapshotWriter:
    """Writes the snapshot files of one simulate or compare command, whose
    fields all live on grid, from one forked writer process, so that their
    CSV text is formatted while the models step.

    `with writer:` forks it (core._fork); enter before run_model builds
    the first initial state, so that the states' temporaries are not
    shared with the writer. These commands start no thread, and
    the writer makes no BLAS call, so no lock held at the fork is taken in
    the writer. The command's snapshots then go over one pipe, each as its
    file name and a line feed, then the raw float64 bytes of rho and h;
    the writer rebuilds the field and calls output.write_fields_csv, so
    every byte is the one an in-process write gives. At its first OSError
    the writer stops and returns it; leaving the block closes the pipe,
    joins the writer (core._join) and raises that error, over any error of
    the models. Where os.fork does not exist, each snapshot is written
    in-process."""

    def __init__(self, out_dir: Path, grid):
        self.out_dir, self.grid = out_dir, grid
        self.pipe = None  # the parent's end while the writer runs

    def emitter(self, filename):
        """An emit callback for run_model that writes each snapshot to
        out_dir / filename(t), and the dict in which it keeps only the
        first and the latest snapshot. out_dir is made at the first
        snapshot, so a run that fails keeps the snapshots written before
        the failure, and one that fails before its first snapshot leaves
        no directory."""
        kept = {}

        def emit(t, field):
            if not kept:
                self.out_dir.mkdir(parents=True, exist_ok=True)
                kept["first"] = field
            if self.pipe is None:
                output.write_fields_csv(self.out_dir / filename(t), field)
            else:
                self.pipe.write(filename(t).encode() + b"\n")
                self.pipe.write(field.rho)
                self.pipe.write(field.h)
                self.pipe.flush()
            kept["last"] = field

        return emit, kept

    def __enter__(self):
        if not hasattr(os, "fork"):
            return self
        data_r, data_w = os.pipe()
        self.writer = _fork(lambda: self._write(data_r, data_w))
        os.close(data_r)
        self.pipe = open(data_w, "wb")
        return self

    def _write(self, data_r, data_w):
        """The writer process: close data_w, then write each snapshot read
        from data_r until EOF; returns None, or the first OSError, at which
        it stops."""
        os.close(data_w)
        size = 16 * self.grid.n_cells
        with open(data_r, "rb") as pipe:
            try:
                while name := pipe.readline():
                    rho, h = np.frombuffer(pipe.read(size)).reshape(2, -1)
                    output.write_fields_csv(
                        self.out_dir / name[:-1].decode(),
                        MacroField(rho, h, self.grid))
            except OSError as exc:
                return exc

    def __exit__(self, exc_type, exc, tb):
        if self.pipe is None:
            return
        try:
            self.pipe.close()
        except BrokenPipeError:
            pass  # the writer stopped at a failure, which it returns
        self.pipe = None
        try:
            error = _join(self.writer, "the snapshot writer")
        except ChildProcessError:
            # a writer that died without a report; an interrupt passes
            if exc is None or isinstance(exc, Exception):
                raise
            return
        if error is not None:
            raise error


def _mass_drift(first: MacroField, last: MacroField, grid) -> float:
    m0 = macro.total_mass(first.rho, grid)
    mT = macro.total_mass(last.rho, grid)
    return abs(mT - m0) / max(abs(m0), 1e-300)


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    model = args.model or scenario.model
    if model is None:
        raise ConfigError("no model given (use --model or the scenario key)")
    _reject_unused_flags(args, scenario, (model,))
    times = _parse_times(args.times, scenario.params)
    out_dir = Path(args.out)
    writer = _SnapshotWriter(out_dir, scenario.grid)
    emit, kept = writer.emitter(output.fields_filename)
    with writer:
        run = run_model(scenario, model, seed=args.seed, y=args.accident_size,
                        out_times=times, micro_speed=args.micro_speed,
                        emit=emit)
        run()
    meta = {
        "model": model,
        "scheme": "lax-friedrichs" if model.startswith("macro") else "euler",
        "dx": scenario.grid.dx,
        "dt": scenario.params.dt,
        "T": scenario.params.T,
        "seed": args.seed,
        "mass_drift": _mass_drift(kept["first"], kept["last"],
                                  scenario.grid),
    }
    output.write_metadata(out_dir / "metadata.json", meta)
    return EXIT_OK


def cmd_compare(args) -> int:
    scenario = load_scenario(args.scenario)
    models = args.models.split(",")
    _reject_unused_flags(args, scenario, models)
    out_dir = Path(args.out)
    T = scenario.params.T
    writer = _SnapshotWriter(out_dir, scenario.grid)
    runs = []  # every model is checked before the first one steps
    with writer:  # one writer for every model
        for m in models:
            emit, kept = writer.emitter(
                lambda t, m=m: f"fields_{m}_t{t:g}.csv")
            runs.append((m, kept, run_model(
                scenario, m, seed=args.seed, y=args.accident_size,
                out_times=(0.0, T), micro_speed=args.micro_speed,
                emit=emit)))
        for _, _, run in runs:
            run()
    finals = {m: kept["last"] for m, kept, _ in runs}

    lines = ["model_a,model_b,l1_rho,l1_rho_rel"]
    for i, a in enumerate(models):
        for b in models[i:]:
            d = l1_distance(finals[a], finals[b])
            rel = d / max(macro.total_mass(np.abs(finals[a].rho),
                                           scenario.grid), 1e-300)
            lines.append(f"{a},{b},{d!r},{rel!r}")
    (out_dir / "l1_distances.csv").write_text("\n".join(lines) + "\n")
    output.write_metadata(out_dir / "metadata.json",
                          {"models": models, "T": T, "seed": args.seed})
    return EXIT_OK


def l1_distance(a: MacroField, b: MacroField) -> float:
    if a.grid != b.grid:
        raise ConfigError("fields live on different grids")
    return float(np.sum(np.abs(a.rho - b.rho)) * a.grid.dx)


def cmd_uq(args) -> int:
    scenario = load_scenario(args.scenario)
    if scenario.uq is None:
        raise ConfigError("scenario lacks a uq section")
    model = args.model
    _reject_unused_flags(args, scenario, (model,))
    speed_law = MICRO_SPEED_LAWS[args.micro_speed]
    if args.uq_mode == "pce":
        n_nodes = _count(args.nodes, "--nodes", 1, scenario.uq.pce_nodes,
                         MAX_PCE_NODES)
        order = _count(args.order, "--order", 0, scenario.uq.pce_order,
                       MAX_PCE_NODES - 1)
    else:  # mc, convergence
        threads = _count(args.threads, "--threads", 0, 0)
        n_samples = _count(args.samples, "--samples", 1,
                           scenario.uq.n_samples, MAX_SAMPLES)
    if args.uq_mode != "mc" and not scenario.uq.is_uniform:
        raise ConfigError("the Galerkin expansion supports the uniform law "
                          "(alpha = beta = 1) only")
    out_dir = Path(args.out)

    def out(name):
        # made by the first write, as in _SnapshotWriter, so a run that
        # fails before it leaves no directory
        out_dir.mkdir(parents=True, exist_ok=True)
        return out_dir / name

    meta = {
        "mode": args.uq_mode,
        "model": model,
        "seed": args.seed,
        "distribution": scenario.uq.distribution,
        "alpha": scenario.uq.alpha,
        "beta": scenario.uq.beta,
    }
    if model == "micro":
        meta["micro_speed"] = args.micro_speed

    if args.uq_mode == "pce":
        fields = uq.run_pce(scenario, model, [(n_nodes, order)],
                            out_times=(scenario.params.T,),
                            speed_law=speed_law)
        for t, (field,) in sorted(fields.items()):
            output.write_fields_csv(out(f"pce_expectation_t{t:g}.csv"),
                                    field)
        meta.update(n_nodes=n_nodes, order=order)
    else:  # mc, convergence
        stats = uq.monte_carlo(scenario, model, n_samples, seed=args.seed,
                               speed_law=speed_law, threads=threads)
        # written first, so that a Galerkin study that fails keeps it
        output.write_stats_csv(out("mc_summary.csv"), stats)
        meta.update(n_samples=n_samples, mc_rows_solved=stats.rows_solved)
    if args.uq_mode == "convergence":
        result = uq.pce_convergence_study(scenario, model, stats,
                                          speed_law=speed_law)
        output.write_convergence_csv(out("convergence.csv"), result)
        meta.update(rate_rho=result.rate_rho, rate_h=result.rate_h)

    output.write_metadata(out("metadata.json"), meta)
    return EXIT_OK


def _analysis_params(args) -> ModelParams:
    return ModelParams(gamma=args.gamma, eta=args.eta)


def cmd_analyze(args) -> int:
    params = _analysis_params(args)
    state = analysis.StateUHC(rho=args.rho, h=args.h, c=args.c)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.analyze_mode == "eigen":
        dec = analysis.eigenstructure(state, params)
        report = {
            "lambdas": list(dec.lambdas),
            "eigenvectors": [list(r) for r in dec.vectors],
            "strictly_hyperbolic": dec.strictly_hyperbolic,
            "eigen_residual": analysis.eigen_residual(state, params),
            "genuine_nonlinearity_2": analysis.genuine_nonlinearity_2(
                state, params),
            "nonlinearity_diagnostic": analysis.nonlinearity_diagnostic(
                state, params),
        }
        (out_dir / "eigen.json").write_text(
            json.dumps(report, indent=2) + "\n")
    elif args.analyze_mode == "curves":
        # a warning's own text, without the source line Python would add
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sigma, states = analysis.rarefaction_curve(
                args.family, state, args.sigma_max, args.n_steps, params)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        lam = np.array([analysis.eigenstructure(
            analysis.StateUHC(*s), params).lambdas[args.family - 1]
            for s in states])
        lines = ["sigma,rho,h,c,lambda"]
        for s, (rho, h, c), lv in zip(sigma, states, lam):
            lines.append(",".join(repr(float(v)) for v in (s, rho, h, c, lv)))
        (out_dir / f"curve_family{args.family}.csv").write_text(
            "\n".join(lines) + "\n")
    else:  # rh
        right = analysis.StateUHC(rho=args.rho_right, h=args.h_right,
                                  c=args.c_right)
        res = analysis.rh_residual(state, right, args.speed, params)
        (out_dir / "rh.json").write_text(
            json.dumps({"residuals": list(res)}, indent=2) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trafficflow",
        description="Multiscale traffic flow simulation and UQ toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, accident_size=False):
        p.add_argument("--scenario", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=0)
        if accident_size:  # the uq commands draw it
            p.add_argument("--accident-size", type=float, default=None,
                           help="fixed accident half-width Y for "
                                "deterministic runs with the accident "
                                "capacity")
        p.add_argument("--micro-speed", choices=sorted(MICRO_SPEED_LAWS),
                       default="linear",
                       help="follow-the-leader speed law: 'linear' (1 - u) "
                            "or 'equilibrium' (V(H(u)), shares wave speeds "
                            "with the macroscopic solvers)")

    p = sub.add_parser("simulate", help="run a single model")
    add_common(p, accident_size=True)
    p.add_argument("--model", choices=KNOWN_MODELS)
    p.add_argument("--times", help="comma-separated output times")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="run several models on a shared grid")
    add_common(p, accident_size=True)
    p.add_argument("--models", required=True,
                   help="comma-separated model list")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("uq", help="Monte Carlo / polynomial chaos studies")
    p.set_defaults(func=cmd_uq)
    modes = p.add_subparsers(dest="uq_mode", required=True)
    for mode in ("mc", "pce", "convergence"):
        p = modes.add_parser(mode)
        add_common(p)
        p.add_argument("--model", choices=("micro", "macro2"),
                       default="macro2")
        if mode == "pce":
            p.add_argument("--nodes", type=int)
            p.add_argument("--order", type=int)
        else:
            p.add_argument("--samples", type=int)
            p.add_argument("--threads", type=int, default=None,
                           help="Monte Carlo workers, this process and "
                                "forked ones (0, the default: every CPU); "
                                "outputs are byte-identical whatever the "
                                "value")

    p = sub.add_parser("analyze", help="eigenstructure and wave curves")
    p.set_defaults(func=cmd_analyze)
    modes = p.add_subparsers(dest="analyze_mode", required=True)
    for mode in ("eigen", "curves", "rh"):
        p = modes.add_parser(mode)
        p.add_argument("--out", required=True)
        p.add_argument("--rho", type=float, required=True)
        p.add_argument("--h", type=float, required=True)
        p.add_argument("--c", type=float, default=1.0)
        p.add_argument("--gamma", type=float, default=0.5)
        p.add_argument("--eta", type=float, default=1e-2)
        if mode == "curves":
            p.add_argument("--family", type=int, choices=(1, 2, 3),
                           default=2)
            p.add_argument("--sigma-max", type=float, default=0.5)
            p.add_argument("--n-steps", type=int, default=100)
        elif mode == "rh":
            for flag in ("--rho-right", "--h-right", "--c-right"):
                p.add_argument(flag, type=float, required=True)
            p.add_argument("--speed", type=float, default=0.0)

    return parser


def main(argv=None) -> int:
    # kept referenced until the command ends: its reference cycles, freed
    # by a collection after a Monte Carlo fork, would copy shared pages
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a malformed command line (2) or --help (0)
        return exc.code
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
