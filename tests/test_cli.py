"""Command-line driver: exit codes, artifacts and reproducibility."""

import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import trafficflow
from trafficflow import output
from trafficflow.cli import ENTRY_CHECKS, main, run_model
from trafficflow.core import ConfigError, Grid1D, MacroField
from trafficflow.macro import total_mass
from trafficflow.output import (fields_filename, write_fields_csv,
                                write_metadata)
from trafficflow.scenario import KNOWN_MODELS, load_scenario


def write_scenario(tmp_path, **overrides):
    doc = {
        "domain": {"xmin": -4.0, "xmax": 4.0, "dx": 0.04},
        "params": {"dt": 0.04, "T": 1.0, "N": 400, "L": 1 / 400},
        "capacity": {"variant": "piecewise_ramp", "c_low": 0.6,
                     "x_left": -2.0, "x_right": 2.0, "delta": 0.1},
        "initial": {
            "rho": [{"x_lt": 0.0, "value": 0.15},
                    {"x_lt": 4.0, "value": 0.1}],
            "h": [{"x_lt": 0.0, "value": 0.8},
                  {"x_lt": 4.0, "value": 0.95}],
        },
        "uq": {"distribution": "uniform", "n_samples": 4,
               "pce_nodes": 3, "pce_order": 0},
    }
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_fields_csv(path, grid):
    """The field of a snapshot file; its numbers are reprs, so the floats
    read back are the ones written."""
    rows = read_csv_rows(path)
    return MacroField(rho=np.array([float(r["rho"]) for r in rows]),
                      h=np.array([float(r["h"]) for r in rows]), grid=grid)


def test_simulate_macro2_writes_fields_and_metadata(tmp_path):
    sc = write_scenario(tmp_path)
    out = tmp_path / "run"
    code = main(["simulate", "--scenario", str(sc), "--model", "macro2",
                 "--out", str(out)])
    assert code == 0
    for t in ("0", "0.5", "1"):
        assert (out / f"fields_t{t}.csv").exists()
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["model"] == "macro2"
    assert meta["mass_drift"] <= 1e-10


def test_simulate_round_trips_fields_losslessly(tmp_path):
    sc = write_scenario(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(sc), "--model", "macro2",
                 "--out", str(out), "--times", "1"]) == 0
    grid = Grid1D(-4.0, 4.0, 0.04)
    field = read_fields_csv(out / "fields_t1.csv", grid)
    assert np.all(np.isfinite(field.rho))
    # writing uses repr precision, so a second read is bit-identical
    twice = read_fields_csv(out / "fields_t1.csv", grid)
    assert np.array_equal(field.rho, twice.rho)
    assert np.array_equal(field.h, twice.h)


def test_cfl_violation_exits_2_and_names_ratio(tmp_path, capsys):
    sc = write_scenario(tmp_path, params={"dt": 0.08, "T": 1.0})
    assert main(["simulate", "--scenario", str(sc), "--model", "macro2",
                 "--out", str(tmp_path / "x")]) == 2
    assert "2" in capsys.readouterr().err


def test_particle_dt_bound_exits_2_before_any_output(tmp_path, capsys):
    sc = write_scenario(tmp_path, params={"dt": 0.04, "T": 1.0, "N": 400,
                                          "L": 1 / 400, "epsilon": 50.0})
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(sc), "--model", "particle",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "params.dt" in err and "params.epsilon" in err
    assert not out.exists()


def test_unknown_key_exits_2_and_names_key(tmp_path, capsys):
    sc = write_scenario(tmp_path, typo_key=1)
    assert main(["simulate", "--scenario", str(sc), "--model", "macro2",
                 "--out", str(tmp_path / "x")]) == 2
    assert "typo_key" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["simulate", "--scenario", str(bad), "--model", "macro2",
                 "--out", str(tmp_path / "x")]) == 2


def test_missing_scenario_file_exits_4(tmp_path):
    assert main(["simulate", "--scenario", str(tmp_path / "absent.json"),
                 "--model", "macro2", "--out", str(tmp_path / "x")]) == 4


def test_missing_model_exits_2(tmp_path):
    sc = write_scenario(tmp_path)
    assert main(["simulate", "--scenario", str(sc),
                 "--out", str(tmp_path / "x")]) == 2


def test_accident_capacity_requires_size_flag(tmp_path):
    sc = write_scenario(tmp_path, capacity={"variant": "accident"})
    assert main(["simulate", "--scenario", str(sc), "--model", "macro2",
                 "--out", str(tmp_path / "x")]) == 2
    assert main(["simulate", "--scenario", str(sc), "--model", "macro2",
                 "--out", str(tmp_path / "y"), "--accident-size", "2"]) == 0


@pytest.mark.parametrize("times, bad", [("0.005", "0.005"),
                                        ("0.05,0.051", "0.051"),
                                        ("0.05,0.0500000000001", "same step"),
                                        ("0.5,abc", "abc"),
                                        ("nan", "nan")])
def test_output_times_off_the_step_grid_exit_2(tmp_path, capsys, times, bad):
    sc = write_scenario(tmp_path, params={"dt": 0.01, "T": 1.0})
    assert main(["simulate", "--scenario", str(sc), "--model", "macro2",
                 "--times", times, "--out", str(tmp_path / "x")]) == 2
    assert bad in capsys.readouterr().err


def test_output_times_sharing_a_file_name_exit_2(tmp_path, capsys):
    # both times are on the step grid, but {t:g} keeps 6 digits, so both
    # would be written to fields_t0.123456.csv; rejected before any step
    sc = write_scenario(tmp_path, params={"dt": 1e-7, "T": 0.2})
    assert main(["simulate", "--scenario", str(sc), "--model", "macro2",
                 "--times", "0.1234561,0.1234562",
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "0.1234561" in err and "0.1234562" in err
    assert not (tmp_path / "x").exists()


def test_horizon_off_the_step_grid_exits_2(tmp_path, capsys):
    # 1 / 0.03 steps: the last step would end at t = 0.99, not at T
    sc = write_scenario(tmp_path, params={"dt": 0.03, "T": 1.0})
    assert main(["simulate", "--scenario", str(sc), "--model", "macro2",
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "T = 1.0" in err and "dt = 0.03" in err
    assert not (tmp_path / "x").exists()


GOOD_PARAMS = {"dt": 0.04, "T": 1.0, "N": 400, "L": 1 / 400}
GOOD_DOMAIN = {"xmin": -4.0, "xmax": 4.0, "dx": 0.04}
GOOD_H = [{"x_lt": 4.0, "value": 0.8}]


@pytest.mark.parametrize("override, key", [
    ({"domain": dict(GOOD_DOMAIN, dx=float("nan"))}, "domain.dx"),
    ({"params": dict(GOOD_PARAMS, T=float("inf"))}, "params.T"),
    ({"domain": dict(GOOD_DOMAIN, dx="abc")}, "domain.dx"),
    ({"params": []}, "params"),
    ({"initial": {"rho": [0.1], "h": GOOD_H}}, "initial.rho[0]"),
    ({"params": dict(GOOD_PARAMS, N=2.7)}, "params.N"),
    ({"domain": dict(GOOD_DOMAIN, periodic=False)}, "domain.periodic"),
    ({"domain": dict(GOOD_DOMAIN, periodic="false")}, "domain.periodic"),
    ({"domain": dict(GOOD_DOMAIN, periodic=1)}, "domain.periodic"),
    ({"domain": dict(GOOD_DOMAIN, dx=1e300)}, "domain.dx"),
    # more than 10**8 cells: rejected while parsing, before any array exists
    ({"domain": dict(GOOD_DOMAIN, dx=1e-300)},
     "domain.dx = 1e-300 gives 8e+300 cells"),
    ({"domain": dict(GOOD_DOMAIN, dx=1e-9)},
     "domain.dx = 1e-09 gives 8e+09 cells"),
    ({"params": dict(GOOD_PARAMS, gamma=2)},
     "params.gamma = 2.0 must lie in [0, 1]"),
    ({"params": dict(GOOD_PARAMS, dt=-0.04)},
     "params.dt = -0.04 must be positive"),
    ({"params": dict(GOOD_PARAMS, T=0)}, "params.T = 0.0 must be positive"),
    ({"capacity": {"variant": "constant", "c0": 1.5}},
     "capacity.c0 = 1.5 must lie in [0, 1]"),
    # the grid allows dt <= dx = 0.04 only
    ({"params": dict(GOOD_PARAMS, dt=0.08, T=0.8)},
     "params.dt = 0.08 and domain.dx = 0.04"),
    # more than 10**8 vehicles: rejected while parsing, before any array
    ({"params": dict(GOOD_PARAMS, N=10**8 + 1)},
     "params.N = 100000001 must lie in [1, 100000000]"),
], ids=["nan", "infinity", "string", "params-list", "bare-profile-entry",
        "fractional-N", "periodic-false", "periodic-string", "periodic-1",
        "no-cell", "too-many-cells-1e-300", "too-many-cells-1e-9",
        "gamma", "dt", "T", "capacity-c0", "cfl", "too-many-vehicles"])
def test_malformed_scenario_values_exit_2_and_name_key(tmp_path, capsys,
                                                       override, key):
    sc = write_scenario(tmp_path, **override)
    assert main(["simulate", "--scenario", str(sc), "--model", "macro2",
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("N, text", [
    (1e300, "params.N = 1e+300 must lie in [1, 100000000]"),
    # an integer literal past the float range fails the integer check
    (10**400, "params.N must be an integer, got 1e+400"),
], ids=["1e300", "10**400"])
def test_huge_vehicle_count_exits_2_with_a_short_message(tmp_path, capsys, N,
                                                         text):
    sc = write_scenario(tmp_path, params=dict(GOOD_PARAMS, N=N))
    assert main(["simulate", "--scenario", str(sc), "--model", "macro2",
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert text in err and len(err) < 120 and "Traceback" not in err


@pytest.mark.parametrize("model", ["macro1", "macro2", "micro", "particle"])
@pytest.mark.parametrize("key", ["rho", "h"])
def test_negative_initial_value_exits_2_and_names_key(tmp_path, capsys, key,
                                                      model):
    sc = write_scenario(tmp_path)
    doc = json.loads(sc.read_text())
    doc["initial"][key][1]["value"] = -0.1
    sc.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(sc), "--model", model,
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert f"initial.{key}[1].value" in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--model", "macro2", "--micro-speed", "equilibrium"],
     "--micro-speed"),
    (["compare", "--models", "macro1,particle", "--micro-speed",
      "equilibrium"], "--micro-speed"),
    (["simulate", "--model", "macro2", "--accident-size", "2"],
     "--accident-size"),
    (["compare", "--models", "macro1,micro", "--accident-size", "2"],
     "--accident-size"),
    # only the Monte Carlo chunks of uq mc and uq convergence run threads
    (["simulate", "--model", "macro2", "--threads", "2"], "--threads"),
    (["compare", "--models", "macro1,macro2", "--threads", "2"],
     "--threads"),
])
def test_simulate_and_compare_reject_unused_flags(tmp_path, capsys, argv,
                                                  flag):
    # the scenario has the ramp capacity, which fixes no accident size
    sc = write_scenario(tmp_path)
    assert main(argv + ["--scenario", str(sc),
                        "--out", str(tmp_path / "x")]) == 2
    assert flag in capsys.readouterr().err


def test_compare_identical_models_report_zero_distance(tmp_path):
    sc = write_scenario(tmp_path)
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", str(sc),
                 "--models", "macro2,macro2", "--out", str(out)]) == 0
    rows = read_csv_rows(out / "l1_distances.csv")
    same = [r for r in rows if r["model_a"] == r["model_b"]]
    assert same and all(float(r["l1_rho"]) == 0.0 for r in same)
    assert (out / "fields_macro2_t1.csv").exists()


def test_compare_relaxation_tightens_models(tmp_path):
    # a = 1 brings the second-order model closer to the first-order one
    distances = {}
    for a in (0.0, 1.0):
        sc = write_scenario(tmp_path, params={"dt": 0.04, "T": 1.0, "a": a,
                                              "N": 400, "L": 1 / 400})
        out = tmp_path / f"cmp_a{a}"
        assert main(["compare", "--scenario", str(sc),
                     "--models", "macro1,macro2", "--out", str(out)]) == 0
        rows = read_csv_rows(out / "l1_distances.csv")
        pair = [r for r in rows if r["model_a"] != r["model_b"]][0]
        distances[a] = float(pair["l1_rho"])
    assert distances[1.0] < distances[0.0]


@pytest.mark.parametrize("models, params, text", [
    # dt / dx = 2: the particle run would finish before macro2's CFL check
    ("particle,macro2", dict(GOOD_PARAMS, dt=0.08, T=0.8),
     "params.dt = 0.08 and domain.dx = 0.04"),
    # dt > 1 / epsilon: macro2 would write its fields first
    ("macro2,particle", dict(GOOD_PARAMS, epsilon=50.0), "params.epsilon"),
], ids=["cfl-after-particle", "particle-dt-after-macro2"])
def test_compare_checks_every_model_before_the_first_step(tmp_path, capsys,
                                                          models, params,
                                                          text):
    sc = write_scenario(tmp_path, params=params)
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", str(sc), "--models", models,
                 "--out", str(out)]) == 2
    assert text in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model", sorted(KNOWN_MODELS))
def test_run_model_checks_what_the_runner_checks(tmp_path, monkeypatch,
                                                 model):
    # run_model's entry check is the function the model's runner calls
    # first, so compare checks up front whatever a runner checks
    assert set(ENTRY_CHECKS) == set(KNOWN_MODELS)
    check, calls = ENTRY_CHECKS[model], []

    def spy(*args):
        calls.append(args)
        raise ConfigError("spied")

    scenario = load_scenario(write_scenario(tmp_path))
    run = run_model(scenario, model)
    monkeypatch.setattr(sys.modules[check.__module__], check.__name__, spy)
    with pytest.raises(ConfigError, match="spied"):
        run()
    assert calls == [(scenario.params, scenario.capacity, scenario.grid)]


def test_uq_mc_single_sample_equals_single_run(tmp_path):
    sc = write_scenario(tmp_path, capacity={"variant": "accident"})
    out_mc = tmp_path / "mc"
    assert main(["uq", "mc", "--scenario", str(sc), "--model", "macro2",
                 "--samples", "1", "--seed", "6", "--out", str(out_mc)]) == 0
    rows = read_csv_rows(out_mc / "mc_summary.csv")
    assert len(rows) == 200
    for r in rows:
        assert r["rho_mean"] == r["rho_median"] == r["rho_q05"] == r["rho_q95"]


def test_uq_pce_single_node_equals_mean_accident_run(tmp_path):
    sc = write_scenario(tmp_path, capacity={"variant": "accident"})
    out = tmp_path / "pce"
    assert main(["uq", "pce", "--scenario", str(sc), "--model", "macro2",
                 "--nodes", "1", "--order", "0", "--out", str(out)]) == 0
    grid = Grid1D(-4.0, 4.0, 0.04)
    pce = read_fields_csv(out / "pce_expectation_t1.csv", grid)
    assert np.all(pce.rho > 0)
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["n_nodes"] == 1


def test_uq_pce_rejects_beta_distribution(tmp_path):
    sc = write_scenario(tmp_path, capacity={"variant": "accident"},
                        uq={"distribution": {"name": "beta", "alpha": 5,
                                             "beta": 2}})
    assert main(["uq", "pce", "--scenario", str(sc), "--out",
                 str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("dist, text", [
    ({"name": "uniform", "alpha": 5}, "uq.distribution.alpha"),
    ({"name": "uniform", "beta": 2}, "uq.distribution.beta"),
    ({"name": "beta", "alpha": -1}, "uq.distribution.alpha = -1.0 must be "
                                    "positive"),
    ({"name": "gamma", "alpha": 2}, "unknown distribution 'gamma'"),
], ids=["uniform-alpha", "uniform-beta", "negative-alpha", "unknown-law"])
def test_uq_law_parameters_exit_2_and_name_key(tmp_path, capsys, dist,
                                               text):
    # a uniform law takes no alpha or beta other than 1: Monte Carlo would
    # sample a beta law while the Galerkin runs expand in Legendre chaos
    sc = write_scenario(tmp_path, capacity={"variant": "accident"},
                        uq={"distribution": dist})
    assert main(["uq", "mc", "--scenario", str(sc),
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert text in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_uq_pce_runs_a_flat_beta_law_as_the_uniform_one(tmp_path):
    written = []
    for i, dist in enumerate(["uniform", {"name": "beta", "alpha": 1,
                                          "beta": 1}]):
        sc = write_scenario(tmp_path, capacity={"variant": "accident"},
                            uq={"distribution": dist, "pce_nodes": 3,
                                "pce_order": 2})
        out = tmp_path / f"pce{i}"
        assert main(["uq", "pce", "--scenario", str(sc),
                     "--out", str(out)]) == 0
        written.append((out / "pce_expectation_t1.csv").read_bytes())
    assert written[0] == written[1]


def test_uq_pce_micro_checks_the_euler_dt_bound(tmp_path, capsys):
    # uq mc and simulate reject this dt; the Galerkin micro runs must too
    sc = write_scenario(tmp_path, capacity={"variant": "accident"},
                        domain={"xmin": -4.0, "xmax": 4.0, "dx": 0.5},
                        params={"dt": 2.0, "T": 4.0, "N": 20, "L": 1e-3})
    out = tmp_path / "pce"
    assert main(["uq", "pce", "--scenario", str(sc), "--model", "micro",
                 "--out", str(out)]) == 2
    assert "Euler stability bound" in capsys.readouterr().err
    assert not list(out.glob("pce_expectation_*.csv"))


@pytest.mark.parametrize("mode, model, text", [
    ("pce", "micro", "Euler stability bound"),
    ("mc", "macro2", "CFL"),
], ids=["pce-micro-euler", "mc-macro2-cfl"])
def test_uq_model_check_exits_2_and_leaves_no_directory(tmp_path, capsys,
                                                        mode, model, text):
    # dt = 2 is past the micro Euler bound and, at dx = 0.5, the CFL bound
    sc = write_scenario(tmp_path, capacity={"variant": "accident"},
                        domain={"xmin": -4.0, "xmax": 4.0, "dx": 0.5},
                        params={"dt": 2.0, "T": 4.0, "N": 20, "L": 1e-3})
    out = tmp_path / "uq"
    assert main(["uq", mode, "--scenario", str(sc), "--model", model,
                 "--samples" if mode == "mc" else "--nodes", "2",
                 "--out", str(out)]) == 2
    assert text in capsys.readouterr().err
    assert not out.exists()


def test_uq_convergence_writes_decreasing_columns(tmp_path):
    sc = write_scenario(tmp_path, capacity={"variant": "accident"},
                        domain={"xmin": -4.0, "xmax": 4.0, "dx": 0.02},
                        params={"dt": 0.02, "T": 1.0, "N": 400,
                                "L": 1 / 400})
    out = tmp_path / "conv"
    assert main(["uq", "convergence", "--scenario", str(sc),
                 "--model", "macro2", "--samples", "64", "--seed", "2",
                 "--out", str(out)]) == 0
    rows = read_csv_rows(out / "convergence.csv")
    assert [int(r["n"]) for r in rows] == [1, 3, 5, 7, 9]
    l2 = [float(r["l2_rho"]) for r in rows]
    assert l2[0] > l2[-1]


MICRO_PARAMS = {"dt": 0.004, "T": 0.4, "N": 400, "L": 1 / 400}


def test_uq_mc_honours_micro_speed_law(tmp_path):
    sc = write_scenario(tmp_path, capacity={"variant": "accident"},
                        params=MICRO_PARAMS)
    summaries = {}
    for law in ("linear", "equilibrium"):
        out = tmp_path / law
        assert main(["uq", "mc", "--scenario", str(sc), "--model", "micro",
                     "--micro-speed", law, "--out", str(out)]) == 0
        summaries[law] = (out / "mc_summary.csv").read_bytes()
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["micro_speed"] == law
        assert meta["mc_rows_solved"] == meta["n_samples"] == 4
    assert summaries["linear"] != summaries["equilibrium"]


def test_uq_pce_micro_honours_micro_speed_law(tmp_path):
    sc = write_scenario(tmp_path, capacity={"variant": "accident"},
                        params=MICRO_PARAMS)
    fields = {}
    for law in ("linear", "equilibrium"):
        out = tmp_path / law
        assert main(["uq", "pce", "--scenario", str(sc), "--model", "micro",
                     "--micro-speed", law, "--out", str(out)]) == 0
        fields[law] = (out / "pce_expectation_t0.4.csv").read_bytes()
    assert fields["linear"] != fields["equilibrium"]


def test_uq_rejects_inapplicable_or_invalid_flags(tmp_path, capsys):
    sc = write_scenario(tmp_path, capacity={"variant": "accident"})
    assert main(["uq", "mc", "--scenario", str(sc), "--accident-size", "2",
                 "--out", str(tmp_path / "x")]) == 2
    assert "--accident-size" in capsys.readouterr().err
    assert main(["uq", "mc", "--scenario", str(sc), "--model", "macro2",
                 "--micro-speed", "equilibrium",
                 "--out", str(tmp_path / "y")]) == 2
    assert "--micro-speed" in capsys.readouterr().err
    assert main(["uq", "mc", "--scenario", str(sc), "--samples", "-1",
                 "--out", str(tmp_path / "z")]) == 2
    assert "-1" in capsys.readouterr().err
    assert main(["uq", "pce", "--scenario", str(sc), "--threads", "2",
                 "--out", str(tmp_path / "w")]) == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["uq", "mc", "--samples", "0"], "--samples"),
    (["uq", "pce", "--nodes", "0"], "--nodes"),
    (["uq", "pce", "--order", "-1"], "--order"),
    (["uq", "mc", "--threads", "-5"], "--threads"),
    (["simulate", "--model", "macro2", "--threads", "-1"], "--threads"),
    (["simulate", "--model", "particle", "--seed", "-1"], "--seed"),
    (["compare", "--models", "particle,macro2", "--seed", "-3"], "--seed"),
    (["uq", "mc", "--seed", "-1"], "--seed"),
    (["uq", "pce", "--seed", "-1"], "--seed"),
    (["uq", "convergence", "--seed", "-2"], "--seed"),
    (["uq", "mc", "--samples", str(10**6 + 1)], "--samples"),
    (["uq", "convergence", "--samples", "1" + "0" * 300], "--samples"),
    (["uq", "pce", "--nodes", "101"], "--nodes"),
    (["uq", "pce", "--order", "100"], "--order"),
    # a count the mode does not read: uq pce reads the node count and
    # order, the Monte Carlo modes the sample count, and uq convergence
    # fixes its node counts and orders
    (["uq", "pce", "--samples", "7"], "--samples"),
    (["uq", "mc", "--nodes", "5"], "--nodes"),
    (["uq", "mc", "--order", "3"], "--order"),
    (["uq", "convergence", "--nodes", "5"], "--nodes"),
    (["uq", "convergence", "--order", "3"], "--order"),
])
def test_bad_counts_exit_2_and_name_flag(tmp_path, capsys, argv, flag):
    sc = write_scenario(tmp_path, capacity={"variant": "accident"})
    if argv[0] == "simulate":
        argv = argv + ["--accident-size", "2"]
    assert main(argv + ["--scenario", str(sc),
                        "--out", str(tmp_path / "x")]) == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_uq_mc_records_distinct_rows_solved(tmp_path):
    sc = write_scenario(tmp_path, capacity={"variant": "accident"})
    out = tmp_path / "mc"
    assert main(["uq", "mc", "--scenario", str(sc), "--model", "macro2",
                 "--samples", "64", "--seed", "1", "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    # dx = 0.04 resolves 50 accident footprints for Y in [1, 3]
    assert meta["n_samples"] == 64
    assert 1 < meta["mc_rows_solved"] <= 50


def test_uq_requires_uq_section(tmp_path):
    sc = write_scenario(tmp_path)
    doc = json.loads(sc.read_text())
    del doc["uq"]
    sc.write_text(json.dumps(doc))
    assert main(["uq", "mc", "--scenario", str(sc),
                 "--out", str(tmp_path / "x")]) == 2


def test_analyze_eigen_report(tmp_path):
    out = tmp_path / "eig"
    assert main(["analyze", "eigen", "--rho", "0.1", "--h", "1", "--c", "1",
                 "--out", str(out)]) == 0
    report = json.loads((out / "eigen.json").read_text())
    assert report["lambdas"][0] == 0.0
    assert report["lambdas"][1] == pytest.approx(0.4999375)
    assert report["lambdas"][2] == pytest.approx(0.5)
    assert report["eigen_residual"] <= 1e-10
    assert report["strictly_hyperbolic"] is True
    assert report["genuine_nonlinearity_2"] < 0


def test_analyze_curves_family2_matches_closed_form(tmp_path):
    out = tmp_path / "curves"
    assert main(["analyze", "curves", "--family", "2", "--rho", "0.1",
                 "--h", "1", "--sigma-max", "0.1", "--n-steps", "10",
                 "--out", str(out)]) == 0
    rows = read_csv_rows(out / "curve_family2.csv")
    last = rows[-1]
    assert float(last["rho"]) == pytest.approx(0.2)
    assert float(last["h"]) == pytest.approx(0.99975)
    assert float(last["c"]) == pytest.approx(1.0)


def test_analyze_curves_truncation_is_one_stable_line(tmp_path):
    # family 2 lowers h by 0.0025 sigma, so h = 0.8 leaves h > 0 between
    # the samples sigma = 300 and 400. Run as its own process, so that
    # stderr is what a user sees: no path, no source line.
    src = Path(trafficflow.__file__).parent.parent
    out = tmp_path / "curves"
    proc = subprocess.run(
        [sys.executable, "-m", "trafficflow.cli", "analyze", "curves",
         "--rho", "0.15", "--h", "0.8", "--c", "0.6", "--family", "2",
         "--sigma-max", "1000", "--n-steps", "10", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True)
    assert proc.returncode == 0
    assert proc.stderr == ("warning: rarefaction curve left the positivity "
                           "region at sigma = 400; truncated\n")
    rows = read_csv_rows(out / "curve_family2.csv")
    assert [float(r["sigma"]) for r in rows] == [0.0, 100.0, 200.0, 300.0]


def test_analyze_rh_zero_for_equal_states(tmp_path):
    out = tmp_path / "rh"
    assert main(["analyze", "rh", "--rho", "0.1", "--h", "1",
                 "--rho-right", "0.1", "--h-right", "1", "--c-right", "1",
                 "--speed", "0.3", "--out", str(out)]) == 0
    report = json.loads((out / "rh.json").read_text())
    assert report["residuals"] == [0.0, 0.0, 0.0]


def test_analyze_rh_requires_right_state(tmp_path):
    assert main(["analyze", "rh", "--rho", "0.1", "--h", "1",
                 "--out", str(tmp_path / "x")]) == 2


def byte_contents(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


# Acceptance test 13's scenario: 400 cells, 100 steps, 400 vehicles.
THREADS_DOC = {
    "domain": {"xmin": -4.0, "xmax": 4.0, "dx": 0.02},
    "params": {"dt": 0.004, "T": 0.4, "N": 400, "L": 1 / 400},
    "capacity": {"variant": "accident"},
    "initial": {
        "rho": [{"x_lt": 0.0, "value": 0.15}, {"x_lt": 4.0, "value": 0.1}],
        "h": [{"x_lt": 0.0, "value": 0.8}, {"x_lt": 4.0, "value": 0.95}],
    },
    "uq": {"distribution": "uniform"},
}


@pytest.mark.parametrize("mode", ["mc", "convergence"])
@pytest.mark.parametrize("model", ["micro", "macro2"])
def test_monte_carlo_on_several_chunks_is_byte_identical_across_threads(
        tmp_path, mode, model):
    # 130 samples make 3 chunks of up to 64 rows for micro; macro2 runs one
    # row per distinct footprint, so it needs more than 64 of them
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps(THREADS_DOC))
    outputs = []
    for threads in ("1", "2", "0"):
        out = tmp_path / f"threads{threads}"
        assert main(["uq", mode, "--scenario", str(sc), "--model", model,
                     "--samples", "130", "--seed", "9",
                     "--threads", threads, "--out", str(out)]) == 0
        outputs.append(byte_contents(out))
    meta = json.loads(outputs[0]["metadata.json"])
    assert meta["mc_rows_solved"] > 64
    assert outputs[0] == outputs[1] == outputs[2]


def test_monte_carlo_failure_is_the_serial_one_on_any_thread_count(
        tmp_path, capsys):
    # rho = 0 on x < 0 fails at step 1 in every chunk
    doc = dict(THREADS_DOC, initial=dict(
        THREADS_DOC["initial"],
        rho=[{"x_lt": 0.0, "value": 0.0}, {"x_lt": 4.0, "value": 0.1}]))
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps(doc))
    errs = []
    for threads in ("1", "2"):
        assert main(["uq", "mc", "--scenario", str(sc), "--model", "macro2",
                     "--samples", "130", "--seed", "9", "--threads", threads,
                     "--out", str(tmp_path / threads)]) == 3
        errs.append(capsys.readouterr().err)
    assert "step 1 " in errs[0] and "Traceback" not in errs[0]
    assert errs[0] == errs[1]


def test_rerun_reproduces_bytes(tmp_path):
    sc = write_scenario(tmp_path, capacity={"variant": "accident"},
                        params={"dt": 0.004, "T": 0.4, "N": 400,
                                "L": 1 / 400})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["uq", "mc", "--scenario", str(sc), "--model", "micro",
                     "--samples", "3", "--seed", "5", "--out", str(out)]) == 0
    assert byte_contents(out1) == byte_contents(out2)


# A ramp scenario on 8000 cells: one snapshot holds 2 x 8000 floats (128 kB).
STREAM_DOMAIN = {"xmin": -4.0, "xmax": 4.0, "dx": 1e-3}
STREAM_PARAMS = {"dt": 1e-3, "T": 0.2, "N": 400, "L": 1 / 400}


def traced_peak(argv):
    """Peak bytes traced while main(argv) runs, which must succeed; the grid
    text cache is cleared first so every run formats its x column."""
    output._centers_text.cache_clear()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("model", ["macro1", "macro2", "micro", "particle"])
def test_simulate_memory_does_not_grow_with_snapshot_count(tmp_path, model):
    sc = write_scenario(tmp_path, domain=STREAM_DOMAIN, params=STREAM_PARAMS)
    peaks = {}
    for times in (["0", "0.2"], [f"{k * 0.005:g}" for k in range(41)]):
        peaks[len(times)] = traced_peak(
            ["simulate", "--scenario", str(sc), "--model", model,
             "--times", ",".join(times), "--out", str(tmp_path / model)])
    snapshot = 2 * 8000 * 8
    assert peaks[41] - peaks[2] < 2 * snapshot, peaks


@pytest.mark.parametrize("model", ["macro1", "macro2", "micro", "particle"])
def test_streamed_simulate_writes_what_the_runner_returns(tmp_path, model):
    sc = write_scenario(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(sc), "--model", model,
                 "--seed", "4", "--out", str(out)]) == 0
    scenario = load_scenario(sc)
    fields = run_model(scenario, model, seed=4)()
    expected = tmp_path / "expected"
    expected.mkdir()
    for t, field in fields.items():
        write_fields_csv(expected / fields_filename(t), field)
    times = sorted(fields)
    m0, mT = (total_mass(fields[t].rho, scenario.grid)
              for t in (times[0], times[-1]))
    write_metadata(expected / "metadata.json", {
        "model": model,
        "scheme": "lax-friedrichs" if model.startswith("macro") else "euler",
        "dx": 0.04, "dt": 0.04, "T": 1.0, "seed": 4,
        "mass_drift": abs(mT - m0) / abs(m0)})
    assert byte_contents(out) == byte_contents(expected)


def test_streamed_compare_writes_what_the_runners_return(tmp_path):
    sc = write_scenario(tmp_path)
    out = tmp_path / "cmp"
    models = ["macro1", "micro", "macro2", "particle"]
    assert main(["compare", "--scenario", str(sc), "--models",
                 ",".join(models), "--seed", "4", "--out", str(out)]) == 0
    scenario = load_scenario(sc)
    expected = tmp_path / "expected"
    expected.mkdir()
    for m in models:
        fields = run_model(scenario, m, seed=4, out_times=(0.0, 1.0))()
        for t, field in fields.items():
            write_fields_csv(expected / f"fields_{m}_t{t:g}.csv", field)
    want, got = byte_contents(expected), byte_contents(out)
    assert set(got) == set(want) | {"l1_distances.csv", "metadata.json"}
    assert {name: got[name] for name in want} == want


def test_numerical_failure_keeps_the_snapshots_already_written(tmp_path,
                                                               capsys):
    # rho = 0 on x < 0: the t = 0 snapshot is valid, and the conservative
    # step 1 stops on the vanishing density
    sc = write_scenario(tmp_path)
    doc = json.loads(sc.read_text())
    doc["initial"]["rho"][0]["value"] = 0.0
    sc.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(sc), "--model", "macro2",
                 "--out", str(out)]) == 3
    assert "step 1" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["fields_t0.csv"]


def assert_no_child_process():
    # the snapshot writer of every finished command has been waited for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_compare_of_all_four_models_ends(tmp_path):
    # one writer serves every model; run as its own process with a
    # timeout, so that a writer that never sees the end of its input fails
    # the test instead of hanging it
    sc = write_scenario(tmp_path)
    out = tmp_path / "cmp"
    src = Path(trafficflow.__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "trafficflow.cli", "compare", "--scenario",
         str(sc), "--models", "macro1,macro2,micro,particle", "--out",
         str(out)], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(list(out.glob("fields_*.csv"))) == 8
    assert (out / "l1_distances.csv").exists()


@pytest.mark.parametrize("argv, written, blocked, unwritten", [
    (["simulate", "--model", "macro2", "--times", "0,0.4,0.8"],
     ["fields_t0.csv"], "fields_t0.4.csv", ["fields_t0.8.csv"]),
    (["compare", "--models", "macro1,macro2"],
     ["fields_macro1_t0.csv", "fields_macro1_t1.csv"],
     "fields_macro2_t0.csv", ["fields_macro2_t1.csv", "l1_distances.csv"]),
])
def test_snapshot_path_that_is_a_directory_exits_4(tmp_path, capsys, argv,
                                                  written, blocked,
                                                  unwritten):
    sc = write_scenario(tmp_path)
    out = tmp_path / "run"
    (out / blocked).mkdir(parents=True)
    assert main(argv + ["--scenario", str(sc), "--out", str(out)]) == 4
    assert capsys.readouterr().err == (
        f"I/O error: [Errno 21] Is a directory: '{out / blocked}'\n")
    assert all((out / name).is_file() for name in written)
    assert not any((out / name).exists()
                   for name in unwritten + ["metadata.json"])
    assert_no_child_process()


def test_numerical_failure_after_a_write_failure_exits_4(tmp_path, capsys):
    # the headway of this macro2 run turns negative before the t = 1
    # snapshot (exit 3 alone); the t = 0 snapshot fails to write first
    sc = write_scenario(
        tmp_path, domain={"xmin": -1.0, "xmax": 1.0, "dx": 0.01},
        params={"gamma": 1.0, "eta": 1.0, "epsilon": 1.0, "a": 0.0,
                "dt": 0.01, "T": 2.0},
        capacity={"variant": "piecewise_ramp", "c_low": 0.2,
                  "x_left": -0.5, "x_right": 0.5, "delta": 0.1},
        initial={"rho": [{"x_lt": 0.0, "value": 0.5},
                         {"x_lt": 1.0, "value": 5.0}],
                 "h": [{"x_lt": 0.3, "value": 0.05},
                       {"x_lt": 1.0, "value": 2.0}]})
    argv = ["simulate", "--scenario", str(sc), "--model", "macro2"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 3
    assert_no_child_process()
    blocked = tmp_path / "b" / "fields_t0.csv"
    blocked.mkdir(parents=True)
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "b")]) == 4
    assert capsys.readouterr().err == (
        f"I/O error: [Errno 21] Is a directory: '{blocked}'\n")
    assert_no_child_process()
    assert main(argv + ["--times", "0,0.9", "--out",
                        str(tmp_path / "c")]) == 0
    assert_no_child_process()


def test_writer_that_fails_without_an_os_error_exits_4(tmp_path, capsys,
                                                     monkeypatch):
    def broken(path, field):
        raise ValueError("not an I/O error")

    # the forked writer inherits the patched function
    monkeypatch.setattr(output, "write_fields_csv", broken)
    sc = write_scenario(tmp_path)
    assert main(["simulate", "--scenario", str(sc), "--model", "macro1",
                 "--out", str(tmp_path / "run")]) == 4
    assert capsys.readouterr().err == (
        "I/O error: the snapshot writer exited with status 1\n")
    assert_no_child_process()


def test_simulate_without_os_fork_writes_the_same_bytes(tmp_path, capsys,
                                                       monkeypatch):
    # the platforms without os.fork write each snapshot in-process
    sc = write_scenario(tmp_path)
    argv = ["simulate", "--scenario", str(sc), "--model", "macro2",
            "--times", "0,0.4,0.8"]
    for side in ("forked", "in-process"):
        if side == "in-process":
            monkeypatch.delattr(os, "fork")
        assert main(argv + ["--out", str(tmp_path / side)]) == 0
        blocked = tmp_path / f"{side}-blocked" / "fields_t0.4.csv"
        blocked.mkdir(parents=True)
        assert main(argv + ["--out", str(blocked.parent)]) == 4
        assert capsys.readouterr().err == (
            f"I/O error: [Errno 21] Is a directory: '{blocked}'\n")
    assert (byte_contents(tmp_path / "in-process")
            == byte_contents(tmp_path / "forked"))
    assert_no_child_process()


@pytest.mark.parametrize("key, value", [
    ("n_samples", 10**6 + 1), ("pce_nodes", 1e300), ("pce_order", 100)])
def test_uq_counts_over_their_bound_exit_2_naming_the_key(tmp_path, capsys,
                                                          key, value):
    sc = write_scenario(tmp_path, capacity={"variant": "accident"},
                        uq={"distribution": "uniform", key: value})
    assert main(["uq", "pce", "--scenario", str(sc),
                 "--out", str(tmp_path / "x")]) == 2
    assert f"uq.{key} = " in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_step_count_over_its_bound_exits_2_before_stepping(tmp_path,
                                                           capsys):
    # 10**12 steps of 1e-12: without the bound this run steps for ever
    sc = write_scenario(tmp_path, params={"dt": 1e-12, "T": 1.0, "N": 400,
                                          "L": 1 / 400})
    assert main(["simulate", "--scenario", str(sc), "--model", "macro1",
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "params.dt = 1e-12 and T = 1.0 give 1e+12 steps" in err
    assert not (tmp_path / "x").exists()


def test_failing_galerkin_study_names_step_time_run_node_and_cell(tmp_path,
                                                                  capsys):
    # a near-empty road (rho = 1.5e-12) from x = 2 on: the one Monte Carlo
    # sample (Y = 2.27) runs through, but the accident's exit at the upper
    # nodes of the n >= 3 runs drains a cell below the 1e-12 the check asks
    sc = write_scenario(
        tmp_path, capacity={"variant": "accident"},
        domain={"xmin": -4.0, "xmax": 4.0, "dx": 1.6e-2},
        params={"dt": 8e-3, "T": 0.8, "N": 1000, "L": 1e-3},
        initial={"rho": [{"x_lt": 2.0, "value": 0.15},
                         {"x_lt": 4.0, "value": 1.5e-12}],
                 "h": [{"x_lt": 0.0, "value": 0.8},
                       {"x_lt": 4.0, "value": 0.95}]})
    out = tmp_path / "conv"
    assert main(["uq", "convergence", "--scenario", str(sc), "--samples",
                 "1", "--seed", "0", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: step 44 (t = 0.352): vanishing density at "
        "run n = 3, node 2, cell 423\n")
    assert not (out / "convergence.csv").exists()
    # the Monte Carlo phase finished, so its summary is kept
    assert (out / "mc_summary.csv").exists()


def test_negative_macro2_headway_names_step_time_field_and_cell(tmp_path,
                                                              capsys):
    # the queue at the ramp's entry drives the headway z/rho - p(rho) below
    # zero from step 98 on: only the snapshots see it, so the run fails at
    # the first output time after that step
    sc = write_scenario(
        tmp_path, domain={"xmin": -1.0, "xmax": 1.0, "dx": 0.01},
        params={"gamma": 1.0, "eta": 1.0, "epsilon": 1.0, "a": 0.0,
                "dt": 0.01, "T": 2.0},
        capacity={"variant": "piecewise_ramp", "c_low": 0.2,
                  "x_left": -0.5, "x_right": 0.5, "delta": 0.1},
        initial={"rho": [{"x_lt": 0.0, "value": 0.5},
                         {"x_lt": 1.0, "value": 5.0}],
                 "h": [{"x_lt": 0.3, "value": 0.05},
                       {"x_lt": 1.0, "value": 2.0}]})
    argv = ["simulate", "--scenario", str(sc), "--model", "macro2"]
    assert main(argv + ["--times", "0,0.9", "--out",
                        str(tmp_path / "a")]) == 0
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "b")]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: step 100 (t = 1): negative values in "
        "macroscopic field h at cell 17\n")


def test_numerical_failure_writes_one_line_and_no_numpy_warning(tmp_path):
    # rho = 1e308: the neighbour sums of the first LF step overflow, which
    # numpy would report as RuntimeWarnings quoting source lines; the
    # check's message is the one line on stderr. Run as its own process, so
    # that stderr is what a user sees.
    sc = write_scenario(tmp_path, initial={
        "rho": [{"x_lt": 4.0, "value": 1e308}],
        "h": [{"x_lt": 0.0, "value": 0.8}, {"x_lt": 4.0, "value": 0.95}]})
    src = Path(trafficflow.__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "trafficflow.cli", "simulate", "--scenario",
         str(sc), "--model", "macro1", "--out", str(tmp_path / "run")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True)
    assert proc.returncode == 3
    assert proc.stderr.startswith("numerical failure: step 1 ")
    assert len(proc.stderr.splitlines()) == 1
