"""Command-line driver: exit codes, artifacts and reproducibility."""

import csv
import json

import numpy as np
import pytest

from trafficflow.cli import main
from trafficflow.core import Grid1D
from trafficflow.output import read_fields_csv


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
], ids=["nan", "infinity", "string", "params-list", "bare-profile-entry",
        "fractional-N", "periodic-false", "periodic-string", "periodic-1"])
def test_malformed_scenario_values_exit_2_and_name_key(tmp_path, capsys,
                                                       override, key):
    sc = write_scenario(tmp_path, **override)
    assert main(["simulate", "--scenario", str(sc), "--model", "macro2",
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


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


@pytest.mark.parametrize("argv,flag", [
    (["uq", "mc", "--samples", "0"], "--samples"),
    (["uq", "pce", "--nodes", "0"], "--nodes"),
    (["uq", "pce", "--order", "-1"], "--order"),
    (["uq", "mc", "--threads", "-5"], "--threads"),
    (["simulate", "--model", "macro2", "--threads", "-1"], "--threads"),
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


def test_runs_are_byte_identical_across_thread_counts(tmp_path):
    sc = write_scenario(tmp_path)
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    for out, threads in ((out1, "1"), (out2, "8")):
        assert main(["simulate", "--scenario", str(sc), "--model", "particle",
                     "--seed", "3", "--threads", threads,
                     "--out", str(out)]) == 0
    assert byte_contents(out1) == byte_contents(out2)


def test_rerun_reproduces_bytes(tmp_path):
    sc = write_scenario(tmp_path, capacity={"variant": "accident"},
                        params={"dt": 0.004, "T": 0.4, "N": 400,
                                "L": 1 / 400})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["uq", "mc", "--scenario", str(sc), "--model", "micro",
                     "--samples", "3", "--seed", "5", "--out", str(out)]) == 0
    assert byte_contents(out1) == byte_contents(out2)
