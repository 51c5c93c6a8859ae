"""Scenario configuration: piecewise profiles and strict JSON parsing."""

import json

import numpy as np
import pytest

from trafficflow.core import (
    AccidentCapacity,
    ConfigError,
    PiecewiseRampCapacity,
)
from trafficflow.scenario import (
    PiecewiseProfile,
    UQConfig,
    accident_scenario,
    load_scenario,
    paper_comparison_scenario,
    scenario_from_dict,
)


def valid_doc():
    return {
        "domain": {"xmin": -4.0, "xmax": 4.0, "dx": 0.5, "periodic": True},
        "params": {"gamma": 0.5, "eta": 0.01, "dt": 0.25, "T": 1.0},
        "capacity": {"variant": "constant", "c0": 1.0},
        "initial": {
            "rho": [{"x_lt": 0.0, "value": 0.15}, {"x_lt": 4.0, "value": 0.1}],
            "h": [{"x_lt": 0.0, "value": 0.8}, {"x_lt": 4.0, "value": 0.95}],
        },
        "uq": {"distribution": "uniform", "n_samples": 10},
        "model": "macro2",
    }


def test_piecewise_profile_lookup():
    prof = PiecewiseProfile((0.0, 4.0), (0.15, 0.1))
    assert prof(-1.0) == 0.15
    assert prof(0.5) == 0.1
    x = np.array([-3.0, -0.001, 0.0, 3.0])
    assert np.allclose(prof(x), [0.15, 0.15, 0.1, 0.1])


def test_piecewise_profile_uniform():
    prof = PiecewiseProfile.uniform(0.125)
    assert prof(-100.0) == 0.125
    assert prof(100.0) == 0.125


def test_piecewise_profile_requires_increasing_thresholds():
    with pytest.raises(ConfigError):
        PiecewiseProfile((1.0, 0.0), (0.1, 0.2))
    with pytest.raises(ConfigError):
        PiecewiseProfile((), ())


def test_scenario_from_dict_round_trip():
    sc = scenario_from_dict(valid_doc())
    assert sc.grid.n_cells == 16
    assert sc.params.gamma == 0.5
    assert sc.model == "macro2"
    assert sc.uq is not None and sc.uq.n_samples == 10
    assert sc.rho0_field()[0] == 0.15
    assert sc.h0_field()[-1] == 0.95


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(extra=1),
    lambda d: d["domain"].update(shape="weird"),
    lambda d: d["params"].update(zeta=2),
    lambda d: d["capacity"].update(slope=3),
    lambda d: d["initial"]["rho"][0].update(y_lt=0),
    lambda d: d["uq"].update(threads=8),
])
def test_unknown_keys_rejected(mutate):
    doc = valid_doc()
    mutate(doc)
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)


def test_unknown_model_and_capacity_variant_rejected():
    doc = valid_doc()
    doc["model"] = "quantum"
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)
    doc = valid_doc()
    doc["capacity"] = {"variant": "pothole"}
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)


def test_missing_required_key_rejected():
    doc = valid_doc()
    del doc["initial"]
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)


def test_load_scenario_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_scenario(bad)
    notdict = tmp_path / "list.json"
    notdict.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_scenario(notdict)
    with pytest.raises(OSError):
        load_scenario(tmp_path / "absent.json")


def test_integer_too_long_to_convert_is_invalid_json(tmp_path):
    # json.loads raises a ValueError that is not a JSONDecodeError for an
    # integer literal past the interpreter's 4300-digit limit
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(valid_doc()).replace(
        '"T": 1.0', '"T": 1.0, "N": 1' + "0" * 5000))
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_scenario(path)


@pytest.mark.parametrize("section, key, value", [
    ("params", "gamma", 1.5), ("params", "eta", 0.0),
    ("params", "epsilon", -1.0), ("params", "a", 2.0),
    ("params", "dt", 0.0), ("params", "T", -1.0), ("params", "L", 0.0),
    ("params", "N", 0), ("params", "N", 10**8 + 1),
    ("params", "dt", 1e-12), ("capacity", "c0", -0.5),
    ("uq", "n_samples", 0), ("uq", "n_samples", 10**6 + 1),
    ("uq", "pce_nodes", 0), ("uq", "pce_nodes", 101),
    ("uq", "pce_order", -1), ("uq", "pce_order", 100),
])
def test_out_of_range_values_name_their_key_path(section, key, value):
    doc = valid_doc()
    doc[section][key] = value
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    assert str(err.value).startswith(f"{section}.{key} = {value!r} ")


@pytest.mark.parametrize("capacity, key", [
    ({"variant": "piecewise_ramp", "c_low": 1.5, "x_left": -2.0,
      "x_right": 2.0, "delta": 0.1}, "c_low"),
    ({"variant": "piecewise_ramp", "c_low": 0.5, "x_left": -2.0,
      "x_right": 2.0, "delta": 0.0}, "delta"),
    ({"variant": "piecewise_ramp", "c_low": 0.5, "x_left": -0.1,
      "x_right": 0.1, "delta": 0.1}, "delta"),
    ({"variant": "accident", "drop": 1.5}, "drop"),
])
def test_capacity_errors_name_their_key_path(capacity, key):
    doc = dict(valid_doc(), capacity=capacity)
    with pytest.raises(ConfigError, match=f"^capacity.{key} = "):
        scenario_from_dict(doc)


def test_load_scenario_valid(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(valid_doc()))
    sc = load_scenario(path)
    assert sc.grid.dx == 0.5


def test_uq_config_validation():
    with pytest.raises(ConfigError):
        UQConfig(distribution="cauchy")
    cfg = UQConfig(distribution="beta", alpha=5.0, beta=2.0)
    assert cfg.alpha == 5.0


def test_uq_config_owns_the_law():
    # alpha = beta = 1 is the uniform law, whatever its name
    assert UQConfig("uniform").is_uniform and UQConfig("beta").is_uniform
    assert not UQConfig("beta", alpha=5.0, beta=2.0).is_uniform
    with pytest.raises(ConfigError, match="uq.distribution.alpha"):
        UQConfig("uniform", alpha=5.0)
    with pytest.raises(ConfigError, match="uq.distribution.beta = 0.0"):
        UQConfig("beta", beta=0.0)


def test_builtin_scenarios():
    sc = paper_comparison_scenario()
    assert isinstance(sc.capacity, PiecewiseRampCapacity)
    assert sc.rho0(-1.0) == 0.15 and sc.rho0(1.0) == 0.1
    assert sc.h0(-1.0) == 0.8 and sc.h0(1.0) == 0.95
    assert sc.grid.x_min == -4.0 and sc.grid.x_max == 4.0

    acc = accident_scenario()
    assert isinstance(acc.capacity, AccidentCapacity)
    assert acc.uq is not None and acc.uq.distribution == "uniform"
