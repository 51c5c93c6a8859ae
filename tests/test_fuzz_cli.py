"""Random mutations of a small valid scenario and of the command line: the
CLI exits 0, 2, 3 or 4 and lets no exception escape.

Every drawn run stays small: at most 200 cells (dx >= 0.04 on a road of
length <= 8, or a grid that Grid1D rejects), at most 200 vehicles or
particles and at most 50 steps (T <= 2 with dt >= 0.04). So dt, T and N are
replaced but never deleted, since their defaults are far larger.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from trafficflow.cli import main

BASE = {
    "domain": {"xmin": -4.0, "xmax": 4.0, "dx": 0.08},
    "params": {"gamma": 0.5, "eta": 0.01, "epsilon": 0.001, "a": 0.0,
               "dt": 0.04, "T": 1.0, "N": 100, "L": 0.01},
    "capacity": {"variant": "accident", "drop": 0.4},
    "initial": {
        "rho": [{"x_lt": 0.0, "value": 0.15}, {"x_lt": 4.0, "value": 0.1}],
        "h": [{"x_lt": 0.0, "value": 0.8}, {"x_lt": 4.0, "value": 0.95}],
    },
    "uq": {"distribution": "uniform", "n_samples": 4, "pce_nodes": 3,
           "pce_order": 0},
}

ANY = [-1.0, 0.0, 1e-300, 0.5, 1.0, 2.0, 1e300, float("nan"), "x", None,
       True, [], {}]
CAPACITIES = [
    {"variant": "accident", "drop": 0.4},
    {"variant": "constant", "c0": 0.8},
    {"variant": "piecewise_ramp", "c_low": 0.6, "x_left": -2.0,
     "x_right": 2.0, "delta": 0.1},
    {"variant": "piecewise_ramp", "c_low": 0.6, "x_left": 2.0,
     "x_right": -2.0, "delta": 0.1},
    {"variant": "nope"},
]
# replacement values by key path; every other leaf draws from ANY
VALUES = {
    ("domain", "dx"): [0.04, 0.1, 0.16, 8.0, 16.0, 0.03, 0.0, -0.08, 1e-9,
                       1e-300, "0.08", None],
    ("domain", "xmin"): [-4.0, -2.0, 0.0, 4.0, -1e300, "x", None],
    ("domain", "xmax"): [4.0, 2.0, 0.0, -4.0, 1e300, "x", None],
    ("domain", "periodic"): [True, False, "false", 1],
    ("params", "dt"): [0.04, 0.05, 0.08, 0.1, 0.16, 0.03, 0.0, -0.04, 1e300,
                       "0.04", None],
    ("params", "T"): [1.0, 0.5, 2.0, 0.2, 1e-300, 0.0, -1.0, 1.01, "1",
                      None],
    ("params", "N"): [100, 200, 1, 2, 0, -1, 2.5, 1e300, 10**9, "100",
                      None],
    ("params", "L"): [0.01, 1e-4, 0.08, 1.0, 0.0, -0.01, 1e300],
    ("params", "epsilon"): [1e-3, 1.0, 25.0, 50.0, 1e-300, 0.0],
    ("capacity",): CAPACITIES,
    ("uq", "distribution"): ["uniform", "beta", {"name": "beta", "alpha": 2,
                                                 "beta": 3}, "x", 1],
}
FIXED = {("params", "dt"), ("params", "T"), ("params", "N")}


def _leaves(doc, path=()):
    if isinstance(doc, dict):
        if path:
            yield path
        for key, value in doc.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(doc, list):
        yield path
        for i, value in enumerate(doc):
            yield from _leaves(value, path + (i,))
    else:
        yield path


def _values(path):
    if path in VALUES:
        return VALUES[path]
    if path[-1:] == ("value",):
        return [0.0, 1e-13, 0.15, 1.0, 50.0, 1e300, -0.1, "x"]
    if path[-1:] == ("x_lt",):
        return [0.0, 4.0, -4.0, 10.0, "x", None]
    return ANY


@st.composite
def scenarios(draw):
    doc = copy.deepcopy(BASE)
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(sorted(_leaves(doc), key=repr)))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "replace", "delete",
                                       "extra"]))
        if action == "delete" and path not in FIXED:
            del parent[path[-1]]
        elif action == "extra" and isinstance(parent, dict):
            parent["typo"] = 1
        else:
            # a copy: a later mutation must not reach into the pool
            parent[path[-1]] = copy.deepcopy(
                draw(st.sampled_from(_values(path))))
    return doc


# flag values that argparse accepts, valid or not for the run
FLAGS = {
    "--model": ["macro1", "macro2", "micro", "particle"],
    "--times": ["0,0.5", "0.04", "1", "0.013", "0,0", "x", "2", "-1", "nan"],
    "--models": ["macro2,particle", "macro1,micro", "nope", ""],
    "--samples": ["1", "4", "0", "-1"],
    "--nodes": ["1", "3", "0"],
    "--order": ["0", "2", "-1"],
    "--seed": ["0", "3", "-1"],
    "--threads": ["0", "2", "-1"],
    "--accident-size": ["1.0", "2.5", "0", "-1", "1e300", "nan", "inf"],
    "--micro-speed": ["linear", "equilibrium"],
}


@st.composite
def command_lines(draw):
    """A valid command line for the base scenario, with up to two of its
    flags replaced, added or dropped."""
    command = draw(st.sampled_from(["simulate", "compare", "uq mc", "uq pce",
                                    "uq convergence"]))
    if command == "simulate":
        model = draw(st.sampled_from(FLAGS["--model"]))
        flags = {"--model": model, "--accident-size": "1.5"}
        if model == "micro":
            flags["--micro-speed"] = draw(st.sampled_from(["linear",
                                                           "equilibrium"]))
    elif command == "compare":
        flags = {"--models": draw(st.sampled_from(
            ["macro2,particle", "macro1,micro",
             "macro1,macro2,micro,particle"])), "--accident-size": "1.5"}
    else:
        # each uq mode gets the counts it reads
        flags = {"--model": draw(st.sampled_from(["macro2", "micro"]))}
        if command == "uq pce":
            nodes = draw(st.integers(1, 3))
            flags["--nodes"] = str(nodes)
            flags["--order"] = str(draw(st.integers(0, nodes - 1)))
        else:
            flags["--samples"] = str(draw(st.integers(1, 4)))
    flags["--seed"] = str(draw(st.integers(0, 5)))
    # what argparse itself would reject: a flag the command lacks, a uq
    # model it does not offer, or no --models for compare
    foreign = {"simulate": {"--models", "--samples", "--nodes", "--order"},
           "compare": {"--model", "--times", "--samples", "--nodes",
                       "--order"}}.get(command, {"--times", "--models"})
    for _ in range(draw(st.integers(0, 2))):
        flag = draw(st.sampled_from(sorted(set(FLAGS) - foreign)))
        values = FLAGS[flag]
        if command.startswith("uq") and flag == "--model":
            values = ["macro2", "micro"]
        if flag != "--models":
            values = [None] + values
        value = draw(st.sampled_from(values))
        if value is None:
            flags.pop(flag, None)
        else:
            flags[flag] = value
    argv = command.split()
    for flag, value in flags.items():
        argv += [flag, value]
    return argv


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(), command_lines())
def test_mutated_inputs_exit_with_a_known_code(doc, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + ["--scenario", str(path),
                                "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3, 4)
