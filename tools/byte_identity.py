"""Run a fixed list of CLI commands in two checkouts and compare what they
leave: exit code, stderr and every output file, byte for byte.

    python3 tools/byte_identity.py --parent DIR --change DIR --work DIR \\
        [--only NAME ...]

DIR is a checkout of each side; the package is run from its src/ with
`python -m trafficflow.cli`. Everything is written under --work (keep it
outside both checkouts): work/scenarios/ holds the scenario files, and
work/<side>/<name>/ the outputs of each command. The list covers the
benchmark's commands (taken from perfbench/workloads.py of --change),
`uq mc` and `uq convergence` for macro2 and micro at --threads 1 and 7,
`uq mc` for both under a Beta(5, 2) law, `uq pce` for both at (nodes,
order) = (1, 0), (3, 1), (5, 4), (9, 8) and (9, 0) and a = 0 and 1 ((9, 0)
is the scenario default, and the one run whose expectation takes the
mode-0 point value where a quadrature average would differ in the last
bits) and under a Beta(1, 1) law, `simulate` for all four models,
`simulate --model particle` on a road of length 1 that its particles lap
about four times through an accident, with relaxation on
(`simulate_particle_laps`), `compare` on the accident, ramp and constant
capacities at a = 0 and 1,
one run per model that exits 3 (and a Galerkin step, a convergence
study and a macro2 snapshot with a negative headway that do), runs that
exit 2 (the particle dt bound, in `simulate` and after macro2 in
`compare`; the CFL bound after the particle model in `compare`; the
Euler bound in `uq pce --model micro`; a uniform law given an alpha),
and `analyze eigen`, `analyze curves` for families 1 to 3 and `analyze
rh`, which take no scenario. In stderr the output root and the checkout
of each side are replaced by <root> and <checkout>, so that the two
sides can be compared. Prints one line per command; exits 1 if a command
differs in exit code or files, or in stderr while it exits 0 on both
sides.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import subprocess
import sys
from pathlib import Path

INITIAL = {
    "rho": [{"x_lt": 0.0, "value": 0.15}, {"x_lt": 4.0, "value": 0.1}],
    "h": [{"x_lt": 0.0, "value": 0.8}, {"x_lt": 4.0, "value": 0.95}],
}
BETA52 = {"distribution": {"name": "beta", "alpha": 5, "beta": 2}}
BETA11 = {"distribution": {"name": "beta", "alpha": 1, "beta": 1}}
CAPACITIES = {
    "accident": {"variant": "accident", "drop": 0.4},
    "ramp": {"variant": "piecewise_ramp", "c_low": 0.6, "x_left": -2.0,
             "x_right": 2.0, "delta": 0.1},
    "constant": {"variant": "constant", "c0": 0.8},
}
SIMULATE = {
    "domain": {"xmin": -4.0, "xmax": 4.0, "dx": 0.02},
    "params": {"gamma": 0.5, "eta": 0.01, "epsilon": 0.001, "a": 1.0,
               "dt": 0.002, "T": 1.0, "N": 2000, "L": 0.0005},
    "capacity": CAPACITIES["ramp"],
    "initial": INITIAL,
}


def _variant(base, **changes):
    """A copy of the scenario base with the sections in changes updated
    key by key (a capacity replaces the whole section)."""
    doc = copy.deepcopy(base)
    for section, values in changes.items():
        if section == "capacity":
            doc[section] = values
        else:
            doc[section].update(values)
    return doc


def commands(change: Path) -> list:
    """[(name, scenario document or None, argv without --scenario and
    --out)]."""
    sys.path.insert(0, str(change / "perfbench"))
    from workloads import ACCIDENT, MC_SAMPLES, WORKLOADS

    runs = []
    for name, w in WORKLOADS.items():
        argv = w.argv("SCENARIO", "OUT", 1)
        argv = [a for a in argv if a not in ("SCENARIO", "OUT")]
        argv = [a for a in argv if a not in ("--scenario", "--out")]
        runs.append((f"bench_{name}", w.scenario, argv))
    for model in ("macro2", "micro"):
        runs.append((f"bench_mc1_{model}", ACCIDENT,
                     ["uq", "mc", "--model", model, "--samples", "1",
                      "--seed", "1"]))
        for mode in ("mc", "convergence"):
            for threads in ("1", "7"):
                runs.append((f"uq_{mode}_{model}_threads{threads}", ACCIDENT,
                             ["uq", mode, "--model", model, "--samples",
                              str(MC_SAMPLES), "--seed", "2", "--threads",
                              threads]))
        for a in (0.0, 1.0):
            for nodes, order in ((1, 0), (3, 1), (5, 4), (9, 8), (9, 0)):
                runs.append((f"uq_pce_{model}_a{a:g}_n{nodes}_k{order}",
                             _variant(ACCIDENT, params={"a": a}),
                             ["uq", "pce", "--model", model, "--nodes",
                              str(nodes), "--order", str(order)]))
        # the gamma-ratio draws of a beta law, and a flat beta law, which
        # is the uniform one and runs the Galerkin path
        runs.append((f"uq_mc_{model}_beta52", _variant(ACCIDENT, uq=BETA52),
                     ["uq", "mc", "--model", model, "--samples",
                      str(MC_SAMPLES), "--seed", "2"]))
        runs.append((f"uq_pce_{model}_beta11", _variant(ACCIDENT, uq=BETA11),
                     ["uq", "pce", "--model", model, "--nodes", "3",
                      "--order", "2"]))
    for model in ("macro1", "macro2", "micro", "particle"):
        runs.append((f"simulate_{model}", SIMULATE,
                     ["simulate", "--model", model, "--seed", "3"]))
    for cap, spec in CAPACITIES.items():
        for a in (0.0, 1.0):
            extra = ["--accident-size", "1.5"] if cap == "accident" else []
            runs.append((f"compare_{cap}_a{a:g}",
                         _variant(SIMULATE, capacity=spec,
                                  params={"a": a}),
                         ["compare", "--models",
                          "macro1,macro2,micro,particle", "--seed", "4"]
                         + extra))
    # a road of length 1 that each particle laps about four times, through
    # an accident at its middle, with relaxation on
    runs.append(("simulate_particle_laps",
                 _variant(SIMULATE, domain={"xmin": -0.5, "xmax": 0.5},
                          capacity=CAPACITIES["accident"],
                          params={"a": 1.0, "epsilon": 1.0, "dt": 0.004,
                                  "T": 8.0}),
                 ["simulate", "--model", "particle", "--seed", "5",
                  "--accident-size", "0.2"]))

    # runs that exit 3: a density whose neighbour sum overflows (macro1), an
    # empty half of the road (macro2 and its Galerkin step), a near-empty
    # road from x = 2 on that the accident's exit drains at the upper
    # Galerkin nodes, though not in the one Monte Carlo sample (the
    # convergence study), a jam that a fast follower runs into (micro; N L
    # is the mass, so rho = L / gap), and a headway that interaction and
    # relaxation in one step drive below zero (particle); and a queue at a
    # ramp whose macro2 headway z/rho - p(rho) turns negative, which only
    # the snapshot at t = 1 sees
    huge = {"rho": [{"x_lt": 4.0, "value": 1e308}], "h": INITIAL["h"]}
    drained = {"rho": [{"x_lt": 2.0, "value": 0.15},
                       {"x_lt": 4.0, "value": 1.5e-12}], "h": INITIAL["h"]}
    empty = {"rho": [{"x_lt": 0.0, "value": 0.0},
                     {"x_lt": 4.0, "value": 0.1}], "h": INITIAL["h"]}
    jam = {"rho": [{"x_lt": 0.0, "value": 0.05},
                   {"x_lt": 4.0, "value": 1.0}], "h": INITIAL["h"]}
    split = {"rho": INITIAL["rho"], "h": [{"x_lt": 0.0, "value": 50.0},
                                          {"x_lt": 4.0, "value": 0.0}]}
    runs += [
        ("exit3_macro1", _variant(SIMULATE, initial=huge),
         ["simulate", "--model", "macro1"]),
        ("exit3_macro2", _variant(SIMULATE, initial=empty),
         ["simulate", "--model", "macro2"]),
        ("exit3_pce_macro2",
         _variant(ACCIDENT, initial=empty), ["uq", "pce", "--model",
                                             "macro2", "--nodes", "3",
                                             "--order", "2"]),
        ("exit3_convergence_macro2", _variant(ACCIDENT, initial=drained),
         ["uq", "convergence", "--model", "macro2", "--samples", "1",
          "--seed", "0"]),
        ("exit3_macro2_headway", {
            "domain": {"xmin": -1.0, "xmax": 1.0, "dx": 0.01},
            "params": {"gamma": 1.0, "eta": 1.0, "epsilon": 1.0, "a": 0.0,
                       "dt": 0.01, "T": 2.0},
            "capacity": {"variant": "piecewise_ramp", "c_low": 0.2,
                         "x_left": -0.5, "x_right": 0.5, "delta": 0.1},
            "initial": {"rho": [{"x_lt": 0.0, "value": 0.5},
                                {"x_lt": 1.0, "value": 5.0}],
                        "h": [{"x_lt": 0.3, "value": 0.05},
                              {"x_lt": 1.0, "value": 2.0}]}},
         ["simulate", "--model", "macro2"]),
        ("exit3_micro", _variant(SIMULATE, initial=jam,
                                 params={"N": 100, "L": 0.042, "dt": 1.0,
                                         "T": 2.0}),
         ["simulate", "--model", "micro"]),
        ("exit3_particle",
         _variant(SIMULATE, initial=split, capacity=CAPACITIES["constant"]
                  | {"c0": 1.0},
                  params={"gamma": 1.0, "a": 1.0, "epsilon": 1.0,
                          "eta": 0.25, "dt": 1.0, "T": 2.0}),
         ["simulate", "--model", "particle"]),
        ("exit2_particle_dt", _variant(SIMULATE, params={"epsilon": 1000.0}),
         ["simulate", "--model", "particle"]),
        ("exit2_compare_particle_dt",
         _variant(SIMULATE, params={"epsilon": 1000.0}),
         ["compare", "--models", "macro2,particle"]),
        ("exit2_compare_cfl", _variant(SIMULATE, params={"dt": 0.04}),
         ["compare", "--models", "particle,macro2"]),
        ("exit2_pce_micro_euler_dt",
         _variant(ACCIDENT, domain={"dx": 0.5},
                  params={"dt": 2.0, "T": 4.0, "N": 20, "L": 1e-3}),
         ["uq", "pce", "--model", "micro"]),
        ("exit2_uq_uniform_alpha",
         _variant(ACCIDENT, uq={"distribution": {"name": "uniform",
                                                 "alpha": 5}}),
         ["uq", "mc", "--model", "macro2", "--samples", "16"]),
    ]
    state = ["--rho", "0.15", "--h", "0.8", "--c", "0.6"]
    runs.append(("analyze_eigen", None, ["analyze", "eigen", *state]))
    for family in ("1", "2", "3"):
        runs.append((f"analyze_curves_family{family}", None,
                     ["analyze", "curves", *state, "--family", family,
                      "--sigma-max", "0.5", "--n-steps", "200"]))
    runs.append(("analyze_rh", None,
                 ["analyze", "rh", *state, "--rho-right", "0.1",
                  "--h-right", "0.95", "--c-right", "1.0", "--speed",
                  "0.3"]))
    return runs


def run(checkout: Path, root: Path, name: str, scenario: Path | None,
        argv: list) -> dict:
    out = root / name
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    if scenario is not None:
        argv = [*argv, "--scenario", str(scenario)]
    proc = subprocess.run(
        [sys.executable, "-m", "trafficflow.cli", *argv, "--out", str(out)],
        cwd=root, env=env, capture_output=True)
    files = {}
    if out.exists():
        files = {str(p.relative_to(out)): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
    stderr = proc.stderr.replace(str(root).encode(), b"<root>").replace(
        str(checkout).encode(), b"<checkout>")
    return {"code": proc.returncode, "stderr": stderr, "files": files}


def compare(a: dict, b: dict) -> list:
    diffs = []
    if a["code"] != b["code"]:
        diffs.append(f"exit {a['code']} vs {b['code']}")
    if a["stderr"] != b["stderr"]:
        diffs.append("stderr")
    names = set(a["files"]) | set(b["files"])
    changed = sorted(n for n in names
                     if a["files"].get(n) != b["files"].get(n))
    if changed:
        diffs.append("files " + ", ".join(changed))
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--only", nargs="*", help="run these commands only")
    args = parser.parse_args(argv)
    work = args.work.resolve()
    (work / "scenarios").mkdir(parents=True, exist_ok=True)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    failed = False
    for name, doc, cli in commands(sides["change"]):
        if args.only and name not in args.only:
            continue
        scenario = None
        if doc is not None:
            scenario = work / "scenarios" / f"{name}.json"
            scenario.write_text(json.dumps(doc))
        res = {}
        for side, checkout in sides.items():
            root = work / side
            root.mkdir(exist_ok=True)
            res[side] = run(checkout, root, name, scenario, cli)
        diffs = compare(res["parent"], res["change"])
        codes = (res["parent"]["code"], res["change"]["code"])
        fatal = [d for d in diffs if d != "stderr" or codes == (0, 0)]
        failed |= bool(fatal)
        status = "same" if not diffs else "DIFFERS: " + "; ".join(diffs)
        print(f"{name} (exit {codes[1]}): {status}", flush=True)
        if "stderr" in diffs:
            for side in sides:
                lines = res[side]["stderr"].decode(errors="replace")
                print(f"    {side}: {(lines.splitlines() or [''])[-1]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
