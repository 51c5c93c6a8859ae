"""Benchmark a change against its parent and write BENCH_<tag>.json.

    python3 tools/bench_pair.py --parent DIR --change DIR --tag TAG \\
        --workload convergence_macro2:10:1201 --workload convergence_micro:5:1301 \\
        [--claim WORKLOAD:METRIC] [--trace WORKLOAD:SEED] [--seconds 25]

DIR is a checkout of each commit (a git clone, so that its SHA can be read).
Both get `python -m compileall -q src` first, so that no job re-compiles a
module whose bytecode is stale. Each --workload NAME:PAIRS:FIRST_SEED runs
`python3 perfbench/run.py --workload NAME --seed S --seconds SECONDS
--trace 0` in both checkouts for the seeds FIRST_SEED .. FIRST_SEED +
PAIRS - 1, one pair per seed, alternating which checkout runs first. Each
value is the metric of the run's last JSON line (itself a median over the
run's jobs); the quartiles are statistics.quantiles(n=4,
method='inclusive') over the per-seed values. --trace adds one traced run
(--trace 1) per checkout on that workload and seed. The JSON file is
rewritten after every pair, so an interrupted campaign keeps the pairs it
finished. The run's own outputs go to each checkout's .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def sha(checkout: Path) -> str:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def bench(checkout: Path, workload: str, seed: int, seconds: float,
          trace: int) -> dict:
    """The last JSON line of one perfbench run in checkout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace",
         str(trace)], cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {checkout} ({workload}, "
                         f"seed {seed}, exit {proc.returncode}):\n"
                         f"{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3}


def summarize(runs: dict) -> dict:
    """Per metric: both sides' values, medians and quartiles, the pairs in
    which the change is lower, its relative median change and the parent's
    interquartile range."""
    seeds = sorted(runs["change"])
    metrics = {}
    for name, m in runs["parent"][seeds[0]]["metrics"].items():
        sides = {side: spread([runs[side][s]["metrics"][name]["value"]
                               for s in seeds]) for side in SIDES}
        parent, change = sides["parent"], sides["change"]
        metrics[name] = {
            "unit": m["unit"], **sides,
            "change_lower_in_pairs": sum(
                c < p for p, c in zip(parent["values"], change["values"])),
            "median_change_rel": change["median"] / parent["median"] - 1.0,
            "parent_iqr": parent["q3"] - parent["q1"]}
    return {"seeds": seeds, "pairs": len(seeds), "metrics": metrics,
            "runs": {side: {str(s): {k: runs[side][s][k] for k in
                                     ("correct", "attempted", "failed")}
                            for s in seeds} for side in SIDES}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--tag", required=True)
    ap.add_argument("--workload", action="append", required=True,
                    help="NAME:PAIRS:FIRST_SEED")
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims")
    ap.add_argument("--trace", help="WORKLOAD:SEED of one traced pair")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--out", type=Path,
                    help="output file (default BENCH_<tag>.json here)")
    args = ap.parse_args()

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                       cwd=tree, check=True)
    out_path = args.out or Path(f"BENCH_{args.tag}.json")
    doc = {
        "tag": args.tag,
        "parent_sha": sha(trees["parent"]),
        "change_sha": sha(trees["change"]),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "host": f"{platform.system()} {platform.machine()}, "
                f"{os.cpu_count()} CPUs",
        "method": f"python3 perfbench/run.py --workload W --seed S "
                  f"--seconds {args.seconds:g} --trace 0, run from the root "
                  f"of a checkout of each commit after `python -m "
                  f"compileall src` (tools/bench_pair.py); parent and "
                  f"change alternate which runs first, one pair per seed; "
                  f"each value is the last JSON line's metric (itself a "
                  f"median over the run's jobs). Quartiles: "
                  f"statistics.quantiles(n=4, method='inclusive') over the "
                  f"per-seed values.",
        "workloads": {},
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        doc["claimed"] = {"workload": workload, "metric": metric}

    def write():
        out_path.write_text(json.dumps(doc, indent=1) + "\n")

    for spec in args.workload:
        name, pairs, first = spec.split(":")
        runs = {side: {} for side in SIDES}
        for i, seed in enumerate(range(int(first), int(first) + int(pairs))):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                runs[side][seed] = bench(trees[side], name, seed,
                                         args.seconds, 0)
            doc["workloads"][name] = summarize(runs)
            write()
            job_s = [runs[side][seed]["metrics"]["job_s"]["value"]
                     for side in SIDES]
            print(f"{name} seed {seed}: job_s {job_s[0]:.3f} -> "
                  f"{job_s[1]:.3f}", flush=True)

    if args.trace:
        name, seed = args.trace.split(":")
        traced = {side: bench(trees[side], name, int(seed), args.seconds, 1)
                  for side in SIDES}
        doc["per_layer_trace"] = {
            "workload": name, "seed": int(seed),
            "command": f"python3 perfbench/run.py --workload {name} --seed "
                       f"{seed} --seconds {args.seconds:g} --trace 1",
            "note": "one traced run per commit; each value is the median "
                    "over that run's traced jobs",
            "metrics": {
                k: {"unit": m["unit"], "parent": m["value"],
                    "change": traced["change"]["metrics"][k]["value"]}
                for k, m in traced["parent"]["metrics"].items()}}
        write()
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
