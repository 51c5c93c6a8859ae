"""Benchmark driver: runs one workload through the trafficflow CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each job runs in a fresh child interpreter
(child.py), one at a time, with PYTHONPATH pointing at ./src. Jobs repeat
until S seconds have passed (at least MIN_JOBS of them); the outputs of the
last successful job are then checked (workloads.py). The last line of
stdout is one JSON object: correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics, medians over the jobs:
  job_s         wall time of cli.main(argv), parse to last file written
  setup_s       child start until trafficflow.cli is imported
  peak_rss_mib  peak resident memory of the child
--trace 1 alternates untraced and traced jobs and reports the per-layer
metrics of the traced ones (medians), plus trace.overhead_s, the traced
minus the untraced median job_s.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import UNITS, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
RUNS = ROOT / ".perfbench_runs"
MIN_JOBS = 3
SETUP_ONLY = 4  # extra import-only children, more samples for setup_s
CHILD_TIMEOUT_S = 150


class Runner:
    """Starts child jobs one at a time and waits for each to end."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.count = 0

    def job(self, argv, traced=False) -> dict | None:
        self.count += 1
        result = self.run_dir / f"job{self.count}.json"
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(result),
             repr(t_spawn), "1" if traced else "0", *argv],
            env=self.env, stdout=subprocess.DEVNULL)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"job timed out: {argv}", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result.exists():
            print(f"child exited {proc.returncode}: {argv}", file=sys.stderr)
            return None
        return json.loads(result.read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "trafficflow" / "cli.py").is_file():
        print("no src/trafficflow here: run from the repository root",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    run_dir = RUNS / f"{wl.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    scenario = run_dir / "scenario.json"
    scenario.write_text(json.dumps(wl.scenario, indent=1))
    runner = Runner(run_dir)

    if runner.job([]) is None:
        print("cannot import trafficflow.cli", file=sys.stderr)
        return 2

    # Untraced and traced jobs alternate in a trace run.
    kinds = [False, True] if args.trace else [False]
    jobs = {k: [] for k in kinds}
    attempted = failed = 0
    last_ok = None
    t_start = time.monotonic()
    while (attempted < MIN_JOBS * len(kinds)
           or time.monotonic() - t_start < args.seconds):
        for traced in kinds:
            out = run_dir / f"out{attempted}"
            attempted += 1
            res = runner.job(wl.argv(str(scenario), str(out), args.seed),
                             traced)
            if res is not None:
                jobs[traced].append(res)
            if res is None or res["rc"] != 0:
                failed += 1
                shutil.rmtree(out, ignore_errors=True)
                continue
            if last_ok is not None:
                shutil.rmtree(last_ok, ignore_errors=True)
            last_ok = out

    if not all(jobs.values()):
        print("no job produced a result", file=sys.stderr)
        return 1
    setups = [r["setup_s"] for r in jobs[False]]
    if not args.trace:
        for _ in range(SETUP_ONLY):
            res = runner.job([])
            if res is not None:
                setups.append(res["setup_s"])

    correct = last_ok is not None
    if correct:
        try:
            problems = wl.check(
                last_ok, args.seed,
                lambda argv: (runner.job(argv) or {"rc": -1})["rc"])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        correct = not problems

    def med(key, traced=False):
        return statistics.median(r[key] for r in jobs[traced])

    if args.trace:
        per_job = [layer_metrics(r["layers"]) for r in jobs[True]]
        metrics = {k: {"value": statistics.median(j[k] for j in per_job),
                       "unit": UNITS[k]} for k in UNITS}
        metrics["trace.overhead_s"] = {
            "value": med("job_s", True) - med("job_s"), "unit": "s"}
    else:
        metrics = {"job_s": {"value": med("job_s"), "unit": "s"},
                   "setup_s": {"value": statistics.median(setups),
                               "unit": "s"},
                   "peak_rss_mib": {"value": med("peak_rss_mib"),
                                    "unit": "MiB"}}
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    n_jobs = sum(len(v) for v in jobs.values())
    print(f"{wl.name} seed={args.seed}: {n_jobs} timed jobs, "
          f"{attempted} attempted, {failed} failed, correct={correct}")
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(summary, indent=1))
    for p in run_dir.iterdir():
        if p.is_dir():
            shutil.rmtree(p, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
