"""The benchmark's four workloads: their inputs (the seed reaches the
program as --seed) and the checks run on each job's outputs, outside the
timed region.

Each workload has a `name`, a `scenario` document, `argv(scenario, out,
seed)` giving the CLI arguments of one job, and `check(out, seed, run_cli)`
returning the failed checks; `run_cli(argv)` runs an untimed job and
returns its exit code. Checks compare with the independent solvers in
reference.py or with properties the methods must have, never with stored
outputs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import reference

INITIAL = {
    "rho": [{"x_lt": 0.0, "value": 0.15}, {"x_lt": 4.0, "value": 0.1}],
    "h": [{"x_lt": 0.0, "value": 0.8}, {"x_lt": 4.0, "value": 0.95}],
}
RAMP = {"variant": "piecewise_ramp", "c_low": 0.6, "x_left": -2.0,
        "x_right": 2.0, "delta": 0.1}


def _params(dt, T, N, a=0.0):
    return {"gamma": 0.5, "eta": 1e-2, "epsilon": 1e-3, "a": a, "dt": dt,
            "T": T, "N": N, "L": 1.0 / N}


def _domain(dx):
    return {"xmin": -4.0, "xmax": 4.0, "dx": dx}


# Accident of uniform half-width Y in [1, 3]. At dx = 1.6e-2 the grid
# resolves 125 accident footprints, so 512 samples repeat each about four
# times, as the 2000-sample acceptance job does at dx = 4e-3 (500 footprints).
ACCIDENT = {
    "domain": _domain(1.6e-2),
    "params": _params(dt=8e-3, T=0.8, N=1000),
    "capacity": {"variant": "accident", "drop": 0.4},
    "initial": INITIAL,
    "uq": {"distribution": "uniform"},
}
MC_SAMPLES = 512
PCE_NODES = [1, 3, 5, 7, 9]

# The paper's ramp scenario with 200k particles, short horizon.
COMPARE = {"domain": _domain(1e-2), "params": _params(2.5e-3, 0.25, 200_000),
           "capacity": RAMP, "initial": INITIAL}

# Fine grid, relaxation on, 51 snapshots on the step grid.
SNAPSHOT = {"domain": _domain(1e-3), "params": _params(1e-3, 2.0, 10_000, 1.0),
            "capacity": RAMP, "initial": INITIAL}
SNAPSHOT_TIMES = [f"{k * 0.04:g}" for k in range(51)]

# Relative L1 tolerance of the one-sample macro2 MC against the reference.
# The split and conservative forms differ by 2.9e-6 on this scenario; a
# sign flip of the pressure in the conservative flux moves it by 5.3e-5.
# The tolerance sits about four times from each.
MC1_TOL_MACRO2 = 1.2e-5
MC1_TOL_MICRO = 1e-9
MASS_TOL = 1e-10
PARTICLE_MACRO2_MAX_REL_L1 = 0.08


def _read(path: Path) -> dict:
    with open(path) as f:
        header = f.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, j] for j, name in enumerate(header)}


def _mass(rho, doc):
    return float(np.sum(rho) * doc["domain"]["dx"])


def _rel_l1(a, b, doc):
    return _mass(np.abs(a - b), doc) / _mass(np.abs(b), doc)


class Failures(list):
    def check(self, ok, msg):
        if not ok:
            self.append(msg)


class Convergence:
    scenario = ACCIDENT

    def __init__(self, model):
        self.model = model
        self.name = f"convergence_{model}"

    def argv(self, scenario, out, seed):
        return ["uq", "convergence", "--scenario", scenario, "--model",
                self.model, "--samples", str(MC_SAMPLES), "--seed", str(seed),
                "--out", out]

    def _reference(self, y):
        if self.model == "macro2":
            return reference.macro2(ACCIDENT, y)
        return reference.micro(ACCIDENT, y)

    def check(self, out, seed, run_cli):
        doc, fail = ACCIDENT, Failures()
        conv = _read(out / "convergence.csv")
        mc = _read(out / "mc_summary.csv")
        x = reference.centers(doc)
        fail.check(np.array_equal(mc["x"], x), "mc_summary grid")

        l2 = conv["l2_rho"]
        fail.check(list(conv["n"]) == PCE_NODES, "convergence node counts")
        fail.check(bool(np.all(np.diff(l2) < 0)),
                   f"L2 errors not strictly decreasing: {l2}")
        rate = -np.polyfit(np.log(conv["n"]), np.log(l2), 1)[0]
        fail.check(rate >= 1.5, f"convergence rate {rate:.3f} < 1.5")

        # one Gauss node sits at Y = 2: the n = 1 row is a plain run there
        ref2 = self._reference(2.0)
        want = float(np.sum((ref2 - mc["rho_mean"]) ** 2)
                     * doc["domain"]["dx"])
        fail.check(abs(l2[0] - want) <= 1e-6 * want,
                   f"n=1 L2 {l2[0]!r} != reference {want!r}")

        for q in ("rho", "h"):
            fail.check(bool(np.all(mc[f"{q}_q05"] <= mc[f"{q}_median"]))
                       and bool(np.all(mc[f"{q}_median"] <= mc[f"{q}_q95"])),
                       f"{q}: q05 <= median <= q95 violated")
        if self.model == "macro2":
            m0 = _mass(reference.profile(doc["initial"]["rho"], x), doc)
            m = _mass(mc["rho_mean"], doc)
            fail.check(abs(m - m0) <= MASS_TOL * m0,
                       f"MC mean mass {m!r} != initial {m0!r}")

        # one-sample MC against the reference at that sample's Y
        one = out.parent / (out.name + "_mc1")
        rc = run_cli(["uq", "mc", "--scenario",
                      str(out.parent / "scenario.json"), "--model",
                      self.model, "--samples", "1", "--seed", str(seed),
                      "--out", str(one)])
        fail.check(rc == 0, f"one-sample MC exited {rc}")
        if rc == 0:
            y = 1.0 + 2.0 * np.random.default_rng([seed, 0]).random()
            got = _read(one / "mc_summary.csv")["rho_mean"]
            err = _rel_l1(got, self._reference(y), doc)
            tol = MC1_TOL_MACRO2 if self.model == "macro2" else MC1_TOL_MICRO
            fail.check(err <= tol, f"one-sample MC at Y={y!r}: relative L1 "
                                   f"{err:.3e} > {tol:.1e}")
        return fail


class Compare:
    name = "compare_particle_macro2"
    scenario = COMPARE

    def argv(self, scenario, out, seed):
        return ["compare", "--scenario", scenario, "--models",
                "particle,macro2", "--seed", str(seed), "--out", out]

    def check(self, out, seed, run_cli):
        doc, fail = COMPARE, Failures()
        T = doc["params"]["T"]
        final = {}
        for m in ("particle", "macro2"):
            f0 = _read(out / f"fields_{m}_t0.csv")
            fT = _read(out / f"fields_{m}_t{T:g}.csv")
            m0, mT = _mass(f0["rho"], doc), _mass(fT["rho"], doc)
            fail.check(abs(mT - m0) <= MASS_TOL * m0,
                       f"{m}: mass {mT!r} at T != {m0!r} at t=0")
            final[m] = fT["rho"]
        rows = (out / "l1_distances.csv").read_text().splitlines()
        got = [r.split(",") for r in rows if r.startswith("particle,macro2,")]
        fail.check(len(got) == 1, "no particle,macro2 row in l1_distances")
        if got:
            l1, rel = float(got[0][2]), float(got[0][3])
            want = _mass(np.abs(final["particle"] - final["macro2"]), doc)
            fail.check(abs(l1 - want) <= 1e-12 * want,
                       f"L1 {l1!r} != recomputed {want!r}")
            want_rel = want / _mass(np.abs(final["particle"]), doc)
            fail.check(abs(rel - want_rel) <= 1e-12 * want_rel,
                       f"relative L1 {rel!r} != recomputed {want_rel!r}")
            fail.check(want_rel <= PARTICLE_MACRO2_MAX_REL_L1,
                       f"particle-macro2 relative L1 {want_rel:.4f} > 8%")
        return fail


class Snapshots:
    name = "simulate_macro2_snapshots"
    scenario = SNAPSHOT

    def argv(self, scenario, out, seed):
        return ["simulate", "--scenario", scenario, "--model", "macro2",
                "--times", ",".join(SNAPSHOT_TIMES), "--seed", str(seed),
                "--out", out]

    def check(self, out, seed, run_cli):
        doc, fail = SNAPSHOT, Failures()
        want = {f"fields_t{float(t):g}.csv" for t in SNAPSHOT_TIMES}
        have = {p.name for p in out.glob("fields_t*.csv")}
        fail.check(have == want, f"snapshot files: missing "
                   f"{sorted(want - have)}, extra {sorted(have - want)}")
        x = reference.centers(doc)
        rho0 = reference.profile(doc["initial"]["rho"], x)
        h0 = reference.profile(doc["initial"]["h"], x)
        f0 = _read(out / "fields_t0.csv")
        fail.check(np.array_equal(f0["rho"], rho0)
                   and np.array_equal(f0["h"], h0),
                   "t=0 snapshot differs from the initial profile")
        m0 = _mass(rho0, doc)
        for name in sorted(want & have):
            m = _mass(_read(out / name)["rho"], doc)
            fail.check(abs(m - m0) <= MASS_TOL * m0,
                       f"{name}: mass {m!r} != initial {m0!r}")
        return fail


WORKLOADS = {w.name: w for w in (Convergence("macro2"), Convergence("micro"),
                                 Compare(), Snapshots())}
