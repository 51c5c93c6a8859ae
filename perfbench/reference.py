"""Independent numpy solvers that the correctness checks compare against.

Written from the model equations, not from the package: nothing here imports
trafficflow. Closures: V(h) = h / (1 + h), p(rho) = (gamma / 2) eta rho,
follow-the-leader speed 1 - L / gap. Capacity: the accident drop on |x| <= Y.
"""

from __future__ import annotations

import numpy as np


def centers(doc: dict) -> np.ndarray:
    dom = doc["domain"]
    n = int(round((dom["xmax"] - dom["xmin"]) / dom["dx"]))
    return dom["xmin"] + (np.arange(n) + 0.5) * dom["dx"]


def profile(entries: list, x: np.ndarray) -> np.ndarray:
    """Piecewise-constant profile: entry j holds where x < x_lt[j]."""
    out = np.full(np.shape(x), float(entries[-1]["value"]))
    for e in reversed(entries):
        out = np.where(x < e["x_lt"], e["value"], out)
    return out


def capacity(doc: dict, x: np.ndarray, y: float) -> np.ndarray:
    cap = doc["capacity"]
    if cap["variant"] != "accident":
        raise ValueError(f"no reference capacity for {cap['variant']!r}")
    return np.where(np.abs(x) <= y, 1.0 - cap.get("drop", 0.4), 1.0)


def n_steps(doc: dict) -> int:
    par = doc["params"]
    n = par["T"] / par["dt"]
    if abs(n - round(n)) > 1e-9 * n:
        raise ValueError("benchmark scenarios keep T a multiple of dt")
    return int(round(n))


def _lf(q, f, lam):
    """Lax-Friedrichs average with central flux difference, periodic."""
    return (0.5 * (np.roll(q, 1) + np.roll(q, -1))
            - lam * (np.roll(f, -1) - np.roll(f, 1)))


def macro2(doc: dict, y: float) -> np.ndarray:
    """Second-order model to T in conservative form; returns rho.

    Advects the pair (rho, z) with z = rho (h + p(rho)) at speed c V(h),
    h = z / rho - p(rho), by Lax-Friedrichs. Without relaxation (a = 0).
    """
    par = doc["params"]
    if par.get("a", 0.0) != 0.0:
        raise ValueError("the reference has no relaxation source")
    dx, dt = doc["domain"]["dx"], par["dt"]
    kp = 0.5 * par["gamma"] * par["eta"]
    x = centers(doc)
    c = capacity(doc, x, y)
    rho = profile(doc["initial"]["rho"], x)
    z = rho * (profile(doc["initial"]["h"], x) + kp * rho)
    lam = dt / (2 * dx)
    for _ in range(n_steps(doc)):
        h = np.maximum(z / rho - kp * rho, 0.0)
        cv = c * h / (1.0 + h)
        rho, z = _lf(rho, cv * rho, lam), _lf(z, cv * z, lam)
    return rho


def micro(doc: dict, y: float) -> np.ndarray:
    """Follow-the-leader Euler run to T; returns the density on the grid.

    Vehicles start at equal increments of the integrated initial density;
    the density at a cell center is L / gap of the nearest vehicle behind it.
    """
    dom, par = doc["domain"], doc["params"]
    x_min, length = dom["xmin"], dom["xmax"] - dom["xmin"]
    n_veh, veh_len, dt = int(par["N"]), par["L"], par["dt"]

    # cumulative-mass inversion of the piecewise-constant initial density
    entries = doc["initial"]["rho"]
    edges = [x_min] + [e["x_lt"] for e in entries
                       if x_min < e["x_lt"] < dom["xmax"]] + [dom["xmax"]]
    edges = np.asarray(edges, dtype=float)
    dens = profile(entries, 0.5 * (edges[:-1] + edges[1:]))
    cum = np.concatenate([[0.0], np.cumsum(dens * np.diff(edges))])
    targets = np.arange(n_veh) * (cum[-1] / n_veh)
    seg = np.minimum(np.searchsorted(cum, targets, side="right") - 1,
                     len(dens) - 1)
    pos = edges[seg] + (targets - cum[seg]) / dens[seg]

    def gaps(p):
        return np.append(p[1:], p[0] + length) - p

    for _ in range(n_steps(doc)):
        wrapped = x_min + np.mod(pos - x_min, length)
        speed = np.maximum(1.0 - veh_len / gaps(pos), 0.0)
        pos = pos + dt * capacity(doc, wrapped, y) * speed

    xs = np.sort(x_min + np.mod(pos - x_min, length))
    rho_veh = veh_len / gaps(xs)
    behind = np.searchsorted(xs, centers(doc), side="right") - 1
    return rho_veh[behind]  # index -1 wraps to the last vehicle
