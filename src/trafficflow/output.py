"""CSV / JSON artifact writers. Numbers are serialized with repr so that a
round-trip through the files is lossless."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import Grid1D, MacroField
from .uq import ConvergenceResult, StatSummary


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_rows(path: Path, header: list, columns: list) -> None:
    # repr of the Python floats that tolist() gives is _fmt's text
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def fields_filename(t: float) -> str:
    return f"fields_t{t:g}.csv"


def write_fields_csv(path, field: MacroField) -> None:
    _write_rows(Path(path), ["x", "rho", "h"],
                [field.grid.centers, field.rho, field.h])


def read_fields_csv(path, grid: Grid1D) -> MacroField:
    rows = Path(path).read_text().strip().splitlines()
    data = np.array([[float(v) for v in line.split(",")] for line in rows[1:]])
    return MacroField(rho=data[:, 1], h=data[:, 2], grid=grid)


def write_stats_csv(path, stats: StatSummary) -> None:
    _write_rows(Path(path),
                ["x", "rho_mean", "rho_median", "rho_q05", "rho_q95",
                 "h_mean", "h_median", "h_q05", "h_q95"],
                [stats.grid.centers, stats.rho_mean, stats.rho_median,
                 stats.rho_q05, stats.rho_q95, stats.h_mean, stats.h_median,
                 stats.h_q05, stats.h_q95])


def write_convergence_csv(path, result: ConvergenceResult) -> None:
    lines = ["n,l2_rho,l2_h"]
    for n, er, eh in zip(result.n_nodes, result.l2_rho, result.l2_h):
        lines.append(f"{int(n)},{_fmt(er)},{_fmt(eh)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_metadata(path, meta: dict) -> None:
    Path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
