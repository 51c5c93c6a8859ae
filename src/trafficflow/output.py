"""CSV / JSON artifact writers. Numbers are serialized with repr so that a
round-trip through the files is lossless.

The CSV writers format each distinct float64 bit pattern of a column once
and spread the text back to the rows through np.unique's inverse. Equal
bits are the same float, so each cell gets the text repr(float(v)) would
give it; the dedupe is by bits, not by value, which keeps 0.0 and -0.0
apart. Lax-Friedrichs fields keep their constant regions exact, so only
about a quarter of a snapshot's density or headway values are distinct.
The text of a grid's cell centres is cached for the last grid written, so
a series of snapshots formats its x column once.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from .core import Grid1D, MacroField
from .uq import ConvergenceResult, StatSummary


def _fmt(x: float) -> str:
    return repr(float(x))


def _column_text(column, end: str = "") -> list:
    """_fmt(v) + end for each v of a 1-D column, with repr called once per
    distinct bit pattern (repr of the Python floats tolist() gives is
    _fmt's text)."""
    column = np.ascontiguousarray(column, dtype=float)
    _, first, inverse = np.unique(column.view(np.int64), return_index=True,
                                  return_inverse=True)
    text = [repr(v) + end for v in column[first].tolist()]
    return list(map(text.__getitem__, inverse.ravel().tolist()))


@functools.lru_cache(maxsize=1)
def _centers_text(grid: Grid1D) -> tuple:
    """Text of the grid's cell centres; equal grids have bit-identical
    centres, so the last grid's text serves every snapshot on it (a tuple,
    since every caller shares it)."""
    return tuple(_column_text(grid.centers))


def _write_rows(path: Path, header: list, columns: list,
                grid: Grid1D | None = None) -> None:
    """One row per cell; a grid puts its cell centres first."""
    *lead, last = columns
    texts = [_column_text(c) for c in lead] + [_column_text(last, "\n")]
    if grid is not None:
        texts.insert(0, _centers_text(grid))
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(map(",".join, zip(*texts)))


def fields_filename(t: float) -> str:
    return f"fields_t{t:g}.csv"


def write_fields_csv(path, field: MacroField) -> None:
    _write_rows(Path(path), ["x", "rho", "h"], [field.rho, field.h],
                field.grid)


def read_fields_csv(path, grid: Grid1D) -> MacroField:
    rows = Path(path).read_text().strip().splitlines()
    data = np.array([[float(v) for v in line.split(",")] for line in rows[1:]])
    return MacroField(rho=data[:, 1], h=data[:, 2], grid=grid)


def write_stats_csv(path, stats: StatSummary) -> None:
    _write_rows(Path(path),
                ["x", "rho_mean", "rho_median", "rho_q05", "rho_q95",
                 "h_mean", "h_median", "h_q05", "h_q95"],
                [stats.rho_mean, stats.rho_median, stats.rho_q05,
                 stats.rho_q95, stats.h_mean, stats.h_median, stats.h_q05,
                 stats.h_q95], stats.grid)


def write_convergence_csv(path, result: ConvergenceResult) -> None:
    lines = ["n,l2_rho,l2_h"]
    for n, er, eh in zip(result.n_nodes, result.l2_rho, result.l2_h):
        lines.append(f"{int(n)},{_fmt(er)},{_fmt(eh)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_metadata(path, meta: dict) -> None:
    Path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
