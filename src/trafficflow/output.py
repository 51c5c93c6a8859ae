"""CSV / JSON artifact writers. Numbers are serialized with repr so that a
round-trip through the files is lossless.

The CSV writers format each distinct float64 bit pattern of a column once
(map(repr, ...), so the calls run in C) and spread the text back to the
rows through np.unique's inverse with one operator.itemgetter call. Equal
bits are the same float, so each cell gets the text repr(float(v)) would
give it; the dedupe is by bits, not by value, which keeps 0.0 and -0.0
apart. Lax-Friedrichs fields keep their constant regions exact, so only
about a quarter of a snapshot's density or headway values are distinct.
The text of a grid's cell centres is cached for the last grid written, so
a series of snapshots formats its x column once.

Rows are assembled a block of BLOCK_ROWS at a time: the column texts are
slice-assigned into one list that interleaves them with the "," and "\n"
separators, and the list is joined into one string and written. A block
bounds the text alive at once; one join per block replaces one join per
row.
"""

from __future__ import annotations

import functools
import json
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import Grid1D, MacroField
from .uq import ConvergenceResult, StatSummary

BLOCK_ROWS = 1024  # rows joined into one string and written at a time


def _fmt(x: float) -> str:
    return repr(float(x))


def _column_text(column) -> tuple:
    """_fmt(v) for each v of a 1-D column, with repr called once per
    distinct bit pattern (repr of the Python floats tolist() gives is
    _fmt's text)."""
    column = np.ascontiguousarray(column, dtype=float)
    _, first, inverse = np.unique(column.view(np.int64), return_index=True,
                                  return_inverse=True)
    text = tuple(map(repr, column[first].tolist()))
    rows = inverse.ravel().tolist()
    # itemgetter of one index returns the bare item, not a 1-tuple; with
    # fewer than two rows text already holds every row's text
    return itemgetter(*rows)(text) if len(rows) > 1 else text


@functools.lru_cache(maxsize=1)
def _centers_text(grid: Grid1D) -> tuple:
    """Text of the grid's cell centres; equal grids have bit-identical
    centres, so the last grid's text serves every snapshot on it (a tuple,
    since every caller shares it)."""
    return _column_text(grid.centers)


def _write_rows(path: Path, header: list, columns: list,
                grid: Grid1D | None = None) -> None:
    """One row per cell; a grid puts its cell centres first."""
    texts = [_column_text(c) for c in columns]
    if grid is not None:
        texts.insert(0, _centers_text(grid))
    stride = 2 * len(texts)  # each cell followed by "," or, last, "\n"
    cells = []
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(texts[0]), BLOCK_ROWS):
            block = [text[start:start + BLOCK_ROWS] for text in texts]
            if len(cells) != stride * len(block[0]):
                cells = (([None, ","] * len(texts))[:-1] + ["\n"]) \
                    * len(block[0])
            for j, text in enumerate(block):
                cells[j * 2::stride] = text
            f.write("".join(cells))


def fields_filename(t: float) -> str:
    return f"fields_t{t:g}.csv"


def write_fields_csv(path, field: MacroField) -> None:
    _write_rows(Path(path), ["x", "rho", "h"], [field.rho, field.h],
                field.grid)


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
