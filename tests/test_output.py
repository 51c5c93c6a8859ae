"""CSV writers: the text of every number is repr of the Python float."""

import numpy as np
import pytest

from trafficflow import output
from trafficflow.core import Grid1D, MacroField


def test_rows_are_written_as_python_float_reprs(tmp_path):
    columns = [np.arange(4),
               np.array([0.1, -0.0, 1e-300, -2.5e10]),
               np.array([1 / 3, np.pi, 5e-324, 1.0])]
    path = tmp_path / "rows.csv"
    output._write_rows(path, ["i", "a", "b"], columns)
    want = "i,a,b\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns))
    assert path.read_bytes() == want.encode()


def test_distinct_bit_patterns_each_keep_their_own_text(tmp_path):
    # 0.0 and -0.0 are equal but print differently; the other values are
    # subnormals, extremes and neighbours 1 ulp apart, each repeated
    above = np.nextafter(1.0, 2.0)
    values = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
              1e300, -1e300, 1.0, above, np.nextafter(1.0, 0.0),
              np.nextafter(above, 2.0)]
    col = np.array(values * 3)[np.random.default_rng(0).permutation(36)]
    path = tmp_path / "rows.csv"
    output._write_rows(path, ["a", "b"], [col, col[::-1]])
    want = "a,b\n" + "".join(f"{float(u)!r},{float(v)!r}\n"
                             for u, v in zip(col, col[::-1]))
    assert path.read_bytes() == want.encode()


def test_each_grid_writes_its_own_centres(tmp_path):
    # the same cell count on two grids, written alternately
    grids = [Grid1D(-4.0, 4.0, 1.0), Grid1D(0.0, 0.8, 0.1)]
    for k, grid in enumerate(grids * 2):
        field = MacroField(rho=np.full(grid.n_cells, 0.1),
                           h=np.full(grid.n_cells, 0.5), grid=grid)
        path = tmp_path / f"fields{k}.csv"
        output.write_fields_csv(path, field)
        x = [line.split(",")[0] for line in path.read_text().splitlines()]
        assert x == ["x"] + [repr(float(v)) for v in grid.centers]


def _naive_rows(header, columns):
    return ",".join(header) + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns))


def _columns(n, seed):
    """Three columns of n rows: repeated and distinct values mixed, one
    column all equal."""
    rng = np.random.default_rng(seed)
    pool = np.array([0.1, -0.0, 0.0, 1 / 3, 2.5e-8])
    return [rng.choice(pool, n), rng.random(n), np.full(n, 0.15)]


@pytest.mark.parametrize("n", [1, output.BLOCK_ROWS - 1, output.BLOCK_ROWS,
                               output.BLOCK_ROWS + 1,
                               2 * output.BLOCK_ROWS + 1])
def test_rows_across_block_edges_are_the_per_row_text(tmp_path, n):
    header = ["a", "b", "c"]
    columns = _columns(n, n)
    path = tmp_path / "rows.csv"
    output._write_rows(path, header, columns)
    assert path.read_bytes() == _naive_rows(header, columns).encode()


@pytest.mark.parametrize("n", [1, 2, output.BLOCK_ROWS + 1])
def test_single_column_and_grid_column_are_the_per_row_text(tmp_path, n):
    grid = Grid1D(0.0, n * 0.5, 0.5)
    column = np.random.default_rng(n).random(n)
    path = tmp_path / "rows.csv"
    output._write_rows(path, ["x", "a"], [column], grid)
    assert path.read_bytes() == _naive_rows(["x", "a"],
                                            [grid.centers, column]).encode()


def test_nan_and_infinities_are_the_per_row_text(tmp_path):
    neg_nan = -np.float64("nan")  # sign bit set: other bits, same text
    col = np.array([np.nan, np.inf, -np.inf, 1.0, neg_nan, np.inf, np.nan])
    path = tmp_path / "rows.csv"
    output._write_rows(path, ["a", "b"], [col, col[::-1]])
    assert path.read_bytes() == _naive_rows(["a", "b"],
                                            [col, col[::-1]]).encode()


def test_fields_round_trip_bit_for_bit_across_blocks(tmp_path):
    grid = Grid1D(-4.0, 4.0, 8.0 / (2 * output.BLOCK_ROWS + 1))
    rng = np.random.default_rng(5)
    field = MacroField(rho=rng.random(grid.n_cells),
                       h=np.where(rng.random(grid.n_cells) < 0.5, 0.8,
                                  rng.random(grid.n_cells)), grid=grid)
    path = tmp_path / "fields.csv"
    output.write_fields_csv(path, field)
    back = output.read_fields_csv(path, grid)
    assert back.rho.tobytes() == field.rho.tobytes()
    assert back.h.tobytes() == field.h.tobytes()
    assert path.read_bytes() == _naive_rows(
        ["x", "rho", "h"], [grid.centers, field.rho, field.h]).encode()
