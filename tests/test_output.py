"""CSV writers: the text of every number is repr of the Python float."""

import numpy as np

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
