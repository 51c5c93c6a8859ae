"""CSV writers: the text of every number is repr of the Python float."""

import numpy as np

from trafficflow import output


def test_rows_are_written_as_python_float_reprs(tmp_path):
    columns = [np.arange(4),
               np.array([0.1, -0.0, 1e-300, -2.5e10]),
               np.array([1 / 3, np.pi, 5e-324, 1.0])]
    path = tmp_path / "rows.csv"
    output._write_rows(path, ["i", "a", "b"], columns)
    want = "i,a,b\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns))
    assert path.read_bytes() == want.encode()
