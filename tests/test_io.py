"""The CSV writer: columns in, the same bytes as formatting each row's cells with ``fmt``."""

import numpy as np
import pytest

import floqept.io
from floqept.cli import main
from floqept.io import fmt, write_csv
from floqept.numerics.bessel import bessel_j

SPECIAL = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e308, 0.1, 1 / 3, -2.5e-7]


def _row_wise(header, rows) -> bytes:
    """The reference body: one row at a time, one ``fmt`` call per cell."""
    lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _written(tmp_path, header, columns) -> bytes:
    path = tmp_path / "t.csv"
    write_csv(path, header, columns)
    return path.read_bytes()


def test_columns_match_row_wise_fmt(tmp_path):
    n = len(SPECIAL)
    columns = {
        "float": SPECIAL,
        "float64": np.array(SPECIAL),
        "int": [0, -1, 7, 2**53 + 1, 10**20, 3, 4, 5, 6, 8],
        "int64": np.arange(-5, 5),
        "bool": [True, False] * (n // 2),
        "str": [f"s{i}" for i in range(n)],
        "mixed": [1.5, True, "x", 3, np.float64(-0.0), None, 0, False, "1e308", 2.0],
    }
    header, cols = list(columns), list(columns.values())
    assert _written(tmp_path, header, cols) == _row_wise(header, zip(*cols))


def test_random_doubles_at_12_significant_digits(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.standard_normal(5000) * 10.0 ** rng.integers(-320, 308, 5000)
    body = _written(tmp_path, ["v"], [values]).decode().splitlines()[1:]
    assert body == ["%.12g" % v for v in values] == [f"{v:.12g}" for v in values.tolist()]


def test_str_column_passes_through(tmp_path, monkeypatch):
    calls = []

    def counting_fmt(value):
        calls.append(value)
        return fmt(value)

    monkeypatch.setattr(floqept.io, "fmt", counting_fmt)
    body = _written(tmp_path, ["tag", "x"], [["1e308", "nan", "a b"], [1.0, 2.0, 3.0]])
    assert body == b"tag,x\n1e308,1\nnan,2\na b,3\n"
    assert calls == [1.0, 2.0, 3.0]  # only the float column went through fmt


def test_numpy_bool_cells_keep_the_fmt_rule(tmp_path):
    # a numpy bool is written as a python bool is, 1/0, so a vectorised flag
    # column gives the same bytes as a list of python bools
    assert (fmt(True), fmt(False)) == ("1", "0")
    assert (fmt(np.bool_(True)), fmt(np.bool_(False))) == ("1", "0")
    body = _written(tmp_path, ["np", "py"], [np.array([True, False]), [True, False]])
    assert body == b"np,py\n1,1\n0,0\n"


@pytest.mark.parametrize("argv, csv, column", [
    (["separation", "--sweep-delta0", "3000:3120:2", "--delta0", "-3050", "--gamma-c", "93",
      "--gamma12", "20", "--delta-b", "4300", "--omega-b", "3000", "--n1", "1",
      "--truncation-m", "5"], "separation.csv", "merged"),
    (["beat", "--delta0", "-3050", "--omega-b", "3000", "--delta-b", "150", "--gamma-c", "93",
      "--n1", "1", "--sim-duration", "0.4", "--rel-tol", "1e-6", "--abs-tol", "1e-9"],
     "beat.csv", "found"),
    (["fit", "--model", "bessel-heights", "--m", "1"], "fit.csv", "converged"),
], ids=["separation", "beat", "fit"])
def test_readme_flag_columns_hold_python_bools(tmp_path, argv, csv, column):
    # the README commands' flag cells are python bools (1/0), so they do not
    # depend on how a numpy bool would be written
    heights = tmp_path / "heights.csv"
    heights.write_text("omega_b,height\n" + "".join(
        f"{w},{bessel_j(1, 3000.0 / w) ** 2!r}\n" for w in range(1000, 8001, 500)))
    extra = ["--input", str(heights)] if argv[0] == "fit" else []
    assert main(argv + extra + ["--out", str(tmp_path)]) == 0
    lines = (tmp_path / csv).read_text().splitlines()
    index = lines[0].split(",").index(column)
    cells = {line.split(",")[index] for line in lines[1:]}
    assert cells and cells <= {"0", "1"}


@pytest.mark.parametrize("columns", [[[1.0, 2.0]], [[1.0, 2.0], [3.0]]], ids=["too-few", "ragged"])
def test_mismatched_columns_raise_before_writing(tmp_path, columns):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="columns of one length"):
        write_csv(path, ["a", "b"], columns)
    assert not path.exists()
