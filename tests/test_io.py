"""The CSV and JSON writers against the row-wise, indented format they replaced."""

import json

import numpy as np
import pytest

from aoidual import FpParams, GridSpec, _io, build_fp_model, summarize


def rowwise_csv(path, header, rows) -> None:
    """The row-wise writer: every value through an ``isinstance`` chain."""

    def fmt(value) -> str:
        if isinstance(value, (bool, np.bool_)):
            return str(bool(value)).lower()
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return f"{float(value):.12g}"
        return str(value)

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def same_bytes(a, b) -> bool:
    return a.read_bytes() == b.read_bytes()


def assert_same_bytes(tmp_path, header, columns):
    _io.write_csv(tmp_path / "columns.csv", header, columns)
    rowwise_csv(tmp_path / "rows.csv", header, zip(*columns))
    assert same_bytes(tmp_path / "columns.csv", tmp_path / "rows.csv")


def k3_summary():
    return summarize(build_fp_model(FpParams(0.5, 0.1, 1.0, 3)), GridSpec(points=300))


SPECIAL = [0.1, np.nan, np.inf, -np.inf, -0.0, 1e-300, 5e-324, 1e22,
           123456789012.5, 2.0 ** 53 + 1.0, 1.0 / 3.0, -2.5e-7]


def test_mixed_columns_match_the_rowwise_writer(tmp_path):
    mixed = [True, np.bool_(False), 3, np.int64(-7), 0.1, np.float32(0.1),
             np.nan, np.inf, -np.inf, -0.0, 1e-300, "str"]
    n = len(mixed)
    columns = [
        mixed,
        list(reversed(mixed)),
        [10 ** 13, 2.5, -1, 1e13, 0, np.int64(2 ** 62), 1.0, 7, 3.0, 8, 1e-300, 4],
        np.array(SPECIAL),
        np.array(SPECIAL, dtype=np.float32),
        np.arange(n) % 2 == 0,
        np.arange(n, dtype=np.int64) - 5,
        np.array(mixed, dtype=object),
        tuple(f"curve_{i}" for i in range(n)),
    ]
    assert_same_bytes(tmp_path, [f"c{i}" for i in range(len(columns))], columns)


def test_empty_and_single_columns_match(tmp_path):
    assert_same_bytes(tmp_path, ["x", "y"], [np.array([]), np.array([])])
    assert_same_bytes(tmp_path, ["x"], [np.array(SPECIAL)])


def test_table_csv_matches_the_rowwise_writer(tmp_path):
    summary = k3_summary()
    for table in (summary.aoi_table, summary.paoi_table):
        table.to_csv(tmp_path / "table.csv")
        rowwise_csv(tmp_path / "rows.csv", ["x", "pdf", "cdf"],
                    zip(table.grid, table.pdf, table.cdf))
        assert same_bytes(tmp_path / "table.csv", tmp_path / "rows.csv")


def test_columns_of_unequal_length_are_rejected(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        _io.write_csv(tmp_path / "bad.csv", ["x", "y"], [np.zeros(3), np.zeros(2)])


def test_summary_json_loads_as_the_indented_format(tmp_path):
    # only whitespace changed: the compact file parses to the same object
    summary = k3_summary()
    summary.to_json(tmp_path / "summary.json")
    compact = (tmp_path / "summary.json").read_text()
    payload = _io._jsonable(summary)
    indented = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert compact.endswith("\n") and "\n" not in compact[:-1]
    assert compact == json.dumps(json.loads(indented), sort_keys=True) + "\n"


def test_json_accepts_every_numpy_scalar(tmp_path):
    payload = {"flag": np.bool_(True), "name": np.str_("zw"),
               "half": np.float32(0.5), "small": np.int8(-3),
               "big": np.uint64(2 ** 63), "nested": [np.bool_(False)]}
    _io.write_json(tmp_path / "scalars.json", payload)
    assert json.loads((tmp_path / "scalars.json").read_text()) == {
        "big": 2 ** 63, "flag": True, "half": 0.5, "name": "zw", "nested": [False],
        "small": -3}


def test_non_finite_floats_are_written_as_null(tmp_path):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    payload = {"nan": float("nan"), "inf": np.float64(np.inf), "f32": np.float32("nan"),
               "array": np.array([1.0, -np.inf]), "nested": [(2.5, float("-inf"))]}
    _io.write_json(tmp_path / "strict.json", payload)
    assert json.loads((tmp_path / "strict.json").read_text(), parse_constant=reject) == {
        "array": [1.0, None], "f32": None, "inf": None, "nan": None,
        "nested": [[2.5, None]]}
