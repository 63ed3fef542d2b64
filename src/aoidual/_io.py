"""CSV and JSON writers shared by the library and the CLI.

Every CSV gets a header row and floats are printed with 12 significant
digits so analytic outputs are value-identical across runs. A CSV is
written from its columns; JSON is strict, compact and key-sorted.
"""

from __future__ import annotations

import json

import numpy as np


def fmt(value) -> str:
    """Format a scalar for CSV output (12 significant digits)."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _fields(column) -> list:
    """CSV fields as :func:`fmt` prints them; a float array in one pass."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return list(map("%.12g".__mod__, column.tolist()))
    return list(map(fmt, column))


def write_csv(path, header, columns) -> None:
    """Write equal-length columns of scalars under a header."""
    fields = [_fields(c) for c in columns]
    if len({len(f) for f in fields}) > 1:
        raise ValueError("columns differ in length")
    lines = [",".join(header)] + list(map(",".join, zip(*fields)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_matrix_csv(path, matrix) -> None:
    """Dense row-major matrix dump with generic column names."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    header = [f"c{j}" for j in range(matrix.shape[1])]
    write_csv(path, header, matrix.T)


def _jsonable(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return _jsonable(obj.tolist())
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as strict JSON: compact, keys sorted, non-finite as null."""
    with open(path, "w") as fh:
        fh.write(json.dumps(_jsonable(payload), sort_keys=True, allow_nan=False) + "\n")
