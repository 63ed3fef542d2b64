"""CSV and JSON writers shared by the library and the CLI.

Every CSV gets a header row and floats are printed with 12 significant
digits so analytic outputs are value-identical across runs. A CSV is
written from its columns; JSON is strict, compact and key-sorted, and
writes a result dataclass, nested ones too, as its fields but the
``NOT_JSON`` ones (arrays that go to CSV).
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from types import MappingProxyType

import numpy as np

#: Field metadata that keeps a result field out of its JSON file.
NOT_JSON = MappingProxyType({"json": False})


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
    """``obj`` in JSON types; a dataclass is the dict of its fields but the ``NOT_JSON`` ones."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return _jsonable(obj.tolist())
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else None
    if isinstance(obj, (dict, MappingProxyType)):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)
                if f.metadata.get("json", True)}
    return obj


def write_json(path, result) -> None:
    """Write ``result`` as strict JSON: compact, keys sorted, non-finite as null."""
    with open(path, "w") as fh:
        fh.write(json.dumps(_jsonable(result), sort_keys=True, allow_nan=False) + "\n")
