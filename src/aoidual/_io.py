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
from itertools import chain
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


def write_csv(path, header, columns) -> None:
    """Write equal-length columns of scalars under a header in one format call:
    a float array's values by ``%.12g``, any other column's by :func:`fmt`."""
    floats = [isinstance(c, np.ndarray) and c.dtype.kind == "f" for c in columns]
    columns = [c.tolist() if f else list(map(fmt, c)) for c, f in zip(columns, floats)]
    if len({len(c) for c in columns}) > 1:
        raise ValueError("columns differ in length")
    row = ",".join("%.12g" if f else "%s" for f in floats) + "\n"
    body = row * len(columns[0]) % tuple(chain.from_iterable(zip(*columns))) if columns else ""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n" + body)


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
