"""Deterministic report rendering: versioned JSON, CSV, and JSON-lines orbits.

Every report is a plain JSON-able document wrapped in an envelope carrying
the schema version.  Rendering is fully deterministic: keys are sorted, no
timestamps or machine identifiers are embedded, and exact rationals are
kept as "p/q" strings so nothing is lost to binary floating point.  The
CSV rendering flattens the same document into ``field,value,decimal`` rows
whose ``value`` column carries the very same tokens as the JSON text, with
a convenience decimal column for spreadsheet use.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import InvalidInputError
from .numbers import as_dist, dist_to_jsonable, parse_dist
from .paths import DeltaPath, OrbitSet, point_table

__all__ = [
    "SCHEMA_VERSION",
    "envelope",
    "to_json",
    "to_csv",
    "write_report",
    "point_to_jsonable",
    "point_from_jsonable",
    "orbits_to_json_lines",
    "orbits_from_json_lines",
]

SCHEMA_VERSION = "v1"

# path lines of an orbit file rendered per join: one block of the id matrix
# at a time, so no list of every row is built beside the text
_PATH_ROWS_PER_BLOCK = 4096


def envelope(kind: str, report: Dict[str, Any]) -> Dict[str, Any]:
    """Wrap a report payload with the schema version and report kind."""
    if not isinstance(kind, str) or not kind:
        raise InvalidInputError("report kind must be a nonempty string")
    return {"schema": SCHEMA_VERSION, "kind": kind, "report": report}


def _jsonable(value: Any) -> Any:
    """Normalize a value into JSON-safe, deterministic form."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, Fraction):
        return dist_to_jsonable(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            raise InvalidInputError("NaN cannot appear in a report")
        return value
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                key = str(_jsonable(key))
            out[key] = _jsonable(item)
        return out
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(str(_jsonable(item)) for item in value)
    if hasattr(value, "to_jsonable"):
        return _jsonable(value.to_jsonable())
    raise InvalidInputError(f"cannot serialize value of type {type(value).__name__}")


def to_json(doc: Dict[str, Any]) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(_jsonable(doc), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _flatten(prefix: str, value: Any, rows: List[Tuple[str, Any]]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            path = f"{prefix}.{key}" if prefix else str(key)
            _flatten(path, value[key], rows)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, rows)
    else:
        rows.append((prefix, value))


def _json_token(value: Any) -> str:
    """The exact token the JSON rendering uses for a scalar."""
    return json.dumps(value, ensure_ascii=False)


def _decimal_of(value: Any) -> str:
    """Best-effort decimal rendering of a numeric scalar; empty otherwise."""
    if isinstance(value, bool) or value is None:
        return ""
    if isinstance(value, (int, float)):
        return repr(float(value))
    if isinstance(value, str):
        try:
            num = parse_dist(value)
        except (ValueError, TypeError):
            return ""
        return repr(float(num))
    return ""


def to_csv(doc: Dict[str, Any]) -> str:
    """Flatten the report document into ``field,value,decimal`` rows.

    The ``value`` column repeats the exact JSON token for the leaf (so the
    two renderings carry identical numeric values); ``decimal`` adds a
    plain float reading for numeric leaves, including "p/q" rationals.
    """
    flat: List[Tuple[str, Any]] = []
    _flatten("", _jsonable(doc), flat)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["field", "value", "decimal"])
    for path, value in flat:
        writer.writerow([path, _json_token(value), _decimal_of(value)])
    return buffer.getvalue()


def write_report(doc: Dict[str, Any], out: Optional[str], fmt: str = "json") -> str:
    """Render the document and write it to a path or stdout; returns the text."""
    if fmt == "json":
        text = to_json(doc)
    elif fmt == "csv":
        text = to_csv(doc)
    else:
        raise InvalidInputError(f"unknown output format {fmt!r}; use json or csv")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


# ---------------------------------------------------------------------------
# point and orbit encodings


def point_to_jsonable(point: Any) -> Any:
    """Canonical JSON encoding of a space point (tuples become lists)."""
    if isinstance(point, tuple):
        return [point_to_jsonable(p) for p in point]
    if isinstance(point, Fraction):
        return dist_to_jsonable(point)
    if isinstance(point, (int, str)):
        return point
    if isinstance(point, float):
        return point
    raise InvalidInputError(f"cannot encode point of type {type(point).__name__}")


def point_from_jsonable(obj: Any) -> Any:
    """Inverse of :func:`point_to_jsonable` (lists become tuples).  Raises
    InvalidInputError for what it never writes: objects and null."""
    if isinstance(obj, list):
        return tuple(point_from_jsonable(p) for p in obj)
    if isinstance(obj, (int, str, float)):
        return obj
    raise InvalidInputError(f"cannot decode point {obj!r}")


def orbits_to_json_lines(orbits: OrbitSet) -> str:
    """One JSON document per line: a header line, then one path per line."""
    header = {
        "schema": SCHEMA_VERSION,
        "kind": "orbit-set",
        "x0": point_to_jsonable(orbits.x0),
        "n": orbits.n,
        "delta": dist_to_jsonable(orbits.delta),
        "count": len(orbits.paths),
        "exhaustive": orbits.exhaustive,
        "map_label": orbits.map_label,
    }
    parts = [json.dumps(header, sort_keys=True, ensure_ascii=False)]
    if orbits.paths:
        # each point is encoded once; a block of path lines is one join over
        # "\n[", the point texts with ", " between them, and "]", exactly as
        # json.dumps lays out a list
        support, ids = point_table(orbits.paths)
        text = np.array([json.dumps(point_to_jsonable(p), sort_keys=True, ensure_ascii=False)
                         for p in support], dtype=object)
        width = ids.shape[1]
        for lo in range(0, len(ids), _PATH_ROWS_PER_BLOCK):
            block = ids[lo:lo + _PATH_ROWS_PER_BLOCK]
            cells = np.empty((len(block), 2 * width + 1), dtype=object)
            cells[:, 0] = "\n["
            cells[:, 1::2] = text[block]
            cells[:, 2:-1:2] = ", "
            cells[:, -1] = "]"
            parts.append("".join(cells.ravel().tolist()))
    return "".join(parts) + "\n"


def _parsed(parse: Callable[[Any], Any], value: Any, where: str) -> Any:
    """parse(value), where a TypeError, ValueError or InvalidInputError is
    raised as an InvalidInputError naming ``where`` in the orbit file."""
    try:
        return parse(value)
    except (TypeError, ValueError, InvalidInputError) as exc:
        raise InvalidInputError(f"orbit file {where}: {exc}") from None


def orbits_from_json_lines(text: str) -> OrbitSet:
    """Parse the JSON-lines orbit format back into an OrbitSet.  Malformed
    input raises InvalidInputError naming its line or header field."""
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise InvalidInputError("empty orbit file")
    header = _parsed(json.loads, lines[0][1], f"line {lines[0][0]} is not JSON")
    if not isinstance(header, dict) or header.get("kind") != "orbit-set":
        raise InvalidInputError("orbit file must start with an orbit-set header line")
    if header.get("schema") != SCHEMA_VERSION:
        raise InvalidInputError(f"unsupported orbit schema {header.get('schema')!r}")
    for key in ("x0", "n", "delta"):
        if key not in header:
            raise InvalidInputError(f"orbit file header has no {key!r} field")
    delta = _parsed(as_dist, header["delta"], "header field 'delta'")
    x0 = _parsed(point_from_jsonable, header["x0"], "header field 'x0'")
    n = header["n"]
    if type(n) is not int or n < 0:
        raise InvalidInputError(f"orbit file header field 'n' must be a nonnegative integer: {n!r}")
    paths = []
    for number, line in lines[1:]:
        row = _parsed(json.loads, line, f"line {number} is not JSON")
        points = _parsed(point_from_jsonable, row, f"line {number}")
        if not isinstance(points, tuple):
            raise InvalidInputError(f"orbit file line {number}: a path must be a JSON list")
        if len(points) != n + 1:
            raise InvalidInputError(f"orbit file line {number}: a path of {len(points)} "
                                    f"points, where the header's n = {n} needs {n + 1}")
        if points[:1] != (x0,):
            raise InvalidInputError(
                f"orbit file line {number}: the path does not start at x0 = {x0!r}")
        paths.append(DeltaPath(points, delta))
    if len(paths) != header.get("count"):
        raise InvalidInputError(
            f"orbit file header announces {header.get('count')} paths, found {len(paths)}")
    return OrbitSet(tuple(paths), x0=x0, n=n, delta=delta,
                    exhaustive=bool(header.get("exhaustive", False)),
                    map_label=str(header.get("map_label", "identity")))
