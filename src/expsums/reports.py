"""Deterministic report serialization.

JSON output is built by a small writer rather than json.dumps so that
floats are always rendered at 17 significant digits (bit-exact round
trips, byte-identical reruns).  Exact rationals become {"num": .., "den":
..} objects, complex values {"re": .., "im": ..}.  CSV output flattens
every leaf into one (key, value) row under a "key,value" header, with
dotted paths and [i] list indices.
"""

from __future__ import annotations

import dataclasses
import enum
import io
import json
from fractions import Fraction
from typing import Any

import numpy as np

from .polynomials import Polynomial


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite float {x} cannot be serialized")
    text = format(x, ".17g")
    return "-0.0" if text == "-0" else text  # "-0" would read back as the int 0


def to_jsonable(obj: Any) -> Any:
    """Normalize report objects into dict/list/str/int/float/None trees."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, enum.Enum):
        return to_jsonable(obj.value)
    if isinstance(obj, Polynomial):
        return obj.render()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        items = obj.items()
        if all(isinstance(k, (int, np.integer)) for k in obj):
            items = sorted(obj.items())
        return {str(k): to_jsonable(v) for k, v in items}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_json(node: Any, out: io.StringIO, indent: int) -> None:
    pad = "  " * indent
    if node is None:
        out.write("null")
    elif node is True:
        out.write("true")
    elif node is False:
        out.write("false")
    elif isinstance(node, int):
        out.write(str(node))
    elif isinstance(node, float):
        out.write(_fmt_float(node))
    elif isinstance(node, str):
        out.write(json.dumps(node))
    elif isinstance(node, dict):
        if not node:
            out.write("{}")
            return
        out.write("{\n")
        for i, (k, v) in enumerate(node.items()):
            out.write(f"{pad}  {json.dumps(str(k))}: ")
            _write_json(v, out, indent + 1)
            out.write(",\n" if i < len(node) - 1 else "\n")
        out.write(pad + "}")
    elif isinstance(node, list):
        if not node:
            out.write("[]")
            return
        out.write("[\n")
        for i, v in enumerate(node):
            out.write(pad + "  ")
            _write_json(v, out, indent + 1)
            out.write(",\n" if i < len(node) - 1 else "\n")
        out.write(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(node).__name__}")


def dumps_json(report: Any) -> str:
    buf = io.StringIO()
    _write_json(to_jsonable(report), buf, 0)
    buf.write("\n")
    return buf.getvalue()


def _leaves(node: Any, path: str, rows: list[tuple[str, str]]) -> None:
    if isinstance(node, dict):
        if not node:
            rows.append((path, ""))
            return
        for k, v in node.items():
            _leaves(v, f"{path}.{k}" if path else str(k), rows)
    elif isinstance(node, list):
        if not node:
            rows.append((path, ""))
            return
        for i, v in enumerate(node):
            _leaves(v, f"{path}[{i}]", rows)
    else:
        if node is None:
            text = ""
        elif node is True:
            text = "true"
        elif node is False:
            text = "false"
        elif isinstance(node, float):
            text = _fmt_float(node)
        else:
            text = str(node)
        rows.append((path, text))


def dumps_csv(report: Any) -> str:
    rows: list[tuple[str, str]] = []
    _leaves(to_jsonable(report), "", rows)
    out = ["key,value"]
    for key, value in rows:
        if any(ch in value for ch in ",\"\n"):
            value = '"' + value.replace('"', '""') + '"'
        if any(ch in key for ch in ",\"\n"):
            key = '"' + key.replace('"', '""') + '"'
        out.append(f"{key},{value}")
    return "\n".join(out) + "\n"


def serialize_report(report: Any, format: str = "json") -> bytes:
    if format == "json":
        return dumps_json(report).encode()
    if format == "csv":
        return dumps_csv(report).encode()
    raise ValueError(f"unknown format {format!r}")

