"""Deterministic artifact emission with fixed-precision floats.

Every float of every artifact, JSON or CSV, is printed with FLOAT_FORMAT:
17 significant digits and '.' decimal separator, so repeated runs produce
byte-identical artifacts regardless of locale.
"""
from __future__ import annotations

import json
import math
import numbers

FLOAT_FORMAT = "%.17g"


def _format(obj, level: int) -> str:
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}{json.dumps(str(key))}: {_format(value, level + 1)}'
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):  # a namedtuple record too, as json.dumps writes it
        if not obj:
            return "[]"
        items = [f"{inner}{_format(value, level + 1)}" for value in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, numbers.Integral):  # int and numpy integers
        return str(int(obj))
    if isinstance(obj, numbers.Real):  # float and numpy floats
        value = float(obj)
        if not math.isfinite(value):
            return json.dumps(value)  # Infinity / -Infinity / NaN, as json.dumps
        return FLOAT_FORMAT % value
    if isinstance(obj, complex):
        return _format([obj.real, obj.imag], level)
    return json.dumps(obj)


def dump_json(obj) -> str:
    return _format(obj, 0) + "\n"


def dump_key_value_csv(doc: dict) -> str:
    """Flatten a JSON document to `key,value` lines; number lists join with ';'."""
    lines = ["key,value"]

    def emit(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                emit(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, (list, tuple)):
            if all(isinstance(v, (int, float)) for v in value):
                lines.append(f"{prefix},{';'.join(FLOAT_FORMAT % float(v) for v in value)}")
            else:
                for i, v in enumerate(value):
                    emit(f"{prefix}[{i}]", v)
        elif isinstance(value, float):
            lines.append(f"{prefix},{FLOAT_FORMAT % value}")
        else:
            lines.append(f"{prefix},{value}")

    emit("", doc)
    return "\n".join(lines) + "\n"


def write_table(fh, columns, rows) -> None:
    """CSV with one header line of `columns`, then each row of floats in FLOAT_FORMAT."""
    fh.write(",".join(columns) + "\n")
    template = ",".join([FLOAT_FORMAT] * len(columns)) + "\n"
    fh.write("".join(template % tuple(row) for row in rows))
