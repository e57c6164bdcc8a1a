"""The JSON boundary in both directions: input documents and artifacts.

In: `read_json` reads and `parse_json` parses every input document, each
failure a ConfigError, and `json_floats` is the one number rule of input.
Out: every float of every artifact, JSON or CSV, is printed with
FLOAT_FORMAT: 17 significant digits and '.' decimal separator, so repeated
runs produce byte-identical artifacts regardless of locale. An undefined value,
None or a non-finite float, is null in JSON and an empty key-value CSV field.
"""
from __future__ import annotations

import json
import math
import numbers
import sys

from .errors import ConfigError

FLOAT_FORMAT = "%.17g"
# the types json.loads gives numbers; `json_floats` tests for these in one pass
_JSON_NUMBER_TYPES = frozenset((int, float))


def read_json(path: str, what: str):
    """The document in the UTF-8 JSON file at `path`; any failure is a ConfigError naming `what`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_json(fh.read())
    except (OSError, UnicodeDecodeError, ConfigError) as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc


def parse_json(text: str):
    """The document in JSON `text`; anything but a str, and malformed, over-long or
    over-deep JSON, is a ConfigError."""
    # json.loads would also take bytes, guessing UTF-16 or UTF-32 from them,
    # where read_json accepts UTF-8 only
    if not isinstance(text, str):
        raise ConfigError(f"a JSON document must be text, got {type(text).__name__}")
    try:
        return json.loads(text)
    # RecursionError: nesting past the recursion limit
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    # the one other ValueError: an integer literal past the interpreter's digit limit,
    # whose own message tells the reader to call a Python function
    except ValueError as exc:
        raise ConfigError(f"invalid JSON: an integer literal exceeds the limit of "
                          f"{sys.get_int_max_str_digits()} digits") from exc


def json_floats(values: list, what: str) -> list[float]:
    """The numbers of a JSON list as floats, under the one number rule of input.

    A number is an int or a float, not a bool. Any other value, or an int
    too large for a float, is a ConfigError naming `what`.
    """
    # float subclasses such as numpy.float64 pass the per-value test
    if not _JSON_NUMBER_TYPES.issuperset(map(type, values)):
        for value in values:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        return list(map(float, values))
    except OverflowError:
        raise ConfigError(f"{what} is an integer too large for a float") from None


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
        return FLOAT_FORMAT % value if math.isfinite(value) else "null"
    if isinstance(obj, complex):
        return _format([obj.real, obj.imag], level)
    return json.dumps(obj)


def dump_json(obj) -> str:
    return _format(obj, 0) + "\n"


def _csv_field(value) -> str:
    # a number of a key-value CSV; an undefined one, None or non-finite, is empty
    return FLOAT_FORMAT % value if value is not None and math.isfinite(value) else ""


def dump_key_value_csv(doc: dict) -> str:
    """Flatten a JSON document to `key,value` lines; number lists join with ';'."""
    lines = ["key,value"]

    def emit(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                emit(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, (list, tuple)):
            if all(isinstance(v, (int, float)) for v in value):
                lines.append(f"{prefix},{';'.join(map(_csv_field, value))}")
            else:
                for i, v in enumerate(value):
                    emit(f"{prefix}[{i}]", v)
        elif isinstance(value, float) or value is None:
            lines.append(f"{prefix},{_csv_field(value)}")
        else:
            lines.append(f"{prefix},{value}")

    emit("", doc)
    return "\n".join(lines) + "\n"


def write_table(fh, columns, rows) -> None:
    """CSV with one header line of `columns`, then each row of floats in FLOAT_FORMAT."""
    fh.write(",".join(columns) + "\n")
    template = ",".join([FLOAT_FORMAT] * len(columns)) + "\n"
    fh.write("".join(template % tuple(row) for row in rows))
