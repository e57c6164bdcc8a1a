"""The JSON boundary: the input reader and number rule, and the artifact writers
against the per-row f-string formatters they replace."""
import io
import json
import math
import re
import sys

import numpy as np
import pytest

from qlambda.amplitudes import BoostScanRow, BoostScanTable
from qlambda.dynamics import Trajectory
from qlambda.errors import ConfigError
from qlambda.jsonio import (
    dump_json,
    dump_key_value_csv,
    json_floats,
    parse_json,
    read_json,
    write_table,
)
from qlambda.vacuum import ConvergenceReport

# -0.0, the smallest subnormal, a huge value, non-finite values and whole numbers
SPECIAL = [-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf, 3.0, 1e16, 2.0**60, 0.1]


def legacy_rows(rows) -> str:
    return "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)


def text_of(artifact) -> str:
    buffer = io.StringIO()
    artifact.write_csv(buffer)
    return buffer.getvalue()


def test_write_table_matches_per_value_format():
    rows = [SPECIAL, SPECIAL[::-1], [7] * len(SPECIAL)]
    columns = [f"c{i}" for i in range(len(SPECIAL))]
    buffer = io.StringIO()
    write_table(buffer, columns, rows)
    assert buffer.getvalue() == ",".join(columns) + "\n" + legacy_rows(rows)


def test_trajectory_csv_bytes():
    times = np.array(SPECIAL)
    states = np.array([[complex(a, b), complex(b, a)] for a, b in zip(SPECIAL, SPECIAL[::-1])])
    text = text_of(Trajectory(times, states))
    rows = [[t, z0.real, z0.imag, z1.real, z1.imag] for t, (z0, z1) in zip(times, states)]
    assert text == "t,re_0,im_0,re_1,im_1\n" + legacy_rows(rows)


def test_convergence_report_csv_bytes():
    cutoffs = np.array(SPECIAL)
    partial = np.array(SPECIAL[::-1])
    tails = np.roll(cutoffs, 3)
    report = ConvergenceReport(cutoffs, partial, tails, -4.0, 0.0)
    expected = "cutoff,partial_sum,tail_estimate\n" + "".join(
        f"{c:.17g},{s:.17g},{t:.17g}\n" for c, s, t in zip(cutoffs, partial, tails)
    )
    assert text_of(report) == expected


def test_boost_scan_csv_bytes():
    rows = tuple(
        BoostScanRow(*SPECIAL[i:i + 5]) for i in range(len(SPECIAL) - 4)
    ) + (BoostScanRow(0, 1, 2, 3, 4),)
    table = BoostScanTable("moller", "box", rows)
    expected = (
        "# process=moller normalization=box\n"
        "beta,eta,amp_abs,ratio_to_cm,inverse_gamma\n"
        + legacy_rows(row.as_tuple() for row in rows)
    )
    assert text_of(table) == expected


def test_json_floats_keep_17_digits():
    values = [v for v in SPECIAL if math.isfinite(v)]
    text = dump_json({"values": values, "z": complex(-0.0, 5e-324)})
    assert json.loads(text)["values"] == values
    assert '\n  "z": [\n    -0,\n    4.9406564584124654e-324\n  ]' in text


# the non-finite floats of Python and numpy: each is an undefined artifact value
UNDEFINED = [math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf)]
UNDEFINED_IDS = ["nan", "inf", "-inf", "numpy-nan", "numpy--inf"]


def reject(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@pytest.mark.parametrize("value", UNDEFINED, ids=UNDEFINED_IDS)
def test_dump_json_writes_undefined_as_null(value):
    text = dump_json({"x": value, "xs": [0.5, value]})
    assert text == '{\n  "x": null,\n  "xs": [\n    0.5,\n    null\n  ]\n}\n'
    assert json.loads(text, parse_constant=reject) == {"x": None, "xs": [0.5, None]}


@pytest.mark.parametrize("value", UNDEFINED + [None], ids=UNDEFINED_IDS + ["none"])
def test_key_value_csv_writes_undefined_as_an_empty_field(value):
    text = dump_key_value_csv({"x": value, "g": {"y": value}, "xs": [0.5, value]})
    xs = "xs,0.5;" if value is not None else "xs[0],0.5\nxs[1],"
    assert text == f"key,value\nx,\ng.y,\n{xs}\n"


def test_key_value_csv_keeps_defined_values():
    doc = {"f": 0.1, "i": 3, "b": True, "s": "box", "xs": [1, -0.0, 5e-324]}
    assert dump_key_value_csv(doc) == (
        "key,value\nf,0.10000000000000001\ni,3\nb,True\ns,box\nxs,1;-0;4.9406564584124654e-324\n")


@pytest.mark.parametrize("body", [
    b"",
    b"{",
    b"\xff\xfe{}",  # a UTF-16 byte-order mark: not UTF-8
    b"\xef\xbb\xbf{}",  # a UTF-8 byte-order mark: not JSON
    b"[1" + b"0" * 4999 + b"]",  # past the digit limit where there is one
    b"[" * 100000,
    b"{" * 100000,
], ids=["empty", "unclosed", "utf16-bom", "utf8-bom", "5000-digits", "deep-array", "deep-object"])
def test_read_json_failures_are_config_errors(tmp_path, body):
    path = tmp_path / "doc.json"
    path.write_bytes(body)
    try:
        doc = read_json(str(path), "test document")
    except ConfigError as exc:
        assert str(exc).startswith(f"cannot read test document {str(path)!r}: ")
    else:  # a 5000-digit integer without a digit limit parses; the number rule rejects it
        assert doc[0] > 10**4998
        with pytest.raises(ConfigError, match="^x is an integer too large for a float$"):
            json_floats(doc, "x")


@pytest.mark.parametrize("name", ["absent.json", "."])
def test_read_json_unopenable_path(tmp_path, name):
    path = str(tmp_path / name)
    with pytest.raises(ConfigError, match="^" + re.escape(f"cannot read test document {path!r}: ")):
        read_json(path, "test document")


def test_read_json_reads_utf8(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"caf\u00e9": [1, 2.5, true, null]}', encoding="utf-8")
    assert read_json(str(path), "test document") == {"caf\u00e9": [1, 2.5, True, None]}


@pytest.mark.parametrize("text", ["", "[1,", "[" * 100000], ids=["empty", "unclosed", "deep"])
def test_parse_json_failures_are_config_errors(text):
    with pytest.raises(ConfigError, match="^invalid JSON: "):
        parse_json(text)


@pytest.mark.parametrize("body", [b"{}", '{"e": [1]}'.encode("utf-16"), bytearray(b"[1]")],
                         ids=["utf8-bytes", "utf16-bytes", "bytearray"])
def test_parse_json_takes_text_only(body):
    message = f"^a JSON document must be text, got {type(body).__name__}$"
    with pytest.raises(ConfigError, match=message):
        parse_json(body)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="no digit limit")
def test_parse_json_names_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ConfigError) as caught:
        parse_json("[1" + "0" * limit + "]")
    assert str(caught.value) == (
        f"invalid JSON: an integer literal exceeds the limit of {limit} digits")


def test_json_floats_number_rule():
    floats = json_floats([0, -3, 2.5, 10**300, np.float64(0.25), -0.0], "x")
    assert floats == [0.0, -3.0, 2.5, 1e300, 0.25, -0.0]
    assert all(type(v) is float for v in floats) and math.copysign(1.0, floats[-1]) == -1.0


@pytest.mark.parametrize("value", [True, False, None, "1", "nan", [1.0], {}, np.int64(1), 1j])
def test_json_floats_rejects_what_is_not_a_number(value):
    with pytest.raises(ConfigError) as caught:
        json_floats([1.0, value], "each x")
    assert str(caught.value) == f"each x must be a number, got {value!r}"


def test_json_floats_too_large_integer_message_omits_digits():
    with pytest.raises(ConfigError) as caught:
        json_floats([1.0, -(10**400)], "each x")
    assert str(caught.value) == "each x is an integer too large for a float"
