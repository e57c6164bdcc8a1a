"""The shared artifact writers against the per-row f-string formatters they replace."""
import io
import json
import math

import numpy as np

from qlambda.amplitudes import BoostScanRow, BoostScanTable
from qlambda.dynamics import Trajectory
from qlambda.jsonio import dump_json, write_table
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
