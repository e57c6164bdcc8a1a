"""The cross-host field comparison that CI runs on vacpol and lambda-sim artifacts."""
import math
import shutil

import pytest

import cross_host
from qlambda.jsonio import dump_json, write_table


def write_run(directory, summary=None, rows=None):
    """A lambda-sim-like summary and trajectory, with `summary` and `rows` overrides."""
    directory.mkdir()
    doc = {"period": 0.6283185307179586, "fitted_rate": 0.001, "relative_deviation": 2.4e-05,
           "fitted_slope": math.nan, "predicted_rate": None, "grid": {"n_radial": 96}}
    doc.update(summary or {})
    (directory / "summary.json").write_text(dump_json(doc), encoding="utf-8")
    table = rows or [[0.0, 1.0, 0.0, 0.0, 0.0], [0.4, 0.99, 0.0005, -0.016, 0.0077]]
    with (directory / "trajectory.csv").open("w", encoding="utf-8") as fh:
        write_table(fh, ["t", "re_0", "im_0", "re_1", "im_1"], table)


def failures(tmp_path, **other):
    write_run(tmp_path / "host")
    write_run(tmp_path / "other", **other)
    return cross_host.compare(tmp_path / "host", tmp_path / "other")[0]


def test_identical_runs_pass(tmp_path, capsys):
    write_run(tmp_path / "host")
    shutil.copytree(tmp_path / "host", tmp_path / "other")
    assert cross_host.main([str(tmp_path / "host"), str(tmp_path / "other")]) == 0
    assert "trajectory.csv re: largest move 0" in capsys.readouterr().out


@pytest.mark.parametrize("move, ok", [(1e-14, True), (1e-12, False)])
def test_amplitudes_hold_an_absolute_tolerance(tmp_path, move, ok):
    rows = [[0.0, 1.0, 0.0, 0.0, 0.0], [0.4, 0.99, 0.0005, -0.016 + move, 0.0077]]
    found = failures(tmp_path, rows=rows)
    assert (found == []) == ok
    assert ok or found[0].startswith("trajectory.csv re_1[1]: ")


@pytest.mark.parametrize("move, ok", [(1e-13, True), (1e-11, False)])
def test_rates_hold_a_relative_tolerance(tmp_path, move, ok):
    assert (failures(tmp_path, summary={"fitted_rate": 0.001 * (1.0 + move)}) == []) == ok


@pytest.mark.parametrize("other", [
    {"summary": {"period": math.nextafter(0.6283185307179586, 1.0)}},
    {"summary": {"predicted_rate": 0.001}},
    {"summary": {"grid": {"n_radial": 97}}},
    {"rows": [[0.0, 1.0, 0.0, 0.0, 0.0],
              [math.nextafter(0.4, 1.0), 0.99, 0.0005, -0.016, 0.0077]]},
], ids=["period-ulp", "null-to-number", "integer", "time-ulp"])
def test_exact_fields_must_match(tmp_path, other):
    assert len(failures(tmp_path, **other)) == 1


def test_different_fields_fail(tmp_path, capsys):
    found = failures(tmp_path, rows=[[0.0, 1.0, 0.0, 0.0, 0.0]])
    assert found == ["trajectory.csv: the runs hold different fields"]
    assert cross_host.main([str(tmp_path / "host"), str(tmp_path / "other")]) == 1
    assert "FAIL trajectory.csv" in capsys.readouterr().out


def test_nan_matches_nan_only(tmp_path):
    assert failures(tmp_path, summary={"fitted_slope": -4.0}) != []
