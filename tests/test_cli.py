import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qlambda
from qlambda.cli import main
from qlambda.dynamics import LevelSystem, magnus_second_order
from qlambda.errors import StepTooLarge


def exit_code(argv) -> int:
    """Process exit code of one CLI run: argparse rejects by SystemExit, commands by return."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def reject_constant(constant):
    """json.loads parse_constant for a strict reader: NaN and Infinity are not JSON."""
    raise ValueError(f"non-standard JSON constant {constant}")


@pytest.fixture
def lambda_file(tmp_path):
    couplings = np.zeros((3, 3), dtype=complex)
    couplings[1, 0] = couplings[0, 1] = 0.1
    couplings[1, 2] = couplings[2, 1] = 0.1
    system = LevelSystem([0.0, 10.0, 0.0], couplings)
    path = tmp_path / "system.json"
    path.write_text(system.to_json())
    return path


class TestLambdaSim:
    def test_rabi_fit_accuracy(self, tmp_path, lambda_file):
        out = tmp_path / "traj.csv"
        summary = tmp_path / "summary.json"
        rc = main(
            ["lambda-sim", "--system", str(lambda_file), "--out", str(out),
             "--summary", str(summary)]
        )
        assert rc == 0
        doc = json.loads(summary.read_text())
        assert doc["relative_deviation"] < 1e-2

    def test_readme_system_predicts_the_bare_coupling(self, tmp_path, lambda_file):
        summary = tmp_path / "summary.json"
        assert main(["lambda-sim", "--system", str(lambda_file), "--out", str(tmp_path / "t.csv"),
                     "--summary", str(summary)]) == 0
        doc = json.loads(summary.read_text())
        # equal level shifts: hypot(|M|, 0) is |M|
        assert doc["predicted_rate"] == abs(complex(*doc["analytic_coupling"]))
        assert list(doc)[:2] == ["analytic_coupling", "predicted_rate"]
        eff = magnus_second_order(LevelSystem.from_json(lambda_file.read_text()))
        scale = np.max(np.abs(eff.matrix))
        assert doc["magnus_residual"] == np.max(np.abs(eff.matrix - eff.numeric_matrix)) / scale
        assert 0.0 < doc["magnus_residual"] < 1e-10

    def test_unequal_shifts_fit_the_detuned_rate(self, tmp_path):
        # shifts S_1 = -0.1^2 / 10, S_3 = -0.3^2 / 10 and M = -0.1 * 0.3 / 10:
        # the transfer oscillates at hypot(0.003, 0.004) = 0.005, not at |M|
        couplings = np.zeros((3, 3), dtype=complex)
        couplings[1, 0] = couplings[0, 1] = 0.1
        couplings[1, 2] = couplings[2, 1] = 0.3
        path = tmp_path / "detuned.json"
        path.write_text(LevelSystem([0.0, 10.0, 0.0], couplings).to_json())
        out, summary = tmp_path / "t.csv", tmp_path / "s.json"
        assert main(["lambda-sim", "--system", str(path), "--out", str(out),
                     "--summary", str(summary)]) == 0
        doc = json.loads(summary.read_text())
        assert doc["predicted_rate"] == pytest.approx(0.005, rel=1e-12)
        assert doc["relative_deviation"] < 1e-2
        assert abs(doc["fitted_rate"] - 0.003) / 0.003 > 0.5
        assert doc["magnus_residual"] < 1e-10
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        # detuned: the transfer peaks at (|M| / rate)^2 = 0.36
        assert np.max(rows[:, 5] ** 2 + rows[:, 6] ** 2) == pytest.approx(0.36, abs=1e-2)

    def test_rising_transfer_has_no_fitted_rate(self, tmp_path, lambda_file):
        # the transfer maximum is near t = 1571; at t = 300 the target level is
        # still filling, so the last sample is no maximum to fit
        out, summary = tmp_path / "traj.csv", tmp_path / "summary.json"
        rc = main(["lambda-sim", "--system", str(lambda_file), "--t-final", "300",
                   "--out", str(out), "--summary", str(summary)])
        assert rc == 0
        doc = json.loads(summary.read_text())
        assert doc["fitted_rate"] is None
        assert doc["relative_deviation"] is None
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        target = rows[:, 5] ** 2 + rows[:, 6] ** 2
        assert int(np.argmax(target)) == len(target) - 1

    def test_summary_records_norm_drift(self, tmp_path, lambda_file):
        summary = tmp_path / "summary.json"
        rc = main(["lambda-sim", "--system", str(lambda_file), "--out", str(tmp_path / "t.csv"),
                   "--summary", str(summary)])
        assert rc == 0
        doc = json.loads(summary.read_text())
        assert list(doc)[-2:] == ["max_norm_drift", "drift_tol"]
        assert doc["drift_tol"] == 1e-6
        assert 0.0 <= doc["max_norm_drift"] < 1e-12

    def test_zero_couplings_flat_file(self, tmp_path):
        system = LevelSystem([0.0, 10.0, 0.0], np.zeros((3, 3)))
        path = tmp_path / "flat.json"
        path.write_text(system.to_json())
        out = tmp_path / "traj.csv"
        rc = main(
            ["lambda-sim", "--system", str(path), "--t-final", "5.0", "--dt", "0.5",
             "--out", str(out), "--summary", str(tmp_path / "s.json")]
        )
        assert rc == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        pops = rows[:, 1::2] ** 2 + rows[:, 2::2] ** 2
        assert np.max(np.abs(pops - pops[0])) < 1e-12
        doc = json.loads((tmp_path / "s.json").read_text(), parse_constant=reject_constant)
        # no coupling: no period, no rate to predict and no Magnus cross-check; the
        # infinite period is undefined and written null, as JSON has no Infinity
        assert doc["period"] is None
        assert doc["predicted_rate"] is None and doc["relative_deviation"] is None
        assert doc["magnus_residual"] is None

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"energies": [0, 1, 0], "couplings": 7}')
        rc = main(["lambda-sim", "--system", str(bad), "--out", str(tmp_path / "t.csv"),
                   "--summary", str(tmp_path / "s.json")])
        assert rc == 2
        assert "couplings" in capsys.readouterr().err

    def test_coupling_entry_with_a_third_number_exit_2(self, tmp_path, lambda_file, capsys):
        doc = json.loads(lambda_file.read_text())
        doc["couplings"][0][1] = [0.1, 0, 7]
        bad = tmp_path / "three.json"
        bad.write_text(json.dumps(doc))
        out, summary = tmp_path / "t.csv", tmp_path / "s.json"
        rc = main(["lambda-sim", "--system", str(bad), "--out", str(out),
                   "--summary", str(summary)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "entry [0.1, 0, 7] is not an [re, im] pair of numbers" in err
        assert "Traceback" not in err
        assert not out.exists() and not summary.exists()

    @pytest.mark.parametrize("t_final", ["-1", "0"])
    def test_non_positive_t_final_names_the_flag(self, tmp_path, lambda_file, capsys, t_final):
        # the default dt is t_final / 4096, so the check must come before it
        out, summary = tmp_path / "t.csv", tmp_path / "s.json"
        rc = main(["lambda-sim", "--system", str(lambda_file), "--t-final", t_final,
                   "--out", str(out), "--summary", str(summary)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"--t-final must be positive, got {float(t_final)!r}" in err
        assert "dt" not in err.replace("--t-final", "")
        assert not out.exists() and not summary.exists()

    def test_non_finite_energy_exit_2(self, tmp_path, capsys):
        # json.loads accepts NaN, so the level system itself must reject it
        bad = tmp_path / "nan.json"
        zero = [[0.0, 0.0]] * 3
        bad.write_text('{"energies": [0.0, NaN, 0.0], "couplings": %s}' % json.dumps([zero] * 3))
        rc = main(["lambda-sim", "--system", str(bad), "--out", str(tmp_path / "t.csv"),
                   "--summary", str(tmp_path / "s.json")])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("energies", [[0.0, 1e308, -1e308], [-1e308, 0.0, 1.7e308]])
    def test_overflowing_energy_spread_exit_2(self, tmp_path, capsys, energies):
        # finite levels whose gap overflows to inf used to end in a traceback
        # from base_period (Fraction of inf / inf)
        couplings = np.zeros((3, 3), dtype=complex)
        couplings[1, 0] = couplings[0, 1] = couplings[1, 2] = couplings[2, 1] = 0.1
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"energies": energies,
                                    "couplings": LevelSystem([0.0, 10.0, 0.0], couplings)
                                    .to_json_dict()["couplings"]}))
        out, summary = tmp_path / "t.csv", tmp_path / "s.json"
        rc = main(["lambda-sim", "--system", str(path), "--out", str(out),
                   "--summary", str(summary)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "energy spread max - min = inf is not a finite float" in err
        assert "Traceback" not in err
        assert not out.exists() and not summary.exists()

    @pytest.mark.parametrize("couplings, message", [
        ([[[0, 0], [1.5e308, 1.5e308]], [[1.5e308, -1.5e308], [0, 0]]],
         "second-order couplings overflow"),
        ([[[0, 0], [6.5e307, 6.5e307]], [[-6.5e307, 6.5e307], [0, 0]]],
         "couplings must be Hermitian"),
        ([[[0, 0], [1.5e308, 1.5e308]], [[0.1, 0], [0, 0]]],
         "couplings must be Hermitian"),
    ])
    def test_overflowing_coupling_modulus_exit_2(self, tmp_path, capsys, couplings, message):
        # finite parts whose modulus overflows used to end in a traceback
        # from Python abs (OverflowError: absolute value too large)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"energies": [0.0, 1.0], "couplings": couplings}))
        out, summary = tmp_path / "t.csv", tmp_path / "s.json"
        rc = main(["lambda-sim", "--system", str(path), "--out", str(out),
                   "--summary", str(summary)])
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err and "Traceback" not in err
        assert not out.exists() and not summary.exists()

    def test_gap_ratio_below_the_fraction_grid_exit_4(self, tmp_path, capsys):
        couplings = np.zeros((3, 3), dtype=complex)
        couplings[0, 1] = couplings[1, 0] = 0.1
        couplings[1, 2] = couplings[2, 1] = 0.1
        path = tmp_path / "gaps.json"
        path.write_text(LevelSystem([-1e6, 1e6, 1e6 + 0.0015], couplings).to_json())
        out, summary = tmp_path / "t.csv", tmp_path / "s.json"
        rc = main(["lambda-sim", "--system", str(path), "--t-final", "1", "--dt", "0.001",
                   "--out", str(out), "--summary", str(summary)])
        assert rc == 4
        assert "is not a small rational" in capsys.readouterr().err
        assert not out.exists() and not summary.exists()

    def test_step_guard_maps_to_exit_3(self, tmp_path, lambda_file, monkeypatch):
        def explode(*args, **kwargs):
            raise StepTooLarge("synthetic drift")

        monkeypatch.setattr("qlambda.dynamics.evolve", explode)
        rc = main(["lambda-sim", "--system", str(lambda_file),
                   "--out", str(tmp_path / "t.csv"), "--summary", str(tmp_path / "s.json")])
        assert rc == 3

    def test_step_cap_exit_2(self, tmp_path, lambda_file, capsys):
        rc = main(["lambda-sim", "--system", str(lambda_file), "--t-final", "1e300",
                   "--dt", "1e-10", "--out", str(tmp_path / "t.csv"),
                   "--summary", str(tmp_path / "s.json")])
        assert rc == 2
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("levels", [["--initial-level", "1", "--target-level", "1"],
                                        ["--initial-level", "3"]])  # the default target is 3
    def test_target_equal_to_initial_exit_2(self, tmp_path, lambda_file, capsys, levels):
        out, summary = tmp_path / "t.csv", tmp_path / "s.json"
        rc = main(["lambda-sim", "--system", str(lambda_file), *levels,
                   "--out", str(out), "--summary", str(summary)])
        assert rc == 2
        assert "is the initial level" in capsys.readouterr().err
        assert not out.exists() and not summary.exists()

    def test_determinism_byte_identical(self, tmp_path, lambda_file):
        runs = []
        for name in ("a", "b"):
            out, summary = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            assert main(["lambda-sim", "--system", str(lambda_file), "--out", str(out),
                         "--summary", str(summary)]) == 0
            runs.append((out.read_bytes(), summary.read_bytes()))
        assert runs[0] == runs[1]


class TestAmplitudeCommands:
    def test_compton_cm_eta_one(self, tmp_path):
        out = tmp_path / "amp.json"
        rc = main(["compton", "--frame", "cm", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["eta"] == 1.0
        assert len(doc["parts"]) == 8

    def test_undefined_textbook_ratio_is_an_empty_csv_field(self, tmp_path):
        # forward scattering with crossed polarizations: the textbook total vanishes,
        # so the ratio is undefined
        out = tmp_path / "amp.csv"
        assert main(["compton", "--theta", "0", "--pols", "1", "2", "--format", "csv",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert "textbook_ratio," in lines
        values = [v for line in lines[1:] for v in line.split(",", 1)[1].split(";")]
        assert not set(values) & {"None", "nan", "inf", "-inf"}

    def test_moller_forward_exit_4(self, tmp_path):
        rc = main(["moller", "--theta", "0", "--out", str(tmp_path / "m.json")])
        assert rc == 4

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["compton", "--photon-energy", "0.7", "--theta", "1.1", "--beta", "0.3"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["compton", "--beta", "0.4"],
        ["compton", "--format", "csv"],
        ["moller", "--beta", "0.7", "--spins", "1", "2", "2", "1"],
        ["moller", "--format", "csv"],
    ])
    def test_guard_margins_recorded_byte_identical(self, tmp_path, argv):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        keys = ("min_denominator", "on_shell_residual", "conservation_residual")
        if "csv" in argv:
            lines = a.read_text().splitlines()
            assert [line.split(",")[0] for line in lines[-3:]] == [f"guard_margins.{k}" for k in keys]
        else:
            assert tuple(json.loads(a.read_text())["guard_margins"]) == keys

    def test_csv_format(self, tmp_path):
        out = tmp_path / "amp.csv"
        rc = main(["moller", "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("eta,") for line in lines)

    def test_constant_override_wins(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"m_e": 1.0}')
        out = tmp_path / "amp.json"
        rc = main(["moller", "--config", str(cfg), "--constant", "e", "0.5",
                   "--e-cm", "4.0", "--out", str(out)])
        assert rc == 0
        cfg_only = tmp_path / "amp2.json"
        assert main(["moller", "--config", str(cfg), "--e-cm", "4.0",
                     "--out", str(cfg_only)]) == 0
        doc_a = json.loads(out.read_text())
        doc_b = json.loads(cfg_only.read_text())
        # amplitude scales as e^2 through both couplings
        assert doc_a["total"] != doc_b["total"]

    @pytest.mark.parametrize("argv", [
        ["compton", "--spins", "3", "1"],
        ["compton", "--pols", "3", "1"],
        ["moller", "--spins", "3", "1", "1", "1"],
    ])
    def test_spin_and_polarization_choices_exit_2(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"plancks_breakfast": 3}')
        rc = main(["compton", "--config", str(cfg), "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "plancks_breakfast" in capsys.readouterr().err


ALPHA_RUNS = {
    "compton": (["compton", "--theta", "1.1"], ("--out",)),
    "moller": (["moller", "--e-cm", "3.0"], ("--out",)),
    "boost-scan": (["boost-scan", "--process", "moller", "--betas", "0", "0.5"], ("--out",)),
    "vacpol": (["vacpol", "--cutoff", "1000", "--n-radial", "48", "--n-theta", "8"],
               ("--out", "--summary")),
}


class TestConstantsResolution:
    @pytest.mark.parametrize("command", sorted(ALPHA_RUNS))
    def test_alpha_flag_matches_config_key(self, tmp_path, command):
        """--constant alpha derives e exactly as an alpha key in --config does."""
        argv, outputs = ALPHA_RUNS[command]
        cfg = tmp_path / "alpha.json"
        cfg.write_text('{"alpha": 0.01}')
        runs = []
        for tag, source in (("flag", ["--constant", "alpha", "0.01"]),
                            ("config", ["--config", str(cfg)]),
                            ("default", [])):
            paths = [tmp_path / f"{tag}{i}.out" for i in range(len(outputs))]
            files = [arg for flag, path in zip(outputs, paths) for arg in (flag, str(path))]
            assert main(argv + source + files) == 0
            runs.append([path.read_bytes() for path in paths])
        assert runs[0] == runs[1] != runs[2]

    @pytest.mark.parametrize("argv", [
        ["vacpol", "--constant", "e", "1e-200"],
        ["vacpol", "--constant", "e", "1e200"],
        ["compton", "--constant", "e", "1e200"],
        ["moller", "--constant", "e", "1e-200"],
        ["boost-scan", "--process", "compton", "--constant", "V", "1e-300",
         "--constant", "e", "1e150"],
    ])
    def test_unrepresentable_coupling_scale_exit_2(self, tmp_path, capsys, argv):
        out, summary = tmp_path / "x.out", tmp_path / "s.json"
        extra = ["--summary", str(summary)] if argv[0] == "vacpol" else []
        assert main(argv + ["--out", str(out)] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "coupling scale" in err
        assert not out.exists() and not summary.exists()


@pytest.mark.parametrize("argv", [
    ["compton", "--theta", "nan"],
    ["compton", "--theta", "inf"],
    ["compton", "--photon-energy", "inf"],
    ["compton", "--beta", "nan"],
    ["moller", "--theta", "inf"],
    ["moller", "--theta", "nan"],
    ["moller", "--e-cm", "nan"],
    ["boost-scan", "--process", "compton", "--theta", "nan"],
    ["boost-scan", "--process", "moller", "--betas", "0", "nan"],
    ["lambda-sim", "--t-final", "inf"],
    ["lambda-sim", "--dt", "inf"],
])
def test_non_finite_float_flag_exit_2(tmp_path, lambda_file, argv):
    if argv[0] == "lambda-sim":
        argv = argv + ["--system", str(lambda_file), "--summary", str(tmp_path / "s.json")]
    assert exit_code(argv + ["--out", str(tmp_path / "x.out")]) == 2
    assert not (tmp_path / "x.out").exists()


# documents that once ended in a traceback, as (flag, body, message): an integer
# literal past the float range (constants only: a level document already exited
# 2), one past the digit limit (past the float range where there is no limit, so
# either message), arrays nested past the recursion limit and a file that starts
# with the UTF-16 byte-order mark ff fe; the string and boolean energies once ran
# and exited 0
LAMBDA_COUPLINGS = (b"[[[0, 0], [0.1, 0], [0, 0]], [[0.1, 0], [0, 0], [0.1, 0]], "
                    b"[[0, 0], [0.1, 0], [0, 0]]]")
UNREADABLE_DOCUMENTS = [
    ("--config", b'{"m_e": 1' + b"0" * 399 + b"}",
     "constants key 'm_e' is an integer too large for a float"),
    ("--config", b'{"m_e": 1' + b"0" * 4999 + b"}", ""),
    ("--config", b"[" * 100000, "cannot read constants file"),
    ("--config", b'\xff\xfe{"m_e": 2.0}', "cannot read constants file"),
    ("--system",
     b'{"energies": [0, 1' + b"0" * 4999 + b', 0], "couplings": ' + LAMBDA_COUPLINGS + b"}", ""),
    ("--system", b"[" * 100000, "cannot read system file"),
    ("--system", b'\xff\xfe{"energies": [0, 1, 0]}', "cannot read system file"),
    ("--system", b'{"energies": ["0", "10", "0"], "couplings": ' + LAMBDA_COUPLINGS + b"}",
     "malformed key 'energies': each energy must be a number, got '0'"),
    ("--system", b'{"energies": [false, 10, 0], "couplings": ' + LAMBDA_COUPLINGS + b"}",
     "malformed key 'energies': each energy must be a number, got False"),
]


@pytest.mark.parametrize("flag, body, message", UNREADABLE_DOCUMENTS, ids=[
    "config-400-digits", "config-5000-digits", "config-deep", "config-utf16",
    "system-5000-digits", "system-deep", "system-utf16", "system-string-energies",
    "system-bool-energies"])
def test_unreadable_document_exit_2_without_traceback(tmp_path, capsys, flag, body, message):
    doc = tmp_path / "doc.json"
    doc.write_bytes(body)
    out, summary = tmp_path / "out", tmp_path / "summary.json"
    if flag == "--config":
        argv = ["compton", "--config", str(doc), "--out", str(out)]
    else:
        argv = ["lambda-sim", "--system", str(doc), "--out", str(out), "--summary", str(summary)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err
    assert "Traceback" not in err
    assert "0" * 300 not in err  # an over-long integer is not echoed
    assert not out.exists() and not summary.exists()


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="no digit limit")
@pytest.mark.parametrize("flag", ["--config", "--system"])
def test_digit_limit_named_in_qlambda_terms(tmp_path, capsys, flag):
    # the interpreter's own message tells the user to call sys.set_int_max_str_digits()
    big = b"1" + b"0" * 4999
    doc, out = tmp_path / "doc.json", tmp_path / "out"
    if flag == "--config":
        doc.write_bytes(b'{"m_e": ' + big + b"}")
        argv, what = ["compton", "--config", str(doc), "--out", str(out)], "constants file"
    else:
        doc.write_bytes(
            b'{"energies": [0, ' + big + b', 0], "couplings": ' + LAMBDA_COUPLINGS + b"}")
        argv = ["lambda-sim", "--system", str(doc), "--out", str(out), "--summary", str(out)]
        what = "system file"
    assert main(argv) == 2
    limit = sys.get_int_max_str_digits()
    assert capsys.readouterr().err == (
        f"configuration error: cannot read {what} {str(doc)!r}: invalid JSON: "
        f"an integer literal exceeds the limit of {limit} digits\n")
    assert not out.exists()


def test_unreadable_document_subprocess_stderr(tmp_path):
    """The console entry point prints one message line and no traceback."""
    doc = tmp_path / "doc.json"
    doc.write_bytes(b"\xff\xfe{}")
    env = dict(os.environ, PYTHONPATH=str(Path(qlambda.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "qlambda.cli", "lambda-sim", "--system", str(doc),
         "--out", str(tmp_path / "t.csv"), "--summary", str(tmp_path / "s.json")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"configuration error: cannot read system file {str(doc)!r}: ")
    assert "Traceback" not in proc.stderr


class TestVacpol:
    def test_summary_slope_window(self, tmp_path):
        out = tmp_path / "conv.csv"
        summary = tmp_path / "sum.json"
        rc = main(["vacpol", "--cutoff", "1000", "--n-radial", "48", "--n-theta", "8",
                   "--n-phi", "4", "--out", str(out), "--summary", str(summary)])
        assert rc == 0
        doc = json.loads(summary.read_text())
        assert -4.2 < doc["fitted_slope"] < -3.8
        assert doc["pair_shift"] < 0.0
        header = out.read_text().splitlines()[0]
        assert header == "cutoff,partial_sum,tail_estimate"

    def test_cutoff_doubling_stability(self, tmp_path):
        values = {}
        for cutoff in ("1000", "2000"):
            summary = tmp_path / f"s{cutoff}.json"
            rc = main(["vacpol", "--cutoff", cutoff, "--n-radial", "48", "--n-theta", "8",
                       "--n-phi", "4", "--out", str(tmp_path / f"c{cutoff}.csv"),
                       "--summary", str(summary)])
            assert rc == 0
            values[cutoff] = json.loads(summary.read_text())["pair_shift"]
        change = abs(values["1000"] - values["2000"]) / abs(values["2000"])
        assert change < 0.02

    def test_threshold_exit_4(self, tmp_path):
        rc = main(["vacpol", "--cutoff", "1000", "--photon-energy", "5.0",
                   "--out", str(tmp_path / "c.csv"), "--summary", str(tmp_path / "s.json")])
        assert rc == 4

    @pytest.mark.parametrize("energy", ["-3.0", "-2.5"])
    def test_negative_threshold_exit_4(self, tmp_path, capsys, energy):
        # the bracket's second pole sits at photon energy -(E + E')
        out, summary = tmp_path / "c.csv", tmp_path / "s.json"
        rc = main(["vacpol", "--photon-energy", energy, "--out", str(out),
                   "--summary", str(summary)])
        assert rc == 4
        assert f"photon energy {energy} reaches the pair threshold" in capsys.readouterr().err
        assert not out.exists() and not summary.exists()

    def test_negative_energy_inside_window_runs(self, tmp_path):
        summary = tmp_path / "s.json"
        rc = main(["vacpol", "--photon-energy", "-1.0", "--out", str(tmp_path / "c.csv"),
                   "--summary", str(summary)])
        assert rc == 0
        assert json.loads(summary.read_text())["pair_shift"] < 0.0

    def test_coarse_grid_exit_5(self, tmp_path):
        rc = main(["vacpol", "--cutoff", "1000", "--n-radial", "4",
                   "--out", str(tmp_path / "c.csv"), "--summary", str(tmp_path / "s.json")])
        assert rc == 5

    @pytest.mark.parametrize("argv", [
        ["--cutoff", "nan"],
        ["--cutoff", "inf"],
        ["--k", "nan", "0", "0.5"],
        ["--photon-energy", "nan"],
        ["--refine-tol", "nan"],
    ])
    def test_non_finite_input_exit_2(self, tmp_path, argv):
        rc = exit_code(["vacpol"] + argv + ["--out", str(tmp_path / "c.csv"),
                                            "--summary", str(tmp_path / "s.json")])
        assert rc == 2

    def test_negative_refine_tol_exit_2(self, tmp_path, capsys):
        out, summary = tmp_path / "c.csv", tmp_path / "s.json"
        rc = main(["vacpol", "--refine-tol", "-1", "--out", str(out), "--summary", str(summary)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("configuration error: refine_tol must be >= 0")
        assert not out.exists() and not summary.exists()

    def test_zero_refine_tol_reaches_the_guard(self, tmp_path):
        # 0 passes the boundary; on 16 radial panels doubling the grid moves the
        # result by a real discretisation error (6.8e-6 at the default cutoff),
        # where the default grid's move is rounding noise and can be exactly 0
        rc = main(["vacpol", "--refine-tol", "0", "--n-radial", "16",
                   "--out", str(tmp_path / "c.csv"), "--summary", str(tmp_path / "s.json")])
        assert rc == 5

    @pytest.mark.parametrize("argv", [
        ["--cutoff", "1e95"],
        ["--cutoff", "1e103"],
        ["--n-theta", "100000"],
        ["--n-radial", "10000000"],
    ])
    def test_out_of_range_exit_2(self, tmp_path, capsys, argv):
        out, summary = tmp_path / "c.csv", tmp_path / "s.json"
        rc = main(["vacpol"] + argv + ["--out", str(out), "--summary", str(summary)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not out.exists() and not summary.exists()

    def test_largest_cutoff_runs(self, tmp_path):
        summary = tmp_path / "s.json"
        rc = main(["vacpol", "--cutoff", "1e60", "--out", str(tmp_path / "c.csv"),
                   "--summary", str(summary)])
        assert rc == 0
        doc = json.loads(summary.read_text())
        assert doc["pair_shift"] < 0.0
        assert -4.2 < doc["fitted_slope"] < -3.8

    def test_default_run_byte_identical_with_refine_delta(self, tmp_path):
        def run(tag):
            out, summary = tmp_path / f"c{tag}.csv", tmp_path / f"s{tag}.json"
            assert main(["vacpol", "--out", str(out), "--summary", str(summary)]) == 0
            return out.read_bytes(), summary.read_bytes()

        first = run("a")
        assert first == run("b")
        doc = json.loads(first[1])
        assert list(doc)[:3] == ["pair_shift", "fitted_slope", "refine_delta"]
        assert 0.0 <= doc["refine_delta"] < 0.01

    def test_default_run_pinned(self, tmp_path):
        # values of the default run before the allocation-light kernel and the
        # closed-form slope; refine_delta is rounding noise on this grid and is not pinned
        summary = tmp_path / "s.json"
        assert main(["vacpol", "--out", str(tmp_path / "c.csv"), "--summary", str(summary)]) == 0
        doc = json.loads(summary.read_text())
        assert doc["pair_shift"] == pytest.approx(-0.00094731211024436806, rel=1e-14, abs=0.0)
        assert doc["fitted_slope"] == pytest.approx(-3.999966192609604, rel=1e-14, abs=0.0)

    def test_thread_cap_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QLAMBDA_THREADS", "not-a-number")
        rc = main(["vacpol", "--cutoff", "1000", "--out", str(tmp_path / "c.csv"),
                   "--summary", str(tmp_path / "s.json")])
        assert rc == 2

    def test_threaded_run_matches_serial(self, tmp_path, monkeypatch):
        def run(threads):
            if threads:
                monkeypatch.setenv("QLAMBDA_THREADS", threads)
            else:
                monkeypatch.delenv("QLAMBDA_THREADS", raising=False)
            summary = tmp_path / f"s{threads}.json"
            rc = main(["vacpol", "--cutoff", "1000", "--n-radial", "32", "--n-theta", "8",
                       "--n-phi", "4", "--out", str(tmp_path / f"c{threads}.csv"),
                       "--summary", str(summary)])
            assert rc == 0
            return summary.read_bytes()

        assert run("") == run("4")


class TestBoostScan:
    def test_vanishing_reference_exit_4_without_traceback(self, tmp_path):
        """Backscattered Moller with all spins 1 has a zero amplitude at beta = 0."""
        out = tmp_path / "scan.csv"
        env = dict(os.environ, PYTHONPATH=str(Path(qlambda.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "qlambda.cli", "boost-scan", "--process", "moller",
             "--theta", "3.141592653589793", "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 4
        assert proc.stderr.startswith("physics domain error: reference amplitude vanishes")
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_determinism_byte_identical(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            assert main(["boost-scan", "--process", "compton", "--betas", "0", "0.3", "0.9",
                         "--theta", "2.2", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_single_beta_zero(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main(["boost-scan", "--process", "compton", "--betas", "0", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        row = [float(v) for v in lines[2].split(",")]
        assert row[3] == 1.0

    def test_eta_column(self, tmp_path):
        out = tmp_path / "scan.csv"
        betas = [0.0, 0.2, 0.4, 0.6, 0.8]
        rc = main(["boost-scan", "--process", "moller",
                   "--betas"] + [str(b) for b in betas] + ["--out", str(out)])
        assert rc == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=2)
        assert np.max(np.abs(rows[:, 1] - np.sqrt(1 - rows[:, 0] ** 2))) < 1e-12

    def test_superluminal_beta_exit_2(self, tmp_path):
        rc = main(["boost-scan", "--process", "compton", "--betas", "1.0",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2

    def test_normalization_recorded_and_eta_unchanged(self, tmp_path):
        files = {}
        for norm in ("box", "covariant"):
            out = tmp_path / f"{norm}.csv"
            rc = main(["boost-scan", "--process", "compton", "--betas", "0", "0.5",
                       "--normalization", norm, "--out", str(out)])
            assert rc == 0
            files[norm] = out.read_text().splitlines()
        assert files["box"][0].endswith("normalization=box")
        assert files["covariant"][0].endswith("normalization=covariant")
        for line_box, line_cov in zip(files["box"][2:], files["covariant"][2:]):
            eta_box = float(line_box.split(",")[1])
            eta_cov = float(line_cov.split(",")[1])
            assert eta_box == eta_cov


class TestOverflowingKinematics:
    @pytest.mark.parametrize("argv", [
        ["compton", "--photon-energy", "1e300"],
        ["compton", "--frame", "rest", "--photon-energy", "1e200"],
        ["moller", "--e-cm", "1e300"],
        ["boost-scan", "--process", "moller", "--e-cm", "1e300"],
        ["compton", "--beta", "0.9999999999999999"],
    ])
    def test_exit_4_with_a_true_message(self, tmp_path, capsys, argv):
        out = tmp_path / "artifact"
        assert main(argv + ["--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("physics domain error: ")
        assert "Traceback" not in err
        assert "eta must lie" not in err
        assert "np.float64(" not in err
        assert not out.exists()
        if argv[-1] != "0.9999999999999999":
            assert "kinematics overflowed" in err


class TestTinyPhotonEnergy:
    def test_vanishing_denominator_not_zero_wavevector(self, tmp_path, capsys):
        # |k|^2 underflows at 1e-300, but k itself is nonzero: the run reaches
        # the pole guard of the forward ordering, whose denominator rounds to 0
        out = tmp_path / "amplitude.json"
        assert main(["compton", "--photon-energy", "1e-300", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("physics domain error: channel 1 forward ordering: "
                              "energy denominator")
        assert "k = 0" not in err
        assert not out.exists()


class TestTinyWavevectorVacpol:
    def test_summary_is_strict_json(self, tmp_path):
        shifts = []
        for size in ("1e-300", "1e-160", "1e-8"):
            summary = tmp_path / f"s{size}.json"
            rc = main(["vacpol", "--k", size, "0", "0", "--out", str(tmp_path / "c.csv"),
                       "--summary", str(summary)])
            assert rc == 0
            doc = json.loads(summary.read_text(), parse_constant=reject_constant)
            assert doc["photon_energy"] == float(size)
            shifts.append(doc["pair_shift"])
        assert max(shifts) - min(shifts) <= 1e-12 * abs(shifts[-1])


class TestUnderflowingVacpol:
    """Runs whose tiny mass or coupling once underflowed to 0 or NaN, in a fresh
    interpreter so that any warning on stderr shows."""

    def run(self, tmp_path, argv):
        out, summary = tmp_path / "c.csv", tmp_path / "s.json"
        env = dict(os.environ, PYTHONPATH=str(Path(qlambda.__file__).parents[1]))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "qlambda.cli", "vacpol", *argv, "--out", str(out),
             "--summary", str(summary)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")

        return json.loads(summary.read_text(), parse_constant=reject_constant)

    def test_tiny_mass_scales_the_natural_run(self, tmp_path):
        from qlambda.vacuum import total_shift

        doc = self.run(tmp_path, ["--constant", "m_e", "1e-150", "--k", "0", "0", "1e-150",
                                  "--photon-energy", "1e-150", "--cutoff", "1e-140"])
        reference, report = total_shift([0.0, 0.0, 1.0], 1e10, photon_energy=1.0)
        assert doc["pair_shift"] == pytest.approx(1e-150 * reference, rel=1e-13, abs=0.0)
        assert doc["refine_delta"] == pytest.approx(report.refine_delta, rel=1e-2)
        assert -4.2 < doc["fitted_slope"] < -3.8

    def test_tiny_coupling_has_a_slope(self, tmp_path):
        doc = self.run(tmp_path, ["--constant", "e", "1e-150", "--cutoff", "1e60"])
        assert doc["pair_shift"] < 0.0
        assert -4.2 < doc["fitted_slope"] < -3.8


class TestOverflowingVacpol:
    """Runs whose coupling overflows -2 P0 or the integral, in a fresh interpreter under
    error::RuntimeWarning: each exits 2 with one message and writes no artifact."""

    @pytest.mark.parametrize("argv, message", [
        (["--constant", "eps0", "6e-310"], "density scale -2 (e c hbar)^2 / (V eps0) is not "
                                           "a finite float"),
        (["--constant", "e", "1.2e154"], "density scale -2 (e c hbar)^2 / (V eps0) is not "
                                         "a finite float"),
        (["--constant", "m_e", "1e50", "--k", "0", "0", "1e50", "--cutoff", "1e52",
          "--constant", "e", "1e131"], "the pair shift overflows: -2 P0 = "
                                       "-1.9999999999999997e+262 is too large for these "
                                       "momenta"),
    ])
    def test_exits_2_without_artifacts(self, tmp_path, argv, message):
        out, summary = tmp_path / "c.csv", tmp_path / "s.json"
        env = dict(os.environ, PYTHONPATH=str(Path(qlambda.__file__).parents[1]),
                   PYTHONWARNINGS="error::RuntimeWarning")
        proc = subprocess.run(
            [sys.executable, "-m", "qlambda.cli", "vacpol", *argv, "--out", str(out),
             "--summary", str(summary)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"configuration error: {message}\n"
        assert not out.exists() and not summary.exists()


class TestUndefinedVacpolDiagnostics:
    """A slope that is undefined is written as null, in a fresh interpreter under
    error::RuntimeWarning, where it was once written as NaN; a total that underflows
    keeps a finite refinement delta."""

    def run(self, tmp_path, argv):
        out, summary = tmp_path / "c.csv", tmp_path / "s.json"
        env = dict(os.environ, PYTHONPATH=str(Path(qlambda.__file__).parents[1]),
                   PYTHONWARNINGS="error::RuntimeWarning")
        proc = subprocess.run(
            [sys.executable, "-m", "qlambda.cli", "vacpol", *argv, "--out", str(out),
             "--summary", str(summary)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")

        return json.loads(summary.read_text(), parse_constant=reject_constant)

    def test_one_radius_fit_window(self, tmp_path):
        doc = self.run(tmp_path, ["--n-radial", "4", "--n-theta", "8", "--cutoff", "1e6",
                                  "--refine-tol", "100"])
        assert doc["fitted_slope"] is None
        assert doc["pair_shift"] < 0.0 and 0.0 < doc["refine_delta"] < 100.0

    def test_underflowed_fit_window(self, tmp_path):
        # the top edges' unit-coupling profile, about m^2 / r^4 = 1e-420, underflows to
        # zero; the slope fit once warned as it took the log of those zeros
        doc = self.run(tmp_path, ["--constant", "m_e", "1e-150", "--k", "0", "0", "5e-151",
                                  "--cutoff", "1e30"])
        assert doc["fitted_slope"] is None
        assert doc["pair_shift"] < 0.0 and 0.0 < doc["refine_delta"] < 0.01

    def test_underflowing_total(self, tmp_path):
        # the total times P0 underflows to zero, and once wrote refine_delta as null;
        # the delta is the move of the unit-coupling sums, the same at every charge
        args = ["--constant", "m_e", "1e-150", "--k", "0", "0", "5e-151", "--cutoff", "1e-146"]
        doc = self.run(tmp_path, [*args, "--constant", "e", "1.5e-154"])
        natural = self.run(tmp_path, args)
        assert doc["refine_delta"] == natural["refine_delta"] and 0.0 < doc["refine_delta"] < 1e-13
        assert doc["pair_shift"] == 0.0 and -4.2 < doc["fitted_slope"] < -3.8

    def test_largest_finite_shift(self, tmp_path):
        # the shift is 1e260 times the e = 1 run, a finite float; e = 1e131 exits 2
        doc = self.run(tmp_path, ["--constant", "m_e", "1e50", "--k", "0", "0", "1e50",
                                  "--cutoff", "1e52", "--constant", "e", "1e130"])
        assert -1.8e308 < doc["pair_shift"] < -1e308


class TestFormatFlag:
    @pytest.mark.parametrize("command", [
        ["boost-scan", "--process", "compton"],
        ["vacpol", "--summary", "{summary}"],
        ["lambda-sim", "--system", "{system}", "--summary", "{summary}"],
    ])
    def test_json_rejected_by_csv_commands(self, tmp_path, capsys, lambda_file, command):
        out = tmp_path / "out.json"
        summary = tmp_path / "summary.json"
        argv = [a.format(system=lambda_file, summary=summary) for a in command]
        assert main(argv + ["--format", "json", "--out", str(out)]) == 2
        assert "writes CSV only" in capsys.readouterr().err
        assert not out.exists() and not summary.exists()

    @pytest.mark.parametrize("command", [
        ["boost-scan", "--process", "compton", "--betas", "0", "0.5"],
        ["boost-scan", "--process", "moller", "--betas", "0", "0.5"],
        ["vacpol", "--n-radial", "16", "--cutoff", "1e3"],
    ])
    def test_csv_same_bytes_as_default(self, tmp_path, command):
        outputs = []
        for name, flag in (("plain", []), ("csv", ["--format", "csv"])):
            out = tmp_path / f"{name}.csv"
            extra = ["--summary", str(tmp_path / f"{name}.json")] if command[0] == "vacpol" else []
            assert main(command + flag + extra + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_amplitude_commands_default_to_json(self, tmp_path):
        for command in ("compton", "moller"):
            plain, explicit = tmp_path / f"{command}.json", tmp_path / f"{command}-json.json"
            assert main([command, "--out", str(plain)]) == 0
            assert main([command, "--format", "json", "--out", str(explicit)]) == 0
            assert plain.read_bytes() == explicit.read_bytes()
            json.loads(plain.read_text())


class TestExtremeConstantsAndSteps:
    """Inputs the seeded CLI fuzzing found ending in a traceback or a warning."""

    @pytest.mark.parametrize("argv, code, message", [
        (["compton", "--constant", "alpha", "-1"], 2, "constant 'alpha' must be strictly positive"),
        (["compton", "--constant", "m_e", "1e-300"], 2, "m_e^2 underflows"),
        (["vacpol", "--constant", "m_e", "5e-324"], 2, "m_e^2 underflows"),
        (["compton", "--photon-energy", "1e308", "--beta", "0.5"], 4, "kinematics overflowed"),
    ])
    def test_amplitude_and_vacpol_commands(self, tmp_path, capsys, argv, code, message):
        out = tmp_path / "artifact"
        assert exit_code(argv + ["--out", str(out)]) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, code, message", [
        (["--constant", "hbar", "5e-324"], 2, "level gaps / hbar overflow"),
        (["--dt", "1e308"], 3, "phase lambda t / hbar overflows"),
    ])
    def test_lambda_sim(self, tmp_path, capsys, lambda_file, argv, code, message):
        argv = ["lambda-sim", "--system", str(lambda_file), "--out", str(tmp_path / "t.csv"),
                "--summary", str(tmp_path / "s.json")] + argv
        assert exit_code(argv) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("gap, code", [(10.0, 0), (1.0, 2)])
    def test_lambda_sim_common_period(self, tmp_path, capsys, gap, code):
        # 2 pi hbar overflows at hbar = 1e308; the period 2 pi hbar / gap fits
        # in a float for gap 10 and overflows for gap 1
        couplings = [[0, 0.1, 0], [0.1, 0, 0.1], [0, 0.1, 0]]
        system = tmp_path / "system.json"
        system.write_text(LevelSystem([0.0, gap, 0.0], couplings).to_json())
        summary = tmp_path / "s.json"
        argv = ["lambda-sim", "--system", str(system), "--out", str(tmp_path / "t.csv"),
                "--summary", str(summary), "--constant", "hbar", "1e308",
                "--t-final", "1e306", "--dt", "1e303"]
        assert exit_code(argv) == code
        if code == 2:
            err = capsys.readouterr().err
            assert "common period inf" in err and "Traceback" not in err
            assert not summary.exists()
        else:
            report = json.loads(summary.read_text())
            assert report["period"] == pytest.approx(2.0 * math.pi * 1e307, rel=1e-15)
            assert report["magnus_residual"] < 1e-12
