"""The lazy package namespace: every public name resolves to its submodule's object."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qlambda

# the public names of the package, by defining submodule
PUBLIC = {
    "amplitudes": ("AmplitudeResult", "BoostScanTable", "CouplingFactor", "DiagramAmplitude",
                   "boost_scan", "compton_pair_A", "compton_pair_B", "compton_total",
                   "coupling_factor", "moller_total"),
    "dirac": ("BiSpinor", "PolarizationVector", "boost_spinor", "gamma_set",
              "polarization_pair", "slash", "spin_block", "spin_sum", "u_spinor", "ubar",
              "vertex_bilinear"),
    "dynamics": ("EffectiveHamiltonian", "LevelSystem", "Trajectory", "base_period",
                 "effective_coupling", "eliminate_pair_level", "evolve", "interaction_frame",
                 "magnus_second_order", "two_level_transfer"),
    "lorentz": ("NATURAL", "Boost", "Constants", "FourVector", "boost", "boost_matrix",
                "cm_boost", "compton_cm_kinematics", "compton_kinematics", "eta",
                "invariant_mass", "load_constants", "minkowski_dot", "moller_kinematics",
                "on_shell_energy"),
    "vacuum": ("ConvergenceReport", "CorrectedAmplitude", "GridSpec", "PairShiftSample",
               "cm_correction_factor", "corrected_amplitude", "corrected_pair_coupling",
               "correction_factor", "outgoing_eta", "pair_coupling", "pair_shift_sample",
               "shift_density", "total_shift"),
}


def test_all_lists_the_public_names():
    assert sorted(qlambda.__all__) == sorted(n for names in PUBLIC.values() for n in names)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_names_are_the_submodule_objects(module):
    submodule = importlib.import_module(f"qlambda.{module}")
    for name in PUBLIC[module]:
        assert getattr(qlambda, name) is getattr(submodule, name), name


def test_dir_lists_every_public_name():
    listing = dir(qlambda)
    assert set(qlambda.__all__) <= set(listing)
    assert "__version__" in listing


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        qlambda.not_a_name  # noqa: B018
    assert not hasattr(qlambda, "pauli_block")


def test_submodules_import_from_the_package():
    from qlambda import cli, dirac

    assert cli.main is importlib.import_module("qlambda.cli").main
    assert dirac.u_spinor is qlambda.u_spinor
    assert qlambda.vacuum is importlib.import_module("qlambda.vacuum")


def test_import_loads_no_submodule_and_no_numpy():
    code = ("import json, sys, qlambda; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m == 'numpy' or m.startswith('qlambda'))))")
    env = dict(os.environ, PYTHONPATH=str(Path(qlambda.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["qlambda"]


def test_no_library_module_loads_the_dirac_reference():
    # the 4x4 gamma-matrix layer is reference-only: every vertex runs on `pauli`
    code = ("import sys, qlambda.amplitudes, qlambda.cli, qlambda.dynamics, qlambda.vacuum; "
            "print(sorted(m for m in sys.modules if m.startswith('qlambda')))")
    env = dict(os.environ, PYTHONPATH=str(Path(qlambda.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "qlambda.dirac" not in proc.stdout and "qlambda.vacuum" in proc.stdout
