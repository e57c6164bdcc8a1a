"""Few-level effective couplings, scattering amplitudes, and momentum-sum
convergence diagnostics.

The package namespace is lazy (PEP 562): each public name, and each
submodule, is imported on first access, so `import qlambda` loads nothing
else and the amplitude path never loads numpy.
"""
import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "AmplitudeResult",
        "BoostScanTable",
        "CouplingFactor",
        "DiagramAmplitude",
        "boost_scan",
        "compton_pair_A",
        "compton_pair_B",
        "compton_total",
        "coupling_factor",
        "moller_total",
    ), "amplitudes"),
    **dict.fromkeys((
        "BiSpinor",
        "PolarizationVector",
        "boost_spinor",
        "gamma_set",
        "polarization_pair",
        "slash",
        "spin_block",
        "spin_sum",
        "u_spinor",
        "ubar",
        "vertex_bilinear",
    ), "dirac"),
    **dict.fromkeys((
        "EffectiveHamiltonian",
        "LevelSystem",
        "Trajectory",
        "base_period",
        "effective_coupling",
        "eliminate_pair_level",
        "evolve",
        "interaction_frame",
        "magnus_second_order",
        "two_level_transfer",
    ), "dynamics"),
    **dict.fromkeys((
        "NATURAL",
        "Boost",
        "Constants",
        "FourVector",
        "boost",
        "boost_matrix",
        "cm_boost",
        "compton_cm_kinematics",
        "compton_kinematics",
        "eta",
        "invariant_mass",
        "load_constants",
        "minkowski_dot",
        "moller_kinematics",
        "on_shell_energy",
    ), "lorentz"),
    **dict.fromkeys((
        "ConvergenceReport",
        "CorrectedAmplitude",
        "GridSpec",
        "PairShiftSample",
        "cm_correction_factor",
        "corrected_amplitude",
        "corrected_pair_coupling",
        "correction_factor",
        "outgoing_eta",
        "pair_coupling",
        "pair_shift_sample",
        "shift_density",
        "total_shift",
    ), "vacuum"),
}

__all__ = list(_EXPORTS)

_SUBMODULES = ("amplitudes", "cli", "dirac", "dynamics", "errors", "jsonio", "lorentz",
               "pauli", "vacuum")


def __getattr__(name):
    if name in _SUBMODULES:  # `import qlambda; qlambda.vacuum` as with eager imports
        return importlib.import_module(f".{name}", __name__)
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
