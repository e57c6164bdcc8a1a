"""The value types: construction, equality, repr, hash, immutability and checks.

Every value type is a namedtuple record. Its fields, defaults, keyword
construction, `==`, `repr` and hash, and the errors its constructor raises,
are part of the API.
"""
import math

import numpy as np
import pytest

from qlambda import amplitudes, dirac, dynamics, lorentz, vacuum
from qlambda.amplitudes import (
    AmplitudeResult,
    BoostScanRow,
    BoostScanTable,
    CouplingFactor,
    DiagramAmplitude,
)
from qlambda.dirac import BiSpinor, PolarizationVector
from qlambda.dynamics import EffectiveHamiltonian, LevelSystem, Trajectory
from qlambda.errors import ConfigError, OffShellInput, SuperluminalBoost
from qlambda.lorentz import ALPHA_FS, NATURAL, Boost, Constants, FourVector
from qlambda.vacuum import ConvergenceReport, CorrectedAmplitude, GridSpec, PairShiftSample

ARRAY = np.arange(3.0)
ROW = BoostScanRow(0.5, 0.8, 1.0, 1.0, 0.8)
PART = DiagramAmplitude("1a:s=1", 1j, 2.0, -0.5)
RESULT = AmplitudeResult("moller", 1j, (PART,), 1.0, 1j)

# type -> (required fields by keyword, the defaults of the other fields); the
# field order is the order of the two mappings
RECORDS = {
    Constants: ({}, {"hbar": 1.0, "c": 1.0, "eps0": 1.0,
                     "e": math.sqrt(4.0 * math.pi * ALPHA_FS), "m_e": 1.0, "V": 1.0,
                     "alpha": ALPHA_FS}),
    FourVector: ({"t": 2.0}, {"x": 0.0, "y": 0.0, "z": 0.0}),
    Boost: ({}, {"beta": (0.0, 0.0, 0.0)}),
    CouplingFactor: ({"value": 0.3, "eta": 0.5, "energy": 2.0, "volume": 1.0}, {}),
    DiagramAmplitude: ({"name": "1a:s=1", "omega1": 1j, "omega2": 2.0, "denom": -0.5},
                       {"weight": 1.0}),
    AmplitudeResult: ({"process": "compton", "total": 1j, "parts": (PART,), "eta": 1.0,
                       "closed_form": 1j},
                      {"frame": None, "textbook_total": None, "textbook_ratio": None,
                       "provenance": {}}),
    BoostScanRow: ({"beta": 0.5, "eta": 0.8, "amplitude_abs": 1.0, "ratio_to_cm": 1.0,
                    "inverse_gamma": 0.8}, {}),
    BoostScanTable: ({"process": "compton", "normalization": "box", "rows": (ROW,)}, {}),
    BiSpinor: ({"components": ARRAY, "momentum": ARRAY, "spin": 1, "mass": 1.0},
               {"normalization": "box"}),
    PolarizationVector: ({"components": ARRAY, "wavevector": ARRAY, "alpha": 1}, {}),
    LevelSystem: ({"energies": [0.0, 1.0], "couplings": [[0.0, 0.1], [0.1, 0.0]]}, {}),
    Trajectory: ({"times": ARRAY, "states": ARRAY}, {"max_norm_drift": 0.0}),
    EffectiveHamiltonian: ({"matrix": ARRAY, "period": 2.0, "numeric_matrix": ARRAY}, {}),
    PairShiftSample: ({"p3": ARRAY, "k3": ARRAY, "eta1": 0.5, "spinor_factor": 0.1,
                       "shift_density": -0.2}, {}),
    GridSpec: ({}, {"n_radial": 96, "n_theta": 16, "n_phi": 8}),
    ConvergenceReport: ({"cutoffs": ARRAY, "partial_sums": ARRAY, "tail_estimates": ARRAY,
                         "fitted_slope": -4.0, "refine_delta": 1e-9}, {}),
    CorrectedAmplitude: ({"base": RESULT, "first_order": 1e-3j, "factor": 1e-3, "exact": 1j,
                          "pair_shift": 1e-4}, {}),
}
# records whose fields are all hashable
HASHABLE = (Constants, FourVector, Boost, CouplingFactor, DiagramAmplitude, BoostScanRow,
            BoostScanTable, GridSpec)
TYPES = sorted(RECORDS, key=lambda cls: cls.__name__)


def test_every_class_of_the_package_is_a_covered_record():
    defined = {cls for module in (amplitudes, dirac, dynamics, lorentz, vacuum)
               for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__ == module.__name__}
    assert defined == set(RECORDS)
    assert all(issubclass(cls, tuple) and cls.__slots__ == () for cls in defined)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
class TestValueType:
    def test_keyword_construction_with_defaults(self, cls):
        required, defaults = RECORDS[cls]
        record = cls(**required)
        fields = {**required, **defaults}
        assert isinstance(record, tuple) and len(record) == len(fields)
        for name, value in fields.items():
            stored = getattr(record, name)
            if isinstance(stored, np.ndarray):
                assert np.array_equal(stored, value), name
            else:
                assert stored == value, name

    def test_equality_and_repr(self, cls):
        required, defaults = RECORDS[cls]
        first, second = cls(**required), cls(**required)
        if cls is not LevelSystem:  # LevelSystem keeps copies of its arrays
            assert first == second
        names = {**required, **defaults}
        expected = ", ".join(f"{name}={getattr(first, name)!r}" for name in names)
        assert repr(first) == f"{cls.__name__}({expected})"

    def test_hash(self, cls):
        record = cls(**RECORDS[cls][0])
        if cls in HASHABLE:
            assert hash(record) == hash(cls(**RECORDS[cls][0]))
        else:
            with pytest.raises(TypeError):
                hash(record)

    def test_attributes_cannot_be_assigned(self, cls):
        record = cls(**RECORDS[cls][0])
        name = next(iter({**RECORDS[cls][0], **RECORDS[cls][1]}))
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            record.not_a_field = 1.0


def test_unequal_fields_compare_unequal():
    assert FourVector(1.0, 2.0) != FourVector(1.0, 3.0)
    assert GridSpec(n_theta=32) != GridSpec()
    assert Constants(V=2.0) != NATURAL


def test_default_provenance_is_a_fresh_dict():
    first = AmplitudeResult("compton", 1j, (), 1.0, 1j)
    second = AmplitudeResult("compton", 1j, (), 1.0, 1j)
    first.provenance["note"] = 1
    assert second.provenance == {}


@pytest.mark.parametrize("build, error, message", [
    (lambda: Constants(V=-1.0), ConfigError, "constant 'V' must be strictly positive, got -1.0"),
    (lambda: Constants(hbar=math.nan), ConfigError,
     "constant 'hbar' must be strictly positive, got nan"),
    (lambda: Constants(e=math.inf), ConfigError,
     "constant 'e' must be strictly positive, got inf"),
    (lambda: Constants(m_e=1e-200), ConfigError,
     "constant 'm_e' = 1e-200 is too small: m_e^2 underflows"),
    (lambda: NATURAL.with_volume(-1.0), ConfigError,
     "constant 'V' must be strictly positive, got -1.0"),
    (lambda: Boost((0.0, 0.6, 0.8)), SuperluminalBoost, "|beta| >= 1 for beta=(0.0, 0.6, 0.8)"),
    (lambda: Boost.along_z(-1.0), SuperluminalBoost, "|beta| >= 1 for beta=(0.0, 0.0, -1.0)"),
    (lambda: CouplingFactor(0.3, 1.5, 2.0, 1.0), OffShellInput,
     "eta must lie in (0, 1], got 1.5"),
    (lambda: CouplingFactor(0.3, 0.0, 2.0, 1.0), OffShellInput,
     "eta must lie in (0, 1], got 0.0"),
    (lambda: CouplingFactor(0.0, 0.5, 2.0, 1.0), OffShellInput,
     "coupling factor must be positive, got 0.0"),
    (lambda: GridSpec(n_radial=3), ConfigError,
     "grid too small: need n_radial >= 4, n_theta >= 2, n_phi >= 1"),
    (lambda: GridSpec(n_phi=0), ConfigError,
     "grid too small: need n_radial >= 4, n_theta >= 2, n_phi >= 1"),
    (lambda: GridSpec(n_theta=2048), ConfigError,
     "grid too large: need n_theta <= 1024 and n_radial * n_theta <= 262144"),
    (lambda: GridSpec(n_radial=1024, n_theta=512), ConfigError,
     "grid too large: need n_theta <= 1024 and n_radial * n_theta <= 262144"),
    (lambda: GridSpec(n_radial=8.5), ConfigError, "grid sizes must be integers, got n_radial=8.5"),
    (lambda: GridSpec(n_radial=math.nan), ConfigError,
     "grid sizes must be integers, got n_radial=nan"),
    (lambda: GridSpec(n_theta=16.0), ConfigError, "grid sizes must be integers, got n_theta=16.0"),
    (lambda: GridSpec(n_phi=True), ConfigError, "grid sizes must be integers, got n_phi=True"),
    (lambda: GridSpec(n_radial="96"), ConfigError,
     "grid sizes must be integers, got n_radial='96'"),
    (lambda: LevelSystem([[0.0]], np.zeros((1, 1))), ConfigError,
     "energies must be a list of numbers, got shape (1, 1)"),
    (lambda: LevelSystem([0.0], np.zeros((1, 1))), ConfigError,
     "supported level counts are 2, 3, 4; got 1"),
    (lambda: LevelSystem([0.0, 1.0], np.zeros((3, 3))), ConfigError,
     "couplings must be 2x2, got (3, 3)"),
    (lambda: LevelSystem([0.0, math.inf], np.zeros((2, 2))), ConfigError,
     "energies and couplings must be finite"),
    (lambda: LevelSystem([0.0, 1.0], [[0.0, 1.0], [2.0, 0.0]]), ConfigError,
     "couplings must be Hermitian"),
    (lambda: LevelSystem([0.0, 1.0], [[0.5, 0.0], [0.0, 0.0]]), ConfigError,
     "couplings must have zero diagonal"),
])
def test_constructor_checks(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_grid_sizes_accept_numpy_integers():
    grid = GridSpec(n_radial=np.int64(48), n_theta=np.int32(8), n_phi=np.uint8(4))
    assert grid == GridSpec(48, 8, 4)
    assert tuple(map(type, grid)) == (int, int, int)
    # stored as Python ints, whose node-count product does not wrap
    with pytest.raises(ConfigError, match="grid too large"):
        GridSpec(n_radial=np.int64(2**62), n_theta=np.int64(4))


def test_with_volume_keeps_the_other_constants():
    scaled = Constants(hbar=2.0, alpha=0.01).with_volume(3.0)
    assert scaled == Constants(hbar=2.0, alpha=0.01, V=3.0)
    assert type(scaled) is Constants
