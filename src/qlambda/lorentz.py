"""Physical constants, four-vector algebra, boosts, and kinematics generators.

Default constants are natural units (hbar = c = eps0 = 1, m_e = 1) with the
electron charge derived from the fine-structure constant. The metric is
(+,-,-,-).

The module imports numpy only inside the accessors that return arrays
(`FourVector.spatial`, `FourVector.as_array`, `Boost.beta_vector`,
`boost_matrix`). `boost` and the kinematics generators apply the same float
rows of one boost matrix, so a vector boosted alone is bit for bit the one
in a boosted kinematics set.
"""
from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Iterable

from .errors import (
    BelowThreshold,
    ConfigError,
    NonpositiveEnergy,
    SpacelikeVector,
    SuperluminalBoost,
)
from .jsonio import json_floats, read_json

ALPHA_FS = 1.0 / 137.035999

# relative tolerance below which a squared norm counts as non-negative
_NULL_TOL = 1e-10

CONSTANT_KEYS = ("hbar", "c", "eps0", "e", "m_e", "V", "alpha")
# the default electron charge, from the fine-structure constant
_E_NATURAL = math.sqrt(4.0 * math.pi * ALPHA_FS)


def _require_positive(key: str, value: float) -> None:
    if not (value > 0.0) or not math.isfinite(value):
        raise ConfigError(f"constant {key!r} must be strictly positive, got {value!r}")


class Constants(namedtuple("Constants", CONSTANT_KEYS)):
    """Physical constants and the mode volume entering coupling prefactors.

    Every constant must be finite and strictly positive, and m_e^2 a normal
    float; the constructor raises ConfigError otherwise.
    """

    __slots__ = ()

    def __new__(cls, hbar=1.0, c=1.0, eps0=1.0, e=_E_NATURAL, m_e=1.0, V=1.0, alpha=ALPHA_FS):
        values = (hbar, c, eps0, e, m_e, V, alpha)
        for key, value in zip(CONSTANT_KEYS, values):
            _require_positive(key, value)
        # every energy is sqrt(|p|^2 + m^2); an m^2 that underflows leaves
        # zero energies for particles at rest
        if m_e * m_e < sys.float_info.min:
            raise ConfigError(f"constant 'm_e' = {m_e!r} is too small: m_e^2 underflows")
        return tuple.__new__(cls, values)

    def with_volume(self, volume: float) -> "Constants":
        """The same constants with V = volume, checked as by the constructor."""
        hbar, c, eps0, e, m_e, _, alpha = self
        return type(self)(hbar, c, eps0, e, m_e, volume, alpha)


NATURAL = Constants()


def read_constants_file(path: str) -> dict:
    """The flat key-value mapping of a constants JSON file, unconverted."""
    data = read_json(path, "constants file")
    if not isinstance(data, dict):
        raise ConfigError("constants document must be a JSON object")
    return data


def load_constants(path: str) -> Constants:
    """Read constants from a flat JSON key-value file; absent keys keep defaults."""
    return constants_from_mapping(read_constants_file(path))


def constants_from_mapping(data: dict) -> Constants:
    """Constants from flat keys: absent keys keep defaults, `alpha` alone sets e."""
    unknown = sorted(set(data) - set(CONSTANT_KEYS))
    if unknown:
        raise ConfigError(f"unknown constants key {unknown[0]!r}")
    values = {key: json_floats([raw], f"constants key {key!r}")[0] for key, raw in data.items()}
    if "alpha" in values and "e" not in values:
        _require_positive("alpha", values["alpha"])  # before the square root
        values["e"] = math.sqrt(4.0 * math.pi * values["alpha"])
    return Constants(**values)


class FourVector(namedtuple("FourVector", "t x y z", defaults=(0.0, 0.0, 0.0))):
    """Contravariant four-vector (t, x, y, z) with metric (+,-,-,-)."""

    __slots__ = ()

    @classmethod
    def from_spatial(cls, t: float, p3: Iterable[float]) -> "FourVector":
        px, py, pz = (float(v) for v in p3)
        return cls(float(t), px, py, pz)

    @property
    def spatial(self) -> np.ndarray:
        import numpy as np

        return np.array([self.x, self.y, self.z])

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([self.t, self.x, self.y, self.z])

    # the arithmetic unpacks each vector once and builds its result with
    # tuple.__new__, which is what the namedtuple constructor does
    def __add__(self, other: "FourVector") -> "FourVector":
        (t, x, y, z), (ot, ox, oy, oz) = self, other
        return tuple.__new__(FourVector, (t + ot, x + ox, y + oy, z + oz))

    def __sub__(self, other: "FourVector") -> "FourVector":
        (t, x, y, z), (ot, ox, oy, oz) = self, other
        return tuple.__new__(FourVector, (t - ot, x - ox, y - oy, z - oz))

    def __neg__(self) -> "FourVector":
        t, x, y, z = self
        return tuple.__new__(FourVector, (-t, -x, -y, -z))

    def __mul__(self, factor: float) -> "FourVector":
        t, x, y, z = self
        return tuple.__new__(FourVector, (t * factor, x * factor, y * factor, z * factor))

    __rmul__ = __mul__


def minkowski_dot(a: FourVector, b: FourVector) -> float:
    (at, ax, ay, az), (bt, bx, by, bz) = a, b
    return at * bt - ax * bx - ay * by - az * bz


def invariant_mass(p: FourVector) -> float:
    """sqrt(p.p); raises SpacelikeVector for a negative squared norm."""
    t, x, y, z = p
    s = t * t - x * x - y * y - z * z
    scale = t * t + x * x + y * y + z * z
    if s < -_NULL_TOL * max(scale, 1.0):
        raise SpacelikeVector(f"p.p = {s!r} < 0 for {p}")
    return math.sqrt(max(s, 0.0))


def eta(p: FourVector) -> float:
    """Invariant mass over energy component; equals 1 iff the spatial part vanishes."""
    if not p.t > 0.0:
        raise NonpositiveEnergy(f"energy component must be positive, got {p.t!r}")
    return invariant_mass(p) / p.t


class Boost(namedtuple("Boost", "beta")):
    """Pure boost with velocity beta (units of c); |beta| < 1, and no component NaN."""

    __slots__ = ()

    def __new__(cls, beta=(0.0, 0.0, 0.0)):
        bx, by, bz = beta
        b2 = bx * bx + by * by + bz * bz
        if b2 >= 1.0:
            raise SuperluminalBoost(f"|beta| >= 1 for beta={beta}")
        if b2 != b2:
            raise ConfigError(f"beta must not hold NaN, got beta={beta}")
        return tuple.__new__(cls, (beta,))

    @classmethod
    def along_z(cls, b: float) -> "Boost":
        return cls((0.0, 0.0, float(b)))

    @property
    def beta_vector(self) -> np.ndarray:
        import numpy as np

        return np.array(self.beta)

    @property
    def beta2(self) -> float:
        bx, by, bz = self.beta
        return bx * bx + by * by + bz * bz

    @property
    def gamma(self) -> float:
        return 1.0 / math.sqrt(1.0 - self.beta2)

    def inverse(self) -> "Boost":
        bx, by, bz = self.beta
        return Boost((-bx, -by, -bz))


def _boost_rows(v: Boost):
    """Rows of the boost matrix as Python floats; None for the identity.

    beta is cast to float first, so numpy scalars in it do not carry over
    into the boosted momenta.
    """
    bx, by, bz = v.beta
    bx, by, bz = float(bx), float(by), float(bz)
    b2 = bx * bx + by * by + bz * bz
    if b2 == 0.0:
        return None
    g = 1.0 / math.sqrt(1.0 - b2)  # the `gamma` property's expression on these components
    c = (g - 1.0) / b2
    return (
        (g, g * bx, g * by, g * bz),
        (g * bx, 1.0 + c * (bx * bx), c * (bx * by), c * (bx * bz)),
        (g * by, c * (by * bx), 1.0 + c * (by * by), c * (by * bz)),
        (g * bz, c * (bz * bx), c * (bz * by), 1.0 + c * (bz * bz)),
    )


def boost_matrix(v: Boost) -> np.ndarray:
    """4x4 matrix taking a rest four-momentum to one moving with velocity +beta."""
    import numpy as np

    rows = _boost_rows(v)
    return np.eye(4) if rows is None else np.array(rows)


def boost(v: Boost, p: FourVector) -> FourVector:
    """Apply the boost with the float rows of _maybe_boost; preserves minkowski_dot."""
    return _maybe_boost((p,), v)[0]


def cm_boost(total: FourVector) -> Boost:
    """Boost that maps a timelike total four-momentum to its rest frame."""
    if not total.t > 0.0:
        raise NonpositiveEnergy(f"total energy must be positive, got {total.t!r}")
    invariant_mass(total)  # reject spacelike totals
    return Boost((-total.x / total.t, -total.y / total.t, -total.z / total.t))


def on_shell_energy(p3: Iterable[float], m: float) -> float:
    """Energy sqrt(px px + py py + pz pz + m m) of an on-shell particle, in natural units."""
    px, py, pz = p3
    px, py, pz = float(px), float(py), float(pz)
    return math.sqrt(px * px + py * py + pz * pz + m * m)


def _maybe_boost(vectors, beta: Boost | None):
    """The vectors boosted by beta: the rows of one boost matrix, in Python floats.

    Components that overflow come out as inf or NaN without a warning; the
    amplitudes reject them as overflowed kinematics.
    """
    rows = None if beta is None else _boost_rows(beta)
    if rows is None:
        return vectors
    (t0, t1, t2, t3), (x0, x1, x2, x3), (y0, y1, y2, y3), (z0, z1, z2, z3) = rows
    boosted = []
    for t, x, y, z in vectors:
        boosted.append(tuple.__new__(FourVector, (t0 * t + t1 * x + t2 * y + t3 * z,
                                                  x0 * t + x1 * x + x2 * y + x3 * z,
                                                  y0 * t + y1 * x + y2 * y + y3 * z,
                                                  z0 * t + z1 * x + z2 * y + z3 * z)))
    return tuple(boosted)


def compton_kinematics(
    photon_energy: float,
    theta: float,
    beta: Boost | None = None,
    m: float = 1.0,
) -> tuple[FourVector, FourVector, FourVector, FourVector]:
    """On-shell photon-electron scattering kinematics (p, k, p', k').

    Built with the electron at rest and the photon along +z; the scattered
    photon lies in the x-z plane at angle theta. Conservation p+k = p'+k' is
    exact by construction. The whole set is boosted by `beta` if given.
    """
    if not photon_energy > 0.0:
        raise NonpositiveEnergy(f"photon energy must be positive, got {photon_energy!r}")
    ek = float(photon_energy)
    p = tuple.__new__(FourVector, (m, 0.0, 0.0, 0.0))
    k = tuple.__new__(FourVector, (ek, 0.0, 0.0, ek))
    # scattered photon energy from the on-shell condition on p'
    ek_out = ek / (1.0 + (ek / m) * (1.0 - math.cos(theta)))
    k_out = tuple.__new__(FourVector, (ek_out, ek_out * math.sin(theta), 0.0,
                                       ek_out * math.cos(theta)))
    p_out = p + k - k_out
    return _maybe_boost((p, k, p_out, k_out), beta)


def compton_cm_kinematics(
    photon_energy: float,
    theta: float,
    beta: Boost | None = None,
    m: float = 1.0,
) -> tuple[FourVector, FourVector, FourVector, FourVector]:
    """Compton kinematics built directly in the frame with zero total momentum.

    `photon_energy` is the photon energy in that frame; scattering there is
    elastic (|k'| = |k|).
    """
    if not photon_energy > 0.0:
        raise NonpositiveEnergy(f"photon energy must be positive, got {photon_energy!r}")
    ek = float(photon_energy)
    ep = on_shell_energy((0.0, 0.0, ek), m)
    p = tuple.__new__(FourVector, (ep, 0.0, 0.0, -ek))
    k = tuple.__new__(FourVector, (ek, 0.0, 0.0, ek))
    k_out = tuple.__new__(FourVector, (ek, ek * math.sin(theta), 0.0, ek * math.cos(theta)))
    p_out = tuple.__new__(FourVector, (ep, -k_out.x, -k_out.y, -k_out.z))
    return _maybe_boost((p, k, p_out, k_out), beta)


def moller_kinematics(
    e_cm: float,
    theta: float,
    beta: Boost | None = None,
    m: float = 1.0,
) -> tuple[FourVector, FourVector, FourVector, FourVector]:
    """Elastic electron-electron kinematics (p1, q1, p2, q2) in the CM frame.

    Incoming momenta along +/-z with total energy e_cm; outgoing pair rotated
    by theta in the x-z plane. Raises BelowThreshold for e_cm <= 2m.
    """
    if e_cm <= 2.0 * m:
        raise BelowThreshold(f"e_cm = {e_cm!r} must exceed 2m = {2.0 * m!r}")
    e_half = 0.5 * e_cm
    mom = math.sqrt(e_half * e_half - m * m)
    p1 = tuple.__new__(FourVector, (e_half, 0.0, 0.0, mom))
    q1 = tuple.__new__(FourVector, (e_half, 0.0, 0.0, -mom))
    p2 = tuple.__new__(FourVector, (e_half, mom * math.sin(theta), 0.0, mom * math.cos(theta)))
    q2 = tuple.__new__(FourVector, (e_half, -p2.x, -p2.y, -p2.z))
    return _maybe_boost((p1, q1, p2, q2), beta)
