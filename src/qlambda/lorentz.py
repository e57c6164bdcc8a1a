"""Physical constants, four-vector algebra, boosts, and kinematics generators.

Default constants are natural units (hbar = c = eps0 = 1, m_e = 1) with the
electron charge derived from the fine-structure constant. The metric is
(+,-,-,-).
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .errors import (
    BelowThreshold,
    ConfigError,
    NonpositiveEnergy,
    SpacelikeVector,
    SuperluminalBoost,
)

ALPHA_FS = 1.0 / 137.035999

# relative tolerance below which a squared norm counts as non-negative
_NULL_TOL = 1e-10

CONSTANT_KEYS = ("hbar", "c", "eps0", "e", "m_e", "V", "alpha")


def _require_positive(key: str, value: float) -> None:
    if not (value > 0.0) or not math.isfinite(value):
        raise ConfigError(f"constant {key!r} must be strictly positive, got {value!r}")


@dataclass(frozen=True)
class Constants:
    """Physical constants and the mode volume entering coupling prefactors."""

    hbar: float = 1.0
    c: float = 1.0
    eps0: float = 1.0
    e: float = math.sqrt(4.0 * math.pi * ALPHA_FS)
    m_e: float = 1.0
    V: float = 1.0
    alpha: float = ALPHA_FS

    def __post_init__(self):
        for key in CONSTANT_KEYS:
            _require_positive(key, getattr(self, key))
        # every energy is sqrt(|p|^2 + m^2); an m^2 that underflows leaves
        # zero energies for particles at rest
        if self.m_e * self.m_e < sys.float_info.min:
            raise ConfigError(f"constant 'm_e' = {self.m_e!r} is too small: m_e^2 underflows")

    def with_volume(self, volume: float) -> "Constants":
        return replace(self, V=volume)


NATURAL = Constants()


def read_constants_file(path: str) -> dict:
    """The flat key-value mapping of a constants JSON file, unconverted."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read constants file {path!r}: {exc}") from exc
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
    values = {}
    for key, raw in data.items():
        if not isinstance(raw, (int, float)) or isinstance(raw, bool):
            raise ConfigError(f"constants key {key!r} must be a number, got {raw!r}")
        values[key] = float(raw)
    if "alpha" in values and "e" not in values:
        _require_positive("alpha", values["alpha"])  # before the square root
        values["e"] = math.sqrt(4.0 * math.pi * values["alpha"])
    return Constants(**values)


@dataclass(frozen=True)
class FourVector:
    """Contravariant four-vector (t, x, y, z) with metric (+,-,-,-)."""

    t: float
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    @classmethod
    def from_spatial(cls, t: float, p3: Iterable[float]) -> "FourVector":
        px, py, pz = (float(v) for v in p3)
        return cls(float(t), px, py, pz)

    @property
    def spatial(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def as_array(self) -> np.ndarray:
        return np.array([self.t, self.x, self.y, self.z])

    def __add__(self, other: "FourVector") -> "FourVector":
        return FourVector(self.t + other.t, self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "FourVector") -> "FourVector":
        return FourVector(self.t - other.t, self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "FourVector":
        return FourVector(-self.t, -self.x, -self.y, -self.z)

    def __mul__(self, factor: float) -> "FourVector":
        return FourVector(self.t * factor, self.x * factor, self.y * factor, self.z * factor)

    __rmul__ = __mul__


def minkowski_dot(a: FourVector, b: FourVector) -> float:
    return a.t * b.t - a.x * b.x - a.y * b.y - a.z * b.z


def invariant_mass(p: FourVector) -> float:
    """sqrt(p.p); raises SpacelikeVector for a negative squared norm."""
    s = minkowski_dot(p, p)
    scale = p.t * p.t + p.x * p.x + p.y * p.y + p.z * p.z
    if s < -_NULL_TOL * max(scale, 1.0):
        raise SpacelikeVector(f"p.p = {s!r} < 0 for {p}")
    return math.sqrt(max(s, 0.0))


def eta(p: FourVector) -> float:
    """Invariant mass over energy component; equals 1 iff the spatial part vanishes."""
    if not p.t > 0.0:
        raise NonpositiveEnergy(f"energy component must be positive, got {p.t!r}")
    return invariant_mass(p) / p.t


@dataclass(frozen=True)
class Boost:
    """Pure boost with velocity beta (units of c); |beta| < 1."""

    beta: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        bx, by, bz = self.beta
        if bx * bx + by * by + bz * bz >= 1.0:
            raise SuperluminalBoost(f"|beta| >= 1 for beta={self.beta}")

    @classmethod
    def along_z(cls, b: float) -> "Boost":
        return cls((0.0, 0.0, float(b)))

    @property
    def beta_vector(self) -> np.ndarray:
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


def boost_matrix(v: Boost) -> np.ndarray:
    """4x4 matrix taking a rest four-momentum to one moving with velocity +beta."""
    b2 = v.beta2
    if b2 == 0.0:
        return np.eye(4)
    g = v.gamma
    c = (g - 1.0) / b2
    bx, by, bz = v.beta
    return np.array([
        [g, g * bx, g * by, g * bz],
        [g * bx, 1.0 + c * (bx * bx), c * (bx * by), c * (bx * bz)],
        [g * by, c * (by * bx), 1.0 + c * (by * by), c * (by * bz)],
        [g * bz, c * (bz * bx), c * (bz * by), 1.0 + c * (bz * bz)],
    ])


def boost(v: Boost, p: FourVector) -> FourVector:
    """Apply the boost; preserves minkowski_dot."""
    return FourVector(*(boost_matrix(v) @ p.as_array()).tolist())


def cm_boost(total: FourVector) -> Boost:
    """Boost that maps a timelike total four-momentum to its rest frame."""
    if not total.t > 0.0:
        raise NonpositiveEnergy(f"total energy must be positive, got {total.t!r}")
    invariant_mass(total)  # reject spacelike totals
    return Boost(tuple(-total.spatial / total.t))


def on_shell_energy(p3: Iterable[float], m: float) -> float:
    """Energy sqrt(|p|^2 + m^2) of an on-shell particle, in natural units."""
    px, py, pz = map(float, p3)
    return math.sqrt(px * px + py * py + pz * pz + m**2)


def _maybe_boost(vectors, beta: Boost | None):
    """The vectors boosted by beta: one matrix applied to the stacked momenta.

    Components that overflow come out as inf or NaN without a warning; the
    amplitudes reject them as overflowed kinematics.
    """
    if beta is None or beta.beta2 == 0.0:
        return vectors
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.array([(v.t, v.x, v.y, v.z) for v in vectors]) @ boost_matrix(beta).T
    return tuple(FourVector(*row) for row in rows.tolist())


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
    p = FourVector(m, 0.0, 0.0, 0.0)
    k = FourVector(ek, 0.0, 0.0, ek)
    # scattered photon energy from the on-shell condition on p'
    ek_out = ek / (1.0 + (ek / m) * (1.0 - math.cos(theta)))
    k_out = FourVector(ek_out, ek_out * math.sin(theta), 0.0, ek_out * math.cos(theta))
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
    ep = math.sqrt(ek * ek + m * m)
    p = FourVector(ep, 0.0, 0.0, -ek)
    k = FourVector(ek, 0.0, 0.0, ek)
    k_out = FourVector(ek, ek * math.sin(theta), 0.0, ek * math.cos(theta))
    p_out = FourVector(ep, -k_out.x, -k_out.y, -k_out.z)
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
    p1 = FourVector(e_half, 0.0, 0.0, mom)
    q1 = FourVector(e_half, 0.0, 0.0, -mom)
    p2 = FourVector(e_half, mom * math.sin(theta), 0.0, mom * math.cos(theta))
    q2 = FourVector(e_half, -p2.x, -p2.y, -p2.z)
    return _maybe_boost((p1, q1, p2, q2), beta)
