"""Gamma matrices, positive-energy spinors, photon polarizations, bilinears.

Dirac representation throughout. Spinors are box-normalized (u^dag u = 1) by
default, which makes the completeness sum over spins equal
(slash(q_on) + m) / (2 E_q) with q_on the on-shell four-momentum; the
covariant choice (ubar u = 1) is available behind a flag for frame-scaling
studies.

The scalar closed forms live in the numpy-free `pauli` module and are
re-exported here: `spin_pair` (both spin states at one momentum as
4-tuples), `transverse_basis` (the real transverse polarization pair as
3-tuples) and the Pauli-block vertex helpers (`sigma_dot`, `slash_column`,
`slash_row`, `bar_dot`, `row_dot`, `pair_spinor`, `slash_sandwich`,
`vector_current`). `spin_block`, `spin_column`, `u_spinor`,
`polarization_pair` and `polarization_column` are array views of the two
builders. The 4x4 gamma-matrix API (`gamma_set`, `slash`, `ubar`,
`vertex_bilinear`, `spin_sum`) is kept as the independent reference form.
The module is reference-only: every production vertex, in `amplitudes` and
`vacuum`, runs on the Pauli blocks, and no CLI command or other library
module loads this one.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import SuperluminalBoost
from .lorentz import Boost, FourVector, boost, on_shell_energy
# the scalar layer, re-exported
from .pauli import (
    _require_index,
    bar_dot,
    pair_spinor,
    row_dot,
    sigma_dot,
    slash_column,
    slash_row,
    slash_sandwich,
    spin_pair,
    transverse_basis,
    vector_current,
)

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_ZERO2 = np.zeros((2, 2), dtype=complex)


def _build_gammas() -> tuple[np.ndarray, ...]:
    g0 = np.block([[np.eye(2), _ZERO2], [_ZERO2, -np.eye(2)]]).astype(complex)
    spatial = tuple(
        np.block([[_ZERO2, s], [-s, _ZERO2]]).astype(complex) for s in _SIGMA
    )
    mats = (g0,) + spatial
    for m in mats:
        m.setflags(write=False)
    return mats


_GAMMA = _build_gammas()
# gamma_mu = g_{mu nu} gamma^nu, one flattened matrix per row, so that
# slash(v) = v^mu gamma_mu is a single vector-matrix product
_GAMMA_LOWER = np.stack([_GAMMA[0], -_GAMMA[1], -_GAMMA[2], -_GAMMA[3]]).reshape(4, 16)
_GAMMA_LOWER.setflags(write=False)
# (1, 1, -1, -1), read-only: ubar multiplies by it in place of a matmul by gamma^0
_GAMMA0_DIAGONAL = _GAMMA[0].diagonal().real
_I4 = np.eye(4, dtype=complex)


def gamma_set() -> tuple[np.ndarray, ...]:
    """The four read-only gamma matrices gamma^mu, indexed by Lorentz index."""
    return _GAMMA


def slash(v) -> np.ndarray:
    """Contraction gamma^mu v_mu = v0 g0 - v.gamma for a four-vector."""
    a = v.as_array() if isinstance(v, FourVector) else np.asarray(v)
    return (a @ _GAMMA_LOWER).reshape(4, 4)


class BiSpinor(namedtuple("BiSpinor", "components momentum spin mass normalization",
                           defaults=("box",))):
    """Positive-energy solution of the free Dirac equation.

    components: 4 complex amplitudes
    momentum:   3-momentum label
    spin:       1 or 2 (eigenspinor of sigma_z in the rest block)
    mass:       particle mass
    """

    __slots__ = ()

    @property
    def energy(self) -> float:
        return on_shell_energy(self.momentum, self.mass)

    def on_shell_momentum(self) -> FourVector:
        return FourVector.from_spatial(self.energy, self.momentum)


def spin_block(p3, m: float, normalization: str = "box") -> np.ndarray:
    """Both positive-energy spinors u_1(p), u_2(p) as the columns of a (4, 2) array.

    The columns are the two 4-tuples of `spin_pair`.
    """
    px, py, pz = map(float, p3)
    u1, u2, _ = spin_pair(px, py, pz, m, normalization)
    return np.array(tuple(zip(u1, u2)), dtype=complex)


def spin_column(p3, s: int, m: float, normalization: str = "box") -> np.ndarray:
    """Components of u_s(p), spinor s of `spin_pair`; s must be 1 or 2."""
    _require_index("spin", s)
    px, py, pz = map(float, p3)
    return np.array(spin_pair(px, py, pz, m, normalization)[s - 1], dtype=complex)


def u_spinor(p3, s: int, m: float, normalization: str = "box") -> BiSpinor:
    """Free positive-energy spinor u_s(p): spinor s of `spin_pair`."""
    p3 = np.array(p3, dtype=float)
    p3.setflags(write=False)
    u = spin_column(p3, s, m, normalization)
    u.setflags(write=False)
    return BiSpinor(u, p3, s, m, normalization)


def ubar(u) -> np.ndarray:
    """Dirac adjoint u^dag gamma^0 of a BiSpinor or of 4 components (a row).

    For a (4, n) block of spinors it returns the (n, 4) block of their rows.
    """
    comp = u.components if isinstance(u, BiSpinor) else np.asarray(u)
    return comp.conj().T * _GAMMA0_DIAGONAL


def spin_sum(p3, m: float) -> np.ndarray:
    """Sum over spins of u_s(p) ubar_s(p), as B ubar(B) for the spin block B.

    Equals (slash(p_on) + m) / (2 E_p) with p_on = (E_p, p).
    """
    block = spin_block(p3, m)
    return block @ ubar(block)


class PolarizationVector(namedtuple("PolarizationVector", "components wavevector alpha")):
    """Transverse photon polarization four-vector (Coulomb gauge, eps0 = 0)."""

    __slots__ = ()

    def as_array(self) -> np.ndarray:
        return self.components


def _polarization_components(e) -> np.ndarray:
    """Read-only four-vector (0, e) of a real transverse 3-tuple."""
    comp = np.array((0.0,) + e, dtype=complex)
    comp.setflags(write=False)
    return comp


def polarization_pair(k3) -> tuple[PolarizationVector, PolarizationVector]:
    """The two vectors of `transverse_basis` as polarization four-vectors (0, e)."""
    k3 = np.array(k3, dtype=float)
    k3.setflags(write=False)
    e1, e2 = transverse_basis(*k3.tolist())
    return (PolarizationVector(_polarization_components(e1), k3, 1),
            PolarizationVector(_polarization_components(e2), k3, 2))


def polarization_column(k3, alpha: int) -> np.ndarray:
    """Components of polarization alpha of `polarization_pair`; alpha must be 1 or 2."""
    _require_index("polarization", alpha)
    kx, ky, kz = map(float, k3)
    return _polarization_components(transverse_basis(kx, ky, kz)[alpha - 1])


def vertex_bilinear(ub: BiSpinor, eps, ua: BiSpinor) -> complex:
    """ubar_b (gamma^nu eps_nu) u_a."""
    comp = eps.as_array() if isinstance(eps, PolarizationVector) else np.asarray(eps)
    return complex(ubar(ub) @ slash(comp) @ ua.components)


def boost_spinor(v: Boost, u: BiSpinor) -> BiSpinor:
    """Apply the spinor representation of a pure boost.

    S = cosh(z/2) + sinh(z/2) nhat.alpha with tanh(z) = |beta|; not unitary,
    so u^dag u changes while ubar u is preserved. The momentum label is
    updated to the boosted three-momentum.
    """
    b2 = v.beta2
    if b2 >= 1.0:
        raise SuperluminalBoost(f"|beta| >= 1 for beta={v.beta}")
    if b2 == 0.0:
        return u
    babs = math.sqrt(b2)
    nhat = v.beta_vector / babs
    zeta = math.atanh(babs)
    # alpha_i = gamma^0 gamma^i
    n_alpha = sum(nhat[i] * (_GAMMA[0] @ _GAMMA[i + 1]) for i in range(3))
    s_mat = math.cosh(zeta / 2.0) * _I4 + math.sinh(zeta / 2.0) * n_alpha
    comps = s_mat @ u.components
    comps.setflags(write=False)
    p_new = boost(v, u.on_shell_momentum()).spatial
    return BiSpinor(comps, p_new, u.spin, u.mass, u.normalization)
