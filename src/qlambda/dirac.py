"""Gamma matrices, positive-energy spinors, photon polarizations, bilinears.

Dirac representation throughout. Spinors are box-normalized (u^dag u = 1) by
default, which makes the completeness sum over spins equal
(slash(q_on) + m) / (2 E_q) with q_on the on-shell four-momentum; the
covariant choice (ubar u = 1) is available behind a flag for frame-scaling
studies.

Both spin states at one momentum come from one closed form, the (4, 2) spin
block N (chi ; sigma.p chi / (E + m)) written out component by component
(`spin_block`); `u_spinor` is one of its columns and the spin sum is
B ubar(B). `slash` is one product against the lowered-index gamma table, and
`ubar` accepts a block as well as a spinor, so a vector current
J^mu = ubar_b gamma^mu u_a is one contraction against the stacked gamma
matrices and any vertex with a polarization eps is eps . g . J.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MasslessAtRest, SuperluminalBoost, ZeroWavevector
from .lorentz import Boost, FourVector, boost, on_shell_energy

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
_I4 = np.eye(4, dtype=complex)


def gamma_set() -> tuple[np.ndarray, ...]:
    """The four read-only gamma matrices gamma^mu, indexed by Lorentz index."""
    return _GAMMA


def slash(v) -> np.ndarray:
    """Contraction gamma^mu v_mu = v0 g0 - v.gamma for a four-vector."""
    a = v.as_array() if isinstance(v, FourVector) else np.asarray(v)
    return (a @ _GAMMA_LOWER).reshape(4, 4)


@dataclass(frozen=True)
class BiSpinor:
    """Positive-energy solution of the free Dirac equation.

    components: 4 complex amplitudes
    momentum:   3-momentum label
    spin:       1 or 2 (eigenspinor of sigma_z in the rest block)
    mass:       particle mass
    """

    components: np.ndarray
    momentum: np.ndarray
    spin: int
    mass: float
    normalization: str = "box"

    @property
    def energy(self) -> float:
        return on_shell_energy(self.momentum, self.mass)

    def on_shell_momentum(self) -> FourVector:
        return FourVector.from_spatial(self.energy, self.momentum)


def spin_block(p3, m: float, normalization: str = "box") -> np.ndarray:
    """Both positive-energy spinors u_1(p), u_2(p) as the columns of a (4, 2) array.

    N [[1, 0], [0, 1], [pz/d, (px - i py)/d], [(px + i py)/d, -pz/d]] with
    d = E + m: the upper block is chi_s, the lower block sigma.p chi_s / d.
    The default box normalization N = sqrt(d / 2E) gives u^dag u = 1 and
    ubar u = m/E; the covariant option multiplies by sqrt(E/m), so ubar u = 1
    (massive particles only).
    """
    px, py, pz = map(float, p3)
    if m == 0.0 and px == py == pz == 0.0:
        raise MasslessAtRest("massless spinor needs a nonzero momentum")
    if normalization == "covariant":
        if m == 0.0:
            raise MasslessAtRest("covariant normalization undefined for massless spinors")
    elif normalization != "box":
        raise ValueError(f"unknown normalization {normalization!r}")
    energy = math.sqrt(px * px + py * py + pz * pz + m * m)
    d = energy + m
    x, y, z = px / d, py / d, pz / d
    block = math.sqrt(d / (2.0 * energy)) * np.array(
        [[1.0, 0.0], [0.0, 1.0], [z, complex(x, -y)], [complex(x, y), -z]]
    )
    if normalization == "covariant":
        block = block * math.sqrt(energy / m)
    return block


def u_spinor(p3, s: int, m: float, normalization: str = "box") -> BiSpinor:
    """Free positive-energy spinor u_s(p): column s of `spin_block`."""
    p3 = np.array(p3, dtype=float)
    p3.setflags(write=False)
    if s not in (1, 2):
        raise ValueError(f"spin index must be 1 or 2, got {s!r}")
    u = spin_block(p3, m, normalization)[:, s - 1]
    u.setflags(write=False)
    return BiSpinor(u, p3, s, m, normalization)


def ubar(u) -> np.ndarray:
    """Dirac adjoint u^dag gamma^0 of a BiSpinor or of 4 components (a row).

    For a (4, n) block of spinors it returns the (n, 4) block of their rows.
    """
    comp = u.components if isinstance(u, BiSpinor) else np.asarray(u)
    return comp.conj().T @ _GAMMA[0]


def spin_sum(p3, m: float) -> np.ndarray:
    """Sum over spins of u_s(p) ubar_s(p), as B ubar(B) for the spin block B.

    Equals (slash(p_on) + m) / (2 E_p) with p_on = (E_p, p).
    """
    block = spin_block(p3, m)
    return block @ ubar(block)


@dataclass(frozen=True)
class PolarizationVector:
    """Transverse photon polarization four-vector (Coulomb gauge, eps0 = 0)."""

    components: np.ndarray
    wavevector: np.ndarray
    alpha: int

    def as_array(self) -> np.ndarray:
        return self.components


def polarization_pair(k3) -> tuple[PolarizationVector, PolarizationVector]:
    """Deterministic real orthonormal transverse pair for wavevector k.

    The first vector is the Gram-Schmidt projection of the Cartesian axis
    least aligned with k (the first such axis on a tie); the second is
    khat x eps1. For k along +z this yields (0,1,0,0) and (0,0,1,0).
    """
    k3 = np.array(k3, dtype=float)
    k3.setflags(write=False)
    kx, ky, kz = k3.tolist()
    norm = math.sqrt(kx * kx + ky * ky + kz * kz)
    if norm == 0.0:
        raise ZeroWavevector("polarization undefined for k = 0")
    hx, hy, hz = khat = (kx / norm, ky / norm, kz / norm)
    axis = min(range(3), key=lambda i: abs(khat[i]))
    # seed axis minus its projection on khat
    g = [-khat[axis] * h for h in khat]
    g[axis] += 1.0
    g_norm = math.sqrt(g[0] * g[0] + g[1] * g[1] + g[2] * g[2])
    ex, ey, ez = e1 = (g[0] / g_norm, g[1] / g_norm, g[2] / g_norm)
    e2 = (hy * ez - hz * ey, hz * ex - hx * ez, hx * ey - hy * ex)
    vecs = []
    for alpha, e in enumerate((e1, e2), start=1):
        comp = np.array((0.0,) + e, dtype=complex)
        comp.setflags(write=False)
        vecs.append(PolarizationVector(comp, k3, alpha))
    return vecs[0], vecs[1]


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
