"""Gamma matrices, positive-energy spinors, photon polarizations, bilinears.

Dirac representation throughout. Spinors are box-normalized (u^dag u = 1) by
default, which makes the completeness sum over spins equal
(slash(q_on) + m) / (2 E_q) with q_on the on-shell four-momentum; the
covariant choice (ubar u = 1) is available behind a flag for frame-scaling
studies.

Two scalar builders own the closed forms: `spin_pair` gives both spin states
at one momentum, N (chi ; sigma.p chi / (E + m)), as 4-tuples, and
`transverse_basis` the real transverse polarization pair as 3-tuples.
`spin_block`, `spin_column`, `u_spinor`, `polarization_pair` and
`polarization_column` are array views of them. The Pauli-block helpers
(`sigma_dot`, `slash_column`, `slash_row`, `bar_dot`, `row_dot`,
`pair_spinor`, `slash_sandwich`, `vector_current`) write every vertex the
amplitudes need on the 2-component blocks u = (a ; b), with
slash(eps) = [[0, -sigma.e], [sigma.e, 0]] for eps = (0, e); they use only
+, * and .conjugate(), so scalars and same-shape arrays pass through alike.
The 4x4 gamma-matrix API (`gamma_set`, `slash`, `ubar`, `vertex_bilinear`,
`spin_sum`) is kept as the independent reference form.
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


def spin_pair(px: float, py: float, pz: float, m: float, normalization: str = "box"):
    """Both positive-energy spinors at momentum p as 4-tuples, and the energy E.

    u_1 = N (1, 0, z, x + iy) and u_2 = N (0, 1, x - iy, -z) with
    (x, y, z) = p / (E + m): the upper block is chi_s, the lower block
    sigma.p chi_s / (E + m). The default box normalization N = sqrt((E + m) / 2E)
    gives u^dag u = 1 and ubar u = m/E; the covariant option multiplies by
    sqrt(E/m), so ubar u = 1 (massive particles only). Returns (u_1, u_2, E).
    """
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
    n = math.sqrt(d / (2.0 * energy))
    u1 = (n, 0.0, n * z, n * complex(x, y))
    u2 = (0.0, n, n * complex(x, -y), n * -z)
    if normalization == "covariant":
        c = math.sqrt(energy / m)
        u1 = (c * u1[0], 0.0, c * u1[2], c * u1[3])
        u2 = (0.0, c * u2[1], c * u2[2], c * u2[3])
    return u1, u2, energy


def spin_block(p3, m: float, normalization: str = "box") -> np.ndarray:
    """Both positive-energy spinors u_1(p), u_2(p) as the columns of a (4, 2) array.

    The columns are the two 4-tuples of `spin_pair`.
    """
    px, py, pz = map(float, p3)
    u1, u2, _ = spin_pair(px, py, pz, m, normalization)
    return np.array(tuple(zip(u1, u2)), dtype=complex)


def _require_index(kind: str, index: int) -> None:
    """Spin and polarization indices are the integers 1 or 2; anything else is a ValueError.

    bool and float values are rejected even when they compare equal to 1 or 2;
    numpy integers are accepted.
    """
    if (type(index) is not int and not isinstance(index, np.integer)) or index not in (1, 2):
        raise ValueError(f"{kind} index must be 1 or 2, got {index!r}")


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


@dataclass(frozen=True)
class PolarizationVector:
    """Transverse photon polarization four-vector (Coulomb gauge, eps0 = 0)."""

    components: np.ndarray
    wavevector: np.ndarray
    alpha: int

    def as_array(self) -> np.ndarray:
        return self.components


def transverse_basis(kx: float, ky: float, kz: float):
    """Deterministic real orthonormal transverse pair for wavevector k, as two 3-tuples.

    The first vector is the Gram-Schmidt projection of the Cartesian axis
    least aligned with k (the first such axis on a tie); the second is
    khat x e1. For k along +z this yields (1, 0, 0) and (0, 1, 0).
    """
    norm = math.sqrt(kx * kx + ky * ky + kz * kz)
    if norm == 0.0:
        raise ZeroWavevector("polarization undefined for k = 0")
    hx, hy, hz = kx / norm, ky / norm, kz / norm
    ax, ay, az = abs(hx), abs(hy), abs(hz)
    # seed axis minus its projection on khat
    if ax <= ay and ax <= az:
        gx, gy, gz = 1.0 - hx * hx, -hx * hy, -hx * hz
    elif ay <= az:
        gx, gy, gz = -hy * hx, 1.0 - hy * hy, -hy * hz
    else:
        gx, gy, gz = -hz * hx, -hz * hy, 1.0 - hz * hz
    g_norm = math.sqrt(gx * gx + gy * gy + gz * gz)
    ex, ey, ez = gx / g_norm, gy / g_norm, gz / g_norm
    return (ex, ey, ez), (hy * ez - hz * ey, hz * ex - hx * ez, hx * ey - hy * ex)


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


def sigma_dot(v, s):
    """(sigma.v) s for a real 3-vector v = (vx, vy, vz) and a 2-spinor s = (s1, s2).

    Like the other Pauli-block helpers below, it uses only +, -, * and
    .conjugate(), so scalars and same-shape numpy arrays pass through alike.
    """
    vx, vy, vz = v
    s1, s2 = s
    return vz * s1 + (vx - 1j * vy) * s2, (vx + 1j * vy) * s1 - vz * s2


def slash_column(e, u):
    """slash(eps) u for eps = (0, e), e real, on the blocks u = (a ; b): (-(sigma.e) b ; (sigma.e) a)."""
    b1, b2 = sigma_dot(e, u[2:])
    a1, a2 = sigma_dot(e, u[:2])
    return -b1, -b2, a1, a2


def slash_row(u, e):
    """ubar(u) slash(eps) for eps = (0, e), e real, on u = (c ; d): (-((sigma.e) d)* ; -((sigma.e) c)*)."""
    d1, d2 = sigma_dot(e, u[2:])
    c1, c2 = sigma_dot(e, u[:2])
    return -d1.conjugate(), -d2.conjugate(), -c1.conjugate(), -c2.conjugate()


def row_dot(row, u) -> complex:
    """row . u for a 4-component row and spinor (no conjugation)."""
    return row[0] * u[0] + row[1] * u[1] + row[2] * u[2] + row[3] * u[3]


def bar_dot(u, col) -> complex:
    """ubar(u) col = a^dag col_upper - b^dag col_lower for u = (a ; b)."""
    return (u[0].conjugate() * col[0] + u[1].conjugate() * col[1]
            - u[2].conjugate() * col[2] - u[3].conjugate() * col[3])


def pair_spinor(u):
    """The negative-energy pair state (-b ; a) of u = (a ; b).

    For u(q, s) = N (chi ; sigma.q chi / (E+m)) it is v(-q, s), energy -E_q,
    with the normalization of u.
    """
    return -u[2], -u[3], u[0], u[1]


def slash_sandwich(row, q, m, col) -> complex:
    """row (slash(q) + m) col with slash(q) = [[q0, -sigma.q], [sigma.q, -q0]], q = (q0, qx, qy, qz)."""
    q0, q3 = q[0], q[1:]
    s1, s2 = sigma_dot(q3, col[2:])
    t1, t2 = sigma_dot(q3, col[:2])
    up, down = q0 + m, m - q0
    return (row[0] * (up * col[0] - s1) + row[1] * (up * col[1] - s2)
            + row[2] * (t1 + down * col[2]) + row[3] * (t2 + down * col[3]))


def vector_current(ub, ua):
    """J^mu = ubar_b gamma^mu u_a on the blocks u_b = (c ; d), u_a = (a ; b).

    J^0 = c^dag a + d^dag b and J^i = c^dag sigma_i b + d^dag sigma_i a.
    """
    c1, c2, d1, d2 = ub[0].conjugate(), ub[1].conjugate(), ub[2].conjugate(), ub[3].conjugate()
    a1, a2, b1, b2 = ua
    return (c1 * a1 + c2 * a2 + d1 * b1 + d2 * b2,
            c1 * b2 + c2 * b1 + d1 * a2 + d2 * a1,
            1j * (c2 * b1 - c1 * b2 + d2 * a1 - d1 * a2),
            c1 * b1 - c2 * b2 + d1 * a1 - d2 * a2)


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
