"""Scalar spinor layer: closed-form spinors, polarizations and Pauli-block vertices.

Two scalar builders own the closed forms: `spin_pair` gives both spin states
at one momentum, N (chi ; sigma.p chi / (E + m)), as 4-tuples, and
`transverse_basis` the real transverse polarization pair as 3-tuples. The
Pauli-block helpers (`sigma_dot`, `slash_column`, `slash_row`, `bar_dot`,
`row_dot`, `pair_spinor`, `slash_sandwich`, `vector_current`) write every
vertex the amplitudes need on the 2-component blocks u = (a ; b), with
slash(eps) = [[0, -sigma.e], [sigma.e, 0]] for eps = (0, e); they use only
+, * and .conjugate(), so scalars and same-shape arrays pass through alike.

The module imports no numpy: the amplitudes and `vacuum.pair_coupling` build
every vertex from it, and `dirac` builds its array views and the 4x4
gamma-matrix reference on top of it.
"""
from __future__ import annotations

import math
import numbers

from .errors import MasslessAtRest, ZeroWavevector
from .lorentz import on_shell_energy


def _require_index(kind: str, index: int) -> None:
    """Spin and polarization indices are the integers 1 or 2; anything else is a ValueError.

    bool and float values are rejected even when they compare equal to 1 or 2;
    numpy integers are accepted.
    """
    integer = type(index) is int or (
        isinstance(index, numbers.Integral) and not isinstance(index, bool))
    if not integer or index not in (1, 2):
        raise ValueError(f"{kind} index must be 1 or 2, got {index!r}")


def spin_pair(px: float, py: float, pz: float, m: float, normalization: str = "box"):
    """Both positive-energy spinors at momentum p as 4-tuples, and the energy E.

    u_1 = N (1, 0, z, x + iy) and u_2 = N (0, 1, x - iy, -z) with
    (x, y, z) = p / (E + m): the upper block is chi_s, the lower block
    sigma.p chi_s / (E + m). The default box normalization N = sqrt((E + m) / 2E)
    gives u^dag u = 1 and ubar u = m/E; the covariant option multiplies by
    sqrt(E/m), so ubar u = 1 (massive particles only). Returns (u_1, u_2, E),
    with E from `on_shell_energy`.
    """
    if m == 0.0 and px == py == pz == 0.0:
        raise MasslessAtRest("massless spinor needs a nonzero momentum")
    if normalization == "covariant":
        if m == 0.0:
            raise MasslessAtRest("covariant normalization undefined for massless spinors")
    elif normalization != "box":
        raise ValueError(f"unknown normalization {normalization!r}")
    energy = on_shell_energy((px, py, pz), m)
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


def transverse_basis(kx: float, ky: float, kz: float):
    """Deterministic real orthonormal transverse pair for wavevector k, as two 3-tuples.

    The first vector is the Gram-Schmidt projection of the Cartesian axis
    least aligned with k (the first such axis on a tie); the second is
    khat x e1. For k along +z this yields (1, 0, 0) and (0, 1, 0).
    k is first rescaled by the power of two that brings its largest
    component into [0.5, 1): that is exact, so khat is unchanged wherever
    |k|^2 is a normal float, and a k whose square would underflow or
    overflow keeps its direction.
    """
    big = max(abs(kx), abs(ky), abs(kz))
    if big == 0.0:
        raise ZeroWavevector("polarization undefined for k = 0")
    shift = -math.frexp(big)[1]
    kx, ky, kz = math.ldexp(kx, shift), math.ldexp(ky, shift), math.ldexp(kz, shift)
    norm = math.sqrt(kx * kx + ky * ky + kz * kz)
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
