"""Pair-bubble energy shift of the exchanged photon and its consequences.

The shift density is the spin-summed, polarization-averaged |coupling|^2
weighted by the two-level energy brackets. With box-normalized spinors the
spin and polarization sum is a closed Dirac trace,
[p.p'_perp + E E' - p.p' - m^2] / (E E') with p' = p + k, so no spinor is
built for it; `pair_coupling` writes the one vertex on the Pauli blocks of
`pauli`, and the module never loads the 4x4 `dirac` layer. Integrating the
density over all momenta with a momentum cutoff gives the level shift whose
cutoff convergence is diagnosed here. The first-order corrected exchange
amplitude and the frame-compensating coupling rescale close the loop back to
the scattering module.

k enters the integral only through E' = E_{p+k}, so the radial half of
`total_shift`'s grid, which depends on (m, cutoff, n_radial) alone, is a
read-only table in a one-entry `functools.lru_cache`: a k-scan at one cutoff
builds it once.
"""
from __future__ import annotations

import functools
import math
import numbers
from collections import namedtuple

import numpy as np

from .amplitudes import _guard_pole, _second_order, coupling_prefactor
from .amplitudes import moller_total
from .errors import (
    ConfigError,
    CorrectionTooLarge,
    GridTooCoarse,
    PoleEncountered,
    RealPairThreshold,
    SignMismatch,
    ZeroWavevector,
)
from .jsonio import write_table
from .lorentz import NATURAL, Constants, FourVector, boost, cm_boost, on_shell_energy
from .pauli import _require_index, bar_dot, slash_column, spin_pair, transverse_basis

# Beyond ~1e95 the p^-4 edge profile underflows and the report turns NaN.
_MAX_CUTOFF = 1e60
# The kernel runs in blocks of _BLOCK_POINTS, so its memory does not grow with
# the grid. Peak RSS of a fresh process making one call at each cap (CPython
# 3.11, numpy 2.4): 47 MB at 256 x 1024, of which 17 MB is leggauss's
# 1024 x 1024 companion matrix, 29 MB the interpreter and under 0.5 MB the
# call's own arrays; 77 MB at 131072 x 2, where three arrays of one value per
# Gauss node of both radial grids (12.6 MB each) are alive at once: the grid
# table's radii, the profile and the node weights that _panel_sums forms from
# the table's per-panel half-widths (3.1 MB). After the call _grid_table's cache
# keeps the radii, the half-widths and the edges, 17 MB, until the next key's table
# is built, before that call's sweep: a second call at 131072 x 2 and another cutoff
# peaks at 78 MB. The default grid's table is 13 KB.
_MAX_N_THETA = 1024
_MAX_GRID_NODES = 2**18
# Grid points per kernel call in _radial_profile. Each temporary of a block is
# 32 KiB, a quarter of glibc's 128 KiB heap-trim threshold; the freed block is
# reused by the next one and total_shift takes no page fault. From 6144 points
# the freed temporaries push the heap top past the threshold, it is returned
# to the OS, and the default grid faults 80-200 pages back in per call. Fewer
# points per block pay more per-call Python overhead (2048: about 12 % slower).
_BLOCK_POINTS = 4096
# corrected_amplitude's bound on |pair shift| over the smallest energy denominator,
# read at each call: the first-order correction holds for small shifts only
CORRECTION_GUARD = 0.1
# d^3p / (2 pi)^3: the V of the box-sum measure V d^3p / (2 pi)^3 cancels the
# 1/V of the squared prefactor exactly, so the momentum sum runs at V = 1
_MEASURE = 1.0 / (2.0 * math.pi) ** 3


def _three_vector(name: str, vector) -> np.ndarray:
    """`vector` as a new float array of 3 numbers; any other shape, a ragged vector or
    a value that is not a number is a ConfigError naming `name`."""
    try:
        array = np.array(vector, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be 3 numbers: {exc}") from None
    if array.shape != (3,):
        raise ConfigError(f"{name} must be 3 numbers, got an array of shape {array.shape}")
    return array


def outgoing_eta(p3, k3, m: float) -> float:
    """Rest-mass-over-energy factor of the electron at momentum p + k."""
    return m / on_shell_energy(_three_vector("p3", p3) + _three_vector("k3", k3), m)


def pair_coupling(
    p3,
    k3,
    s: int = 1,
    s_out: int = 1,
    alpha: int = 1,
    constants: Constants = NATURAL,
) -> complex:
    """Transition rate of the photon -> pair two-level system.

    f ubar(p + k, s_out) slash(eps_alpha) u(p, s) on the Pauli blocks, with f
    from the outgoing eta and E_p + E_{p+k}, the energies of the spinors. The
    polarization is real, so the reversed process is the complex conjugate.
    """
    kx, ky, kz = _three_vector("k3", k3).tolist()
    if kx == ky == kz == 0.0:
        raise ZeroWavevector("pair coupling undefined for k = 0")
    _require_index("polarization", alpha)
    _require_index("spin", s)
    _require_index("spin", s_out)
    px, py, pz = _three_vector("p3", p3).tolist()
    m = constants.m_e
    *u_p, e_p = spin_pair(px, py, pz, m)
    *u_pk, e_pk = spin_pair(px + kx, py + ky, pz + kz, m)
    prefactor = coupling_prefactor(m / e_pk, e_pk + e_p, constants)
    e = transverse_basis(kx, ky, kz)[alpha - 1]
    return prefactor * bar_dot(u_pk[s_out - 1], slash_column(e, u_p[s - 1]))


@functools.cache
def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], built once per n."""
    rule = np.polynomial.legendre.leggauss(n)
    for array in rule:
        array.setflags(write=False)
    return rule


def _cylindrical_terms(p_sq, p_perp2, p_par, k_norm: float, m: float, photon_energy: float):
    """E', spinor factor and unit-coupling shift density in cylindrical coordinates about k.

    `p_sq = |p|^2`, `p_perp2 = |p x khat|^2` and `p_par = p.khat` are arrays,
    `p_perp2` and `p_par` of one shape, or the Python floats of one sample;
    E = sqrt(|p|^2 + m^2) is evaluated on the shape of `p_sq`, so a grid
    passes it once per radius. A sample takes math.sqrt and compares its one
    C with the threshold directly, so it creates no numpy scalar; both
    square roots are correctly rounded, and every other step is the same
    operation on either kind, so a sample is bit for bit the grid's value at
    the same coordinates.
    The spinor factor is the closed Dirac trace of the spin-summed,
    polarization-averaged squared bilinear (Peskin & Schroeder 5.1),
    [p.p'_perp + E E' - p.p' - m^2] / (E E') with p' = p + k and 3-vector
    products. Both differences cancel as p nears the k axis (1e-3 relative at
    1e-7 rad and |p| = 1e3), so they are evaluated as p.p'_perp = p_perp2 and
    E E' - p.p' - m^2 = |k|^2 (p_perp2 + m^2) / (E E' + p.p' + m^2), with
    p.p' + m^2 = E^2 + |k| p.khat. That ratio is at most 1/2, so the product
    cannot overflow, and a |k|^2 that underflows drops out instead of
    dividing. The squared prefactor P0 eta1^2 / C (C = E + E') times the
    bracket 1/(w - C) - 1/(w + C) is -2 P0 (m^2 / E'^2) / (C^2 - w^2), with
    P0 = coupling_prefactor(1, 1)^2; the kernel returns it at P0 = 1 and
    needs no Constants. The bracket has poles at w = +-C, so
    RealPairThreshold is raised once |w| reaches C at any momentum; scaling
    the smallest C by 1 - 1e-12 rounds exactly as scaling each C would.
    Over all p the smallest C is sqrt(|k|^2 + 4 m^2), at p = -k/2; an array
    is not scanned when |w| lies 1e-10 relative below that, far beyond the
    few ulps by which a computed C can fall short, as none can reach it.

    The inputs are only read. Every augmented assignment below acts on a
    temporary of this call: on arrays it writes in place, so a grid block
    allocates one array per new name and none per operation, and on the
    floats of a single sample it rebinds. The density is grouped as
    ((m^2 / E'^2) / (C^2 - w^2)) spinor (-2): each step stays in range wherever
    the density itself is, from |p| ~ 1e150 (where E'^2 (C^2 - w^2) would
    overflow) down to m ~ 1e-150 (where (spinor / E'^2) / (C^2 - w^2),
    with m^2 folded into P0, would overflow as 1 / m^4).
    """
    sqrt = math.sqrt if type(p_par) is float else np.sqrt
    m_sq = m * m
    e_p_sq = p_sq + m_sq
    e_p = sqrt(e_p_sq)
    spinor = p_perp2 + m_sq
    e_pk_sq = p_par + k_norm
    e_pk_sq *= e_pk_sq
    e_pk_sq += spinor
    e_pk = sqrt(e_pk_sq)
    combined = e_pk + e_p
    smallest = combined if type(combined) is float else (
        math.inf if abs(photon_energy) < math.hypot(k_norm, 2.0 * m) * (1.0 - 1e-10)
        else np.minimum.reduce(combined, axis=None))
    if abs(photon_energy) >= smallest * (1.0 - 1e-12):
        raise RealPairThreshold(
            f"photon energy {photon_energy!r} reaches the pair threshold"
        )
    e_prod = e_pk * e_p
    denom = k_norm * p_par
    denom += e_p_sq
    denom += e_prod
    spinor /= denom
    spinor *= k_norm * k_norm
    spinor += p_perp2
    spinor /= e_prod
    density = m_sq / e_pk_sq
    combined *= combined
    combined -= photon_energy * photon_energy
    density /= combined
    density *= spinor
    density *= -2.0
    return e_pk, spinor, density


def _cylindrical_coordinates(px, py, pz, k_list, k_norm: float):
    """|p|^2, |p x khat|^2 and p.khat of momentum components, arrays or floats alike.

    They are read by components, so only the unit vector khat = k / |k|
    enters them. Every square is a product: numpy squares an array as
    x * x, while `**` on a Python float calls C pow, which rounds some
    squares differently, so the floats of a sample would drift from the
    array path by an ulp.
    """
    kx, ky, kz = k_list
    hx, hy, hz = kx / k_norm, ky / k_norm, kz / k_norm
    p_sq = px * px + py * py + pz * pz
    p_par = px * hx + py * hy + pz * hz
    cross_x = py * hz - pz * hy
    cross_y = pz * hx - px * hz
    cross_z = px * hy - py * hx
    p_perp2 = cross_x * cross_x + cross_y * cross_y + cross_z * cross_z
    return p_sq, p_perp2, p_par


def _density_scale(constants: Constants) -> float:
    """-2 P0, the density scale, with P0 = coupling_prefactor(1, 1)^2.

    The one place -2 P0 is formed: a scale that overflows is a ConfigError.
    Halving it gives P0 exactly, the factor each result applies once.
    """
    scale = -2.0 * coupling_prefactor(1.0, 1.0, constants) ** 2
    if not math.isfinite(scale):
        raise ConfigError("density scale -2 (e c hbar)^2 / (V eps0) is not a finite float")
    return scale


def _density_terms(p3s: np.ndarray, k3: np.ndarray, constants: Constants, photon_energy: float):
    """eta1, spinor factor and shift density for momenta of shape (..., 3).

    The Cartesian entry to `_cylindrical_terms` for arrays of momenta;
    eta1 = m / E' comes from the kernel's E', and the density is scaled by P0.
    """
    p0 = -0.5 * _density_scale(constants)
    k_list = k3.tolist()
    k_norm = math.hypot(*k_list)
    m = constants.m_e
    e_pk, spinor_factor, density = _cylindrical_terms(
        *_cylindrical_coordinates(*p3s.transpose(-1, *range(p3s.ndim - 1)), k_list, k_norm),
        k_norm, m, photon_energy,
    )
    density *= p0
    return m / e_pk, spinor_factor, density


class PairShiftSample(namedtuple("PairShiftSample",
                                  "p3 k3 eta1 spinor_factor shift_density")):
    """One pair-momentum sample with its factors split out.

    spinor_factor is the spin-summed, polarization-averaged squared vertex
    bilinear, the Dirac trace [p.p'_perp + E E' - p.p' - m^2] / (E E') with
    p' = p + k and p.p'_perp = p.p' - (p.khat)(p'.khat); shift_density is
    negative whenever the photon energy lies below the pair threshold.
    """

    __slots__ = ()


def pair_shift_sample(
    p3, k3, constants: Constants = NATURAL, photon_energy: float | None = None
) -> PairShiftSample:
    """Shift density at one pair momentum, with its provenance fields.

    The kernel runs on the Python floats of the components; its density is
    scaled by P0 here. Raises ConfigError for a non-finite p3, k3 or
    photon_energy, for momenta whose squared energies overflow, and for a
    density that overflows once scaled.
    """
    p3 = _three_vector("p3", p3)
    k3 = _three_vector("k3", k3)
    p_list, k_list = p3.tolist(), k3.tolist()
    p_norm, k_norm = math.hypot(*p_list), math.hypot(*k_list)
    for name, value, norm in (("p", p3, p_norm), ("k", k3, k_norm),
                              ("photon_energy", photon_energy, photon_energy)):
        if norm is not None and not math.isfinite(norm):
            raise ConfigError(f"{name} must be finite, got {value}")
    if k_norm == 0.0:
        raise ZeroWavevector("shift density undefined for k = 0")
    # every squared-energy sum of the kernel stays below 4 (|p| + |k| + m)^2
    reach = p_norm + k_norm + constants.m_e
    if not math.isfinite(4.0 * reach * reach):
        raise ConfigError(f"|p| + |k| + m = {reach:.3g} must have a finite square")
    if photon_energy is None:
        photon_energy = k_norm
    scale = _density_scale(constants)
    e_pk, spinor_factor, density = _cylindrical_terms(
        *_cylindrical_coordinates(*p_list, k_list, k_norm), k_norm, constants.m_e, photon_energy
    )
    density *= -0.5 * scale
    if not math.isfinite(density):
        raise ConfigError(f"the shift density overflows: -2 P0 = {scale!r} is too large "
                          f"for this momentum")
    p3.setflags(write=False)
    k3.setflags(write=False)
    return tuple.__new__(PairShiftSample, (p3, k3, float(constants.m_e / e_pk),
                                           float(spinor_factor), float(density)))


def shift_density(
    p3, k3, constants: Constants = NATURAL, photon_energy: float | None = None
) -> float:
    """Shift contribution of one pair momentum; negative below threshold.

    `photon_energy` defaults to |k| (on-shell photon), for which the
    threshold can never be reached with a massive electron; an explicit
    off-shell value makes RealPairThreshold reachable.
    """
    return pair_shift_sample(p3, k3, constants, photon_energy).shift_density


class GridSpec(namedtuple("GridSpec", "n_radial n_theta n_phi")):
    """Log-radial grid x Gauss rule in the angle to k for the momentum sum.

    `n_phi` is accepted and has no effect: the summed density does not depend
    on the azimuth about k. Sizes are stored as int. A size that is not an
    int or a numpy integer (a bool, a float even when integral), `n_theta`
    above _MAX_N_THETA or `n_radial * n_theta` above _MAX_GRID_NODES is a
    ConfigError.
    """

    __slots__ = ()

    def __new__(cls, n_radial=96, n_theta=16, n_phi=8):
        for name, size in zip(cls._fields, (n_radial, n_theta, n_phi)):
            if type(size) is not int and (isinstance(size, bool)
                                          or not isinstance(size, numbers.Integral)):
                raise ConfigError(f"grid sizes must be integers, got {name}={size!r}")
        # Python ints: a numpy integer's product below could wrap past the cap
        n_radial, n_theta, n_phi = int(n_radial), int(n_theta), int(n_phi)
        if n_radial < 4 or n_theta < 2 or n_phi < 1:
            raise ConfigError("grid too small: need n_radial >= 4, n_theta >= 2, n_phi >= 1")
        if n_theta > _MAX_N_THETA or n_radial * n_theta > _MAX_GRID_NODES:
            raise ConfigError(
                f"grid too large: need n_theta <= {_MAX_N_THETA} and "
                f"n_radial * n_theta <= {_MAX_GRID_NODES}"
            )
        return tuple.__new__(cls, (n_radial, n_theta, n_phi))


class ConvergenceReport(namedtuple("ConvergenceReport", (
    "cutoffs", "partial_sums", "tail_estimates", "fitted_slope", "refine_delta",
))):
    """Cutoff scan of the momentum integral with tail and slope diagnostics.

    refine_delta is the relative move of the total when the radial panel
    count doubles, the figure compared against `refine_tol`.
    """

    __slots__ = ()

    def write_csv(self, fh) -> None:
        write_table(fh, ("cutoff", "partial_sum", "tail_estimate"),
                    zip(self.cutoffs, self.partial_sums, self.tail_estimates))

    def to_json_dict(self) -> dict:
        return {
            "fitted_slope": self.fitted_slope,
            "refine_delta": self.refine_delta,
            "cutoffs": [float(c) for c in self.cutoffs],
            "partial_sums": [float(s) for s in self.partial_sums],
            "tail_estimates": [float(t) for t in self.tail_estimates],
        }


def _radial_profile(radius_sets: tuple[np.ndarray, ...], k_norm: float, grid: GridSpec,
                    m: float, photon_energy: float) -> np.ndarray:
    """Angular integral of the unit-coupling density at each radius, in one sweep of blocks.

    The summed density depends only on |p| and the angle to k, so the polar
    axis is put on k and one Gauss rule in cos(theta), weights 2 pi w_i,
    covers the whole sphere. The kernel takes the (node, radius) grid of
    r^2 sin^2(theta) and r cos(theta) directly, at most _BLOCK_POINTS points
    at a time (one radius per block if n_theta exceeds it). The sin^2 and
    cos columns are formed once per sweep, and each block's grids are their
    rank-1 products with the block's row of radii, one `np.dot` of inner
    dimension 1 each: every element is one correctly rounded product, the
    same value the broadcast product gives, but numpy's broadcast multiply
    runs its inner loop once per angle row and takes about twice as long
    (6-8 against 2-3 us per 4096-point grid). Radii run along the last
    axis, so the per-radius E, E^2 broadcast over contiguous rows.

    `radius_sets` is a sequence of radius arrays; the profile holds all
    their radii in order, flattened. Each set is blocked from its own first
    radius, as if it ran alone: BLAS sums the rows of a block's last
    partial SIMD group in another order, so a block that straddled two sets
    would move values of either by an ulp. The radii are only read, so the
    read-only arrays of total_shift's grid table pass as they are.
    """
    cos_t, weights = _gauss_rule(grid.n_theta)
    cos_column = cos_t[:, None]
    sin_sq_column = (1.0 - cos_t * cos_t)[:, None]
    angular = 2.0 * math.pi * weights
    cols = max(1, _BLOCK_POINTS // grid.n_theta)
    profile = np.empty(sum(radii.size for radii in radius_sets))
    offset = 0
    for radii in radius_sets:
        radii = radii.ravel()
        for start in range(0, radii.size, cols):
            block = radii[start:start + cols]
            r_sq = block * block
            _, _, dens = _cylindrical_terms(
                r_sq, np.dot(sin_sq_column, r_sq[None]), np.dot(cos_column, block[None]),
                k_norm, m, photon_energy,
            )
            np.dot(angular, dens, out=profile[offset + start:offset + start + block.size])
        offset += radii.size
    return profile


@functools.lru_cache(maxsize=1)
def _grid_table(m: float, cutoff: float, n_radial: int) -> tuple:
    """The k-independent half of total_shift's grid: read-only arrays of one value per radius.

    (cutoffs, radii, half, window, log_p, spread): the coarse cutoff
    edges; the 4-point Gauss radii of the log-radius panels of the coarse
    and then the doubled grid, shape (3 n_radial, 4), and the half-widths of
    those panels, one per panel; the fit window, its centred log radii and
    their spread log_p @ log_p. The coarse linspace step is twice the
    doubled grid's, so its edges are bit for bit the even ones. Every caller
    shares the cached table of the last key, so its arrays are read-only.
    """
    fine_edges = np.exp(np.linspace(math.log(1e-4 * m), math.log(cutoff), 2 * n_radial + 1))
    cutoffs = fine_edges[2::2].copy()
    log_fine = np.log(fine_edges)
    lo = np.concatenate((log_fine[:-1:2], log_fine[:-1]))
    hi = np.concatenate((log_fine[2::2], log_fine[1:]))
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    radii = half[:, None] * _gauss_rule(4)[0]
    radii += mid[:, None]
    np.exp(radii, out=radii)
    window = cutoffs >= cutoff / 100.0 * (1.0 - 1e-9)
    log_p = np.log(cutoffs[window])
    log_p -= log_p.sum() / log_p.size
    for array in (cutoffs, radii, half, window, log_p):
        array.setflags(write=False)
    return cutoffs, radii, half, window, log_p, float(log_p @ log_p)


def _panel_sums(radii: np.ndarray, half: np.ndarray, k_norm: float, grid: GridSpec,
                m: float, photon_energy: float) -> np.ndarray:
    """Panel-wise Gauss quadrature in log radius on two radial grids at once.

    Returns the panel sums of _grid_table's `radii` and panel half-widths
    `half`, coarse grid first. The Gauss nodes of both grids run through the
    kernel in one `_radial_profile` sweep, each grid blocked from its own
    first node. The node weights, half-width times Gauss weight, are formed
    per call as one rank-1 product, so the cache keeps one value per panel,
    not one per node; np.dot forms it about 3.5x faster than the broadcast
    product, with the same floats, since each entry is one rounded product.
    """
    n_coarse = radii.shape[0] // 3
    profile = _radial_profile((radii[:n_coarse], radii[n_coarse:]), k_norm, grid, m,
                              photon_energy)
    # measure: p^2 dp / (2 pi)^3, with dp = p du on the log axis
    integrand = _cubed_measure(profile.reshape(radii.shape), radii)
    weights = np.dot(half[:, None], _gauss_rule(4)[1][None])
    return np.einsum("pi,pi->p", weights, integrand)


def _cubed_measure(profile: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Scale `profile` in place to _MEASURE r^3 F(r) and return it.

    Formed as ((F r) r) r so it stays in range wherever r^3 F does: r^3
    alone underflows below r ~ 1e-103, and the grid starts at 1e-4 m, so
    a mass below about 1e-99 puts radii there; r^3 F, with F ~ 1 / m^2 at
    small r, stays in range down to m = 1e-150.
    """
    profile *= radii
    profile *= radii
    profile *= radii
    profile *= _MEASURE
    return profile


def total_shift(
    k3,
    cutoff: float,
    grid: GridSpec = GridSpec(),
    constants: Constants = NATURAL,
    photon_energy: float | None = None,
    refine_tol: float = 0.01,
    n_threads: int = 1,
) -> tuple[float, ConvergenceReport]:
    """Momentum integral of the shift density up to `cutoff`.

    The radial axis uses log-spaced panels from 1e-4 m with fixed-order Gauss
    rules, the angular integral one Gauss rule in the angle to k (`grid.n_phi`
    is accepted and has no effect); the mode volume V cancels exactly, so the
    result does not depend on it. The report carries the cumulative integral
    versus cutoff, a 1/cutoff tail estimate from the last sampled density,
    the power-law slope of the radial profile over the top two decades and
    the grid-refinement delta. The slope is the closed-form least-squares
    slope sum(x y) / sum(x x) of x = log p and y = log |F|, each centred on
    its mean (NaN when the window holds one radius); it needs no linear
    solve and keeps full precision at large log p, where a fit on the
    uncentred values loses digits (1e-14 relative at a cutoff of 1e60).
    The window holds every cutoff edge from cutoff / 100 up, and an edge
    that lies there to within rounding: the edges are exponentials of a
    linspace, off by about 1e-13 relative, and at least 8.8e-5 relative
    apart, so the window is cut at 1 - 1e-9 of cutoff / 100 and does not
    depend on which way that edge rounds.
    Both sweeps run at unit coupling, P0 = (e c hbar)^2 / (V eps0) = 1, and
    P0 is applied once to each reported total, partial sum and tail
    estimate: F stays in range where P0 F underflows (e = 1e-150 at a
    cutoff of 1e60), and the centred fit removes log P0 anyway. The
    refinement delta |S_c - S_f| / |S_f| is formed from the unit-coupling
    totals, so it is the same at every charge and guards the grid also
    where the reported totals underflow. The radial grid is the cached
    _grid_table; the report's cutoffs are a copy of its edges.

    The profile runs in two sweeps, in this order: the Gauss nodes of the
    coarse panels and of the doubled grid together, then the cutoff edges.
    RealPairThreshold is raised by the first sweep that reaches the
    threshold. ConfigError follows it when the integral overflows, then
    GridTooCoarse, when doubling the radial panel count moves the result
    by more than refine_tol, both before the edge sweep, and ConfigError
    when a tail estimate overflows after it. The scalar arguments are
    checked with math.isfinite: ConfigError for a non-finite k3, cutoff,
    photon_energy or refine_tol, a negative refine_tol (0 demands an exact
    match), a cutoff above _MAX_CUTOFF, or a coupling scale that is not a
    finite normal float or whose -2 P0 is not finite, all before the first
    sweep. `n_threads` is accepted and has no effect: the momentum sum runs
    as one vectorized pass.
    """
    k3 = _three_vector("k3", k3)
    k_list = k3.tolist()
    if not all(map(math.isfinite, k_list)):
        raise ConfigError(f"k must be finite, got {k3}")
    for name, value in (
        ("cutoff", cutoff),
        ("photon_energy", photon_energy),
        ("refine_tol", refine_tol),
    ):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if refine_tol < 0.0:
        raise ConfigError(f"refine_tol must be >= 0, got {refine_tol!r}")
    k_norm = math.hypot(*k_list)
    if k_norm == 0.0:
        raise ZeroWavevector("momentum integral undefined for k = 0")
    m = constants.m_e
    if cutoff <= 10.0 * max(m, k_norm):
        raise ConfigError(f"cutoff {cutoff!r} must exceed 10 max(m, |k|)")
    if cutoff > _MAX_CUTOFF:
        raise ConfigError(f"cutoff {cutoff!r} exceeds {_MAX_CUTOFF:g}")
    if photon_energy is None:
        photon_energy = k_norm
    # -2 P0 at V = 1, see _MEASURE; halving it is exact
    scale = _density_scale(constants.with_volume(1.0))
    p0 = -0.5 * scale
    n_radial = grid.n_radial
    cutoffs, radii, half, window, log_p, spread = _grid_table(m, float(cutoff), n_radial)

    panel_sums = _panel_sums(radii, half, k_norm, grid, m, photon_energy)
    unit_total = float(panel_sums[:n_radial].sum())
    unit_refined = float(panel_sums[n_radial:].sum())
    # a coupling too large for these momenta overflows here, in Python floats
    total = unit_total * p0
    if not (math.isfinite(total) and math.isfinite(unit_refined * p0)):
        raise ConfigError(f"the pair shift overflows: -2 P0 = {scale!r} is too large "
                          f"for these momenta")
    # the move at unit coupling, in range where the totals times P0 underflow;
    # an all-underflowed integral has no relative move, and NaN does not trip the guard
    refine_delta = abs(unit_total - unit_refined) / abs(unit_refined) if unit_refined else math.nan
    if refine_delta > refine_tol:
        raise GridTooCoarse(
            f"doubling the radial grid moved the result by "
            f"{refine_delta:.3e} (> {refine_tol:g})"
        )

    # the panel sums share one sign, so every partial sum is finite once the total is
    partial_sums = np.cumsum(panel_sums[:n_radial])
    partial_sums *= p0
    shape = _radial_profile((cutoffs,), k_norm, grid, m, photon_energy)

    # closed-form least squares about the means; a one-radius window has no slope
    log_f = np.log(np.abs(shape[window]))
    log_f -= log_f.sum() / log_f.size
    fitted_slope = float(log_p @ log_f) / spread if spread else math.nan

    # profile ~ A p^-4 beyond the fit window, so the remainder integral is F(p) p
    tail_estimates = _cubed_measure(shape, cutoffs)
    # no estimate is positive, so none overflows when the smallest times P0 is finite
    if not math.isfinite(float(tail_estimates.min()) * p0):
        raise ConfigError(f"a tail estimate overflows: P0 = {p0!r} is too large "
                          f"for these momenta")
    tail_estimates *= p0

    # a copy of the cutoffs, so a caller that writes into the report cannot reach the cache
    report = ConvergenceReport(
        cutoffs.copy(), partial_sums, tail_estimates, fitted_slope, refine_delta
    )
    return total, report


def correction_factor(delta_e: float, photon_energy: float, pair_shift: float) -> float:
    """First-order multiplier (shift / E_k) ((dE)^2 + E_k^2) / ((dE)^2 - E_k^2).

    Raises PoleEncountered at (dE)^2 = E_k^2, ZeroWavevector at E_k = 0, and
    ConfigError when (dE)^2 - E_k^2 or the factor is not a finite float.
    """
    denom = delta_e * delta_e - photon_energy * photon_energy
    if denom == 0.0:
        raise PoleEncountered("correction factor pole at (dE)^2 = E_k^2")
    if photon_energy == 0.0:
        raise ZeroWavevector("correction factor undefined for E_k = 0")
    if math.isfinite(denom):
        # E_k^2 is then in range, so the power cannot overflow
        factor = (pair_shift / photon_energy) * (delta_e * delta_e + photon_energy**2) / denom
        if math.isfinite(factor):
            return factor
    raise ConfigError(f"correction factor is not a finite float: dE = {delta_e!r}, "
                      f"E_k = {photon_energy!r}, pair shift = {pair_shift!r}")


class CorrectedAmplitude(namedtuple("CorrectedAmplitude",
                                     "base first_order factor exact pair_shift")):
    """Exchange amplitude with the first-order pair-shift correction."""

    __slots__ = ()


def corrected_amplitude(
    p1: FourVector,
    q1: FourVector,
    p2: FourVector,
    q2: FourVector,
    pair_shift: float,
    spins: tuple[int, int, int, int] = (1, 1, 1, 1),
    constants: Constants = NATURAL,
    normalization: str = "box",
) -> CorrectedAmplitude:
    """First-order correction of the exchange amplitude for a shifted level.

    Returns the uncorrected amplitude, the first-order correction
    base * factor, and the exact shifted-denominator resummation for
    comparison. Raises CorrectionTooLarge when |pair_shift| exceeds
    CORRECTION_GUARD times the smallest energy denominator.
    """
    base = moller_total(p1, q1, p2, q2, spins=spins, constants=constants,
                        normalization=normalization)
    denoms = [abs(part.denom) for part in base.parts]
    if abs(pair_shift) > CORRECTION_GUARD * min(denoms):
        raise CorrectionTooLarge(
            f"|pair shift| = {abs(pair_shift):.3e} exceeds {CORRECTION_GUARD:g} x min denominator"
        )
    delta_e = p1.t - p2.t
    factor = correction_factor(delta_e, base.provenance["photon_energy"], pair_shift)
    first_order = base.total * factor
    exact = 0.0 + 0.0j
    scale = max(denoms)
    for name, omega1, omega2, denom, weight in base.parts:
        shifted = denom - pair_shift
        _guard_pole(shifted, scale, name, " shifted by the pair shift")
        exact += _second_order(weight * omega1, omega2, shifted)
    return CorrectedAmplitude(base, first_order, factor, exact, pair_shift)


def cm_correction_factor(
    p1: FourVector,
    q1: FourVector,
    p2: FourVector,
    q2: FourVector,
    cutoff: float,
    grid: GridSpec = GridSpec(),
    constants: Constants = NATURAL,
) -> float:
    """Correction factor re-evaluated in the zero-momentum frame.

    Boosts the kinematics to the frame where the incoming spatial momenta
    cancel, reruns the momentum integral for the boosted exchange photon, and
    assembles the factor there.
    """
    to_cm = cm_boost(p1 + q1)
    b1, b2 = boost(to_cm, p1), boost(to_cm, p2)
    k_cm = b1 - b2
    shift_cm, _ = total_shift(k_cm.spatial, cutoff, grid, constants)
    return correction_factor(
        b1.t - b2.t, math.hypot(k_cm.x, k_cm.y, k_cm.z), shift_cm
    )


def corrected_pair_coupling(
    p3,
    k3,
    s: int = 1,
    s_out: int = 1,
    alpha: int = 1,
    factor_cm: float = 1.0,
    factor_here: float = 1.0,
    constants: Constants = NATURAL,
) -> complex:
    """Pair coupling rescaled by sqrt(factor_cm / factor_here).

    The factors must not be NaN (else ConfigError), must be nonzero and share
    a sign (else SignMismatch), and their ratio must be a positive finite
    float (else ConfigError); in the zero-momentum frame the rescale is 1.
    """
    if math.isnan(factor_cm) or math.isnan(factor_here):
        raise ConfigError(f"a correction factor is NaN: cm={factor_cm!r} here={factor_here!r}")
    if factor_here == 0.0 or factor_cm == 0.0 or (factor_here > 0.0) != (factor_cm > 0.0):
        raise SignMismatch(
            f"correction factors must share a sign: cm={factor_cm!r} here={factor_here!r}"
        )
    ratio = factor_cm / factor_here
    if not 0.0 < ratio < math.inf:
        raise ConfigError(f"correction factor ratio cm / here = {ratio!r} is not a positive "
                          f"finite float: cm={factor_cm!r} here={factor_here!r}")
    return pair_coupling(p3, k3, s, s_out, alpha, constants) * math.sqrt(ratio)
