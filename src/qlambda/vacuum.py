"""Pair-bubble energy shift of the exchanged photon and its consequences.

The shift density is the spin-summed, polarization-averaged |coupling|^2
weighted by the two-level energy brackets. With box-normalized spinors the
spin and polarization sum is a closed Dirac trace,
[p.p'_perp + E E' - p.p' - m^2] / (E E') with p' = p + k, so no spinor is
built for it; `pair_coupling` keeps the explicit spinor bilinear as the
reference. Integrating the density over all momenta with a momentum cutoff
gives the level shift whose cutoff convergence is diagnosed here. The
first-order corrected exchange amplitude and the frame-compensating coupling
rescale close the loop back to the scattering module.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .amplitudes import AmplitudeResult, _guard_pole, coupling_factor, coupling_prefactor
from .amplitudes import moller_total
from .dirac import polarization_column, u_spinor, vertex_bilinear
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
from .lorentz import NATURAL, Constants, FourVector, boost, cm_boost

# Beyond ~1e95 the p^-4 edge profile underflows and the report turns NaN.
_MAX_CUTOFF = 1e60
# The refinement pass evaluates 8 n_radial n_theta momenta at ~200 bytes each,
# so the largest accepted grid peaks near 400 MB.
_MAX_N_THETA = 1024
_MAX_GRID_NODES = 2**18
# d^3p / (2 pi)^3: the V of the box-sum measure V d^3p / (2 pi)^3 cancels the
# 1/V of the squared prefactor exactly, so the momentum sum runs at V = 1
_MEASURE = 1.0 / (2.0 * math.pi) ** 3


def outgoing_eta(p3, k3, m: float) -> float:
    """Rest-mass-over-energy factor of the electron at momentum p + k."""
    pk = np.asarray(p3, float) + np.asarray(k3, float)
    return m / math.sqrt(float(pk @ pk) + m * m)


def pair_coupling(
    p3,
    k3,
    s: int = 1,
    s_out: int = 1,
    alpha: int = 1,
    constants: Constants = NATURAL,
    conjugate: bool = False,
) -> complex:
    """Transition rate of the photon -> pair two-level system.

    The prefactor carries the outgoing electron's eta and the combined energy
    E_p + E_{p+k}; `conjugate` selects the reversed process with the complex
    conjugate polarization.
    """
    p3 = np.asarray(p3, dtype=float)
    k3 = np.asarray(k3, dtype=float)
    if not k3.any():
        raise ZeroWavevector("pair coupling undefined for k = 0")
    m = constants.m_e
    pk = p3 + k3
    e_p = math.sqrt(float(p3 @ p3) + m * m)
    e_pk = math.sqrt(float(pk @ pk) + m * m)
    eta1 = m / e_pk
    prefactor = coupling_factor(eta1, e_pk + e_p, constants).value
    eps = polarization_column(k3, alpha)
    u_in = u_spinor(p3, s, m)
    u_out = u_spinor(pk, s_out, m)
    if conjugate:
        bilinear = vertex_bilinear(u_in, eps.conj(), u_out)
    else:
        bilinear = vertex_bilinear(u_out, eps, u_in)
    return prefactor * bilinear


@functools.cache
def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], built once per n."""
    rule = np.polynomial.legendre.leggauss(n)
    for array in rule:
        array.setflags(write=False)
    return rule


def _cylindrical_terms(p_perp2, p_par, k_norm: float, constants: Constants, photon_energy: float):
    """eta1, spinor factor and shift density in cylindrical coordinates about k.

    `p_perp2 = |p x khat|^2` and `p_par = p.khat` broadcast as arrays or
    floats. The spinor factor is the closed Dirac trace of the spin-summed,
    polarization-averaged squared bilinear (Peskin & Schroeder 5.1),
    [p.p'_perp + E E' - p.p' - m^2] / (E E') with p' = p + k and 3-vector
    products. Both differences cancel as p nears the k axis (1e-3 relative
    at 1e-7 rad and |p| = 1e3), so they are evaluated as p.p'_perp = p_perp2
    and E E' - p.p' - m^2 = |k|^2 (p_perp2 + m^2) / (E E' + p.p' + m^2). That
    ratio is at most 1/2, so the product cannot overflow, and a |k|^2 that
    underflows drops out instead of dividing. The bracket
    1/(w - E - E') - 1/(w + E + E') has poles at w = +-(E + E'), so
    RealPairThreshold is raised once |w| reaches E + E' at any momentum.
    """
    m = constants.m_e
    m_sq = m * m
    p_pk = p_par + k_norm
    e_p = np.sqrt(p_perp2 + p_par * p_par + m_sq)
    e_pk = np.sqrt(p_perp2 + p_pk * p_pk + m_sq)
    combined = e_p + e_pk
    if (abs(photon_energy) >= combined * (1.0 - 1e-12)).any():
        raise RealPairThreshold(
            f"photon energy {photon_energy!r} reaches the pair threshold"
        )
    eta1 = m / e_pk
    e_prod = e_p * e_pk
    dot = p_perp2 + p_par * p_pk
    spinor_factor = (
        p_perp2 + k_norm * k_norm * ((p_perp2 + m_sq) / (e_prod + dot + m_sq))
    ) / e_prod
    prefactor_sq = coupling_prefactor(eta1, combined, constants) ** 2
    bracket = 1.0 / (photon_energy - combined) - 1.0 / (photon_energy + combined)
    return eta1, spinor_factor, prefactor_sq * spinor_factor * bracket


def _density_terms(p3s: np.ndarray, k3: np.ndarray, constants: Constants, photon_energy: float):
    """eta1, spinor factor and shift density for momenta of shape (..., 3).

    The Cartesian entry to `_cylindrical_terms`: p.khat and |p x khat|^2 are
    read by components, so only the unit vector khat enters them.
    """
    k_norm = math.hypot(*k3)
    hx, hy, hz = (component / k_norm for component in k3.tolist())
    px, py, pz = p3s.transpose(-1, *range(p3s.ndim - 1))
    p_par = px * hx + py * hy + pz * hz
    p_perp2 = (py * hz - pz * hy) ** 2 + (pz * hx - px * hz) ** 2 + (px * hy - py * hx) ** 2
    return _cylindrical_terms(p_perp2, p_par, k_norm, constants, photon_energy)


@dataclass(frozen=True)
class PairShiftSample:
    """One pair-momentum sample with its factors split out.

    spinor_factor is the spin-summed, polarization-averaged squared vertex
    bilinear, the Dirac trace [p.p'_perp + E E' - p.p' - m^2] / (E E') with
    p' = p + k and p.p'_perp = p.p' - (p.khat)(p'.khat); shift_density is
    negative whenever the photon energy lies below the pair threshold.
    """

    p3: np.ndarray
    k3: np.ndarray
    eta1: float
    spinor_factor: float
    shift_density: float


def pair_shift_sample(
    p3, k3, constants: Constants = NATURAL, photon_energy: float | None = None
) -> PairShiftSample:
    """Shift density at one pair momentum, with its provenance fields.

    Raises ConfigError for a non-finite p3, k3 or photon_energy, or for
    momenta whose squared energies overflow.
    """
    p3 = np.array(p3, dtype=float)
    k3 = np.array(k3, dtype=float)
    p_norm, k_norm = math.hypot(*p3.tolist()), math.hypot(*k3.tolist())
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
    terms = _density_terms(p3, k3, constants, photon_energy)
    p3.setflags(write=False)
    k3.setflags(write=False)
    return PairShiftSample(p3, k3, *(float(term) for term in terms))


def shift_density(
    p3, k3, constants: Constants = NATURAL, photon_energy: float | None = None
) -> float:
    """Shift contribution of one pair momentum; negative below threshold.

    `photon_energy` defaults to |k| (on-shell photon), for which the
    threshold can never be reached with a massive electron; an explicit
    off-shell value makes RealPairThreshold reachable.
    """
    return pair_shift_sample(p3, k3, constants, photon_energy).shift_density


@dataclass(frozen=True)
class GridSpec:
    """Log-radial grid x Gauss rule in the angle to k for the momentum sum.

    `n_phi` is accepted and has no effect: the summed density does not depend
    on the azimuth about k. `n_theta` above _MAX_N_THETA or
    `n_radial * n_theta` above _MAX_GRID_NODES is a ConfigError.
    """

    n_radial: int = 96
    n_theta: int = 16
    n_phi: int = 8

    def __post_init__(self):
        if self.n_radial < 4 or self.n_theta < 2 or self.n_phi < 1:
            raise ConfigError("grid too small: need n_radial >= 4, n_theta >= 2, n_phi >= 1")
        if self.n_theta > _MAX_N_THETA or self.n_radial * self.n_theta > _MAX_GRID_NODES:
            raise ConfigError(
                f"grid too large: need n_theta <= {_MAX_N_THETA} and "
                f"n_radial * n_theta <= {_MAX_GRID_NODES}"
            )


@dataclass(frozen=True)
class ConvergenceReport:
    """Cutoff scan of the momentum integral with tail and slope diagnostics.

    refine_delta is the relative move of the total when the radial panel
    count doubles, the figure compared against `refine_tol`.
    """

    cutoffs: np.ndarray
    partial_sums: np.ndarray
    tail_estimates: np.ndarray
    fitted_slope: float
    refine_delta: float

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


def _radial_profile(
    radii: np.ndarray,
    k3: np.ndarray,
    grid: GridSpec,
    constants: Constants,
    photon_energy: float,
) -> np.ndarray:
    """Angular integral of the density at each radius (one batched call).

    The summed density depends only on |p| and the angle to k, so the polar
    axis is put on k and one Gauss rule in cos(theta), weights 2 pi w_i,
    covers the whole sphere. The kernel takes the (radius, node) grid of
    r sin(theta) and r cos(theta) directly.
    """
    cos_t, weights = _gauss_rule(grid.n_theta)
    sin_t = np.sqrt(1.0 - cos_t * cos_t)
    p_perp = np.multiply.outer(radii, sin_t)
    p_par = np.multiply.outer(radii, cos_t)
    _, _, dens = _cylindrical_terms(
        p_perp * p_perp, p_par, math.hypot(*k3), constants, photon_energy
    )
    return dens @ (2.0 * math.pi * weights)


def _integrate(
    edges: np.ndarray,
    k3: np.ndarray,
    grid: GridSpec,
    constants: Constants,
    photon_energy: float,
) -> tuple[float, np.ndarray]:
    """Panel-wise Gauss quadrature in log radius; returns total and per-panel sums."""
    gl_nodes, gl_weights = _gauss_rule(4)
    log_edges = np.log(edges)
    lo = log_edges[:-1]
    hi = log_edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    us = mid[:, None] + half[:, None] * gl_nodes[None, :]
    ws = half[:, None] * gl_weights[None, :]
    radii = np.exp(us).ravel()
    profile = _radial_profile(radii, k3, grid, constants, photon_energy).reshape(us.shape)
    # measure: p^2 dp / (2 pi)^3, with dp = p du on the log axis
    integrand = _MEASURE * np.exp(us) ** 3 * profile
    panel_sums = np.einsum("pi,pi->p", ws, integrand)
    return float(panel_sums.sum()), panel_sums


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
    versus cutoff, a 1/cutoff tail estimate from the last sampled density, a
    power-law fit of the radial profile over the top two decades and the
    grid-refinement delta. Raises GridTooCoarse when doubling the radial
    panel count moves the result by more than refine_tol, and ConfigError
    for a non-finite k3, cutoff, photon_energy or refine_tol, or a cutoff
    above _MAX_CUTOFF. `n_threads` is accepted and has no effect: the
    momentum sum runs as one vectorized pass.
    """
    k3 = np.asarray(k3, dtype=float)
    for name, value in (
        ("k", k3),
        ("cutoff", cutoff),
        ("photon_energy", photon_energy),
        ("refine_tol", refine_tol),
    ):
        if value is not None and not np.all(np.isfinite(value)):
            raise ConfigError(f"{name} must be finite, got {value}")
    if not k3.any():
        raise ZeroWavevector("momentum integral undefined for k = 0")
    m = constants.m_e
    if cutoff <= 10.0 * max(m, math.hypot(*k3)):
        raise ConfigError(f"cutoff {cutoff!r} must exceed 10 max(m, |k|)")
    if cutoff > _MAX_CUTOFF:
        raise ConfigError(f"cutoff {cutoff!r} exceeds {_MAX_CUTOFF:g}")
    if photon_energy is None:
        photon_energy = math.hypot(*k3)
    constants = constants.with_volume(1.0)  # see _MEASURE
    log_range = (math.log(1e-4 * m), math.log(cutoff))

    edges = np.exp(np.linspace(*log_range, grid.n_radial + 1))
    total, panel_sums = _integrate(edges, k3, grid, constants, photon_energy)

    fine_edges = np.exp(np.linspace(*log_range, 2 * grid.n_radial + 1))
    refined, _ = _integrate(fine_edges, k3, grid, constants, photon_energy)
    # an all-underflowed integral has no relative move; NaN does not trip the guard
    refine_delta = abs(total - refined) / abs(refined) if refined else math.nan
    if refine_delta > refine_tol:
        raise GridTooCoarse(
            f"doubling the radial grid moved the result by "
            f"{refine_delta:.3e} (> {refine_tol:g})"
        )

    cutoffs = edges[1:]
    partial_sums = np.cumsum(panel_sums)
    edge_profile = _radial_profile(cutoffs, k3, grid, constants, photon_energy)
    # profile ~ A p^-4 beyond the fit window, so the remainder integral is F(p) p
    tail_estimates = _MEASURE * cutoffs**3 * edge_profile

    window = cutoffs >= cutoff / 100.0
    log_p = np.log(cutoffs[window])
    log_f = np.log(np.abs(edge_profile[window]))
    fitted_slope = float(np.polyfit(log_p, log_f, 1)[0])

    report = ConvergenceReport(
        cutoffs, partial_sums, tail_estimates, fitted_slope, refine_delta
    )
    return total, report


def correction_factor(delta_e: float, photon_energy: float, pair_shift: float) -> float:
    """First-order multiplier (shift / E_k) ((dE)^2 + E_k^2) / ((dE)^2 - E_k^2)."""
    denom = delta_e * delta_e - photon_energy * photon_energy
    if denom == 0.0:
        raise PoleEncountered("correction factor pole at (dE)^2 = E_k^2")
    return (pair_shift / photon_energy) * (delta_e * delta_e + photon_energy**2) / denom


@dataclass(frozen=True)
class CorrectedAmplitude:
    """Exchange amplitude with the first-order pair-shift correction."""

    base: AmplitudeResult
    first_order: complex
    factor: float
    exact: complex
    pair_shift: float


def corrected_amplitude(
    p1: FourVector,
    q1: FourVector,
    p2: FourVector,
    q2: FourVector,
    pair_shift: float,
    spins: tuple[int, int, int, int] = (1, 1, 1, 1),
    constants: Constants = NATURAL,
    normalization: str = "box",
    guard: float = 0.1,
) -> CorrectedAmplitude:
    """First-order correction of the exchange amplitude for a shifted level.

    Returns the uncorrected amplitude, the first-order correction
    base * factor, and the exact shifted-denominator resummation for
    comparison. Raises CorrectionTooLarge when |pair_shift| exceeds `guard`
    times the smallest energy denominator.
    """
    base = moller_total(p1, q1, p2, q2, spins=spins, constants=constants,
                        normalization=normalization)
    min_denom = min(abs(part.denom) for part in base.parts)
    if abs(pair_shift) > guard * min_denom:
        raise CorrectionTooLarge(
            f"|pair shift| = {abs(pair_shift):.3e} exceeds {guard:g} x min denominator"
        )
    delta_e = p1.t - p2.t
    factor = correction_factor(delta_e, base.provenance["photon_energy"], pair_shift)
    first_order = base.total * factor
    exact = 0.0 + 0.0j
    scale = max(abs(part.denom) for part in base.parts)
    for part in base.parts:
        shifted = part.denom - pair_shift
        _guard_pole(shifted, scale, f"{part.name} shifted by the pair shift")
        exact += part.weight * part.omega1 * part.omega2 / shifted
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

    Both factors must be nonzero and share a sign; in the zero-momentum frame
    they coincide and the rescale is 1.
    """
    if factor_here == 0.0 or factor_cm == 0.0 or (factor_here > 0.0) != (factor_cm > 0.0):
        raise SignMismatch(
            f"correction factors must share a sign: cm={factor_cm!r} here={factor_here!r}"
        )
    return pair_coupling(p3, k3, s, s_out, alpha, constants) * math.sqrt(
        factor_cm / factor_here
    )
