"""N-level Schroedinger evolution and second-order averaged Hamiltonians.

Supports 2, 3, and 4 level systems with Hermitian zero-diagonal couplings.
The Hamiltonian is constant, so every sampled state follows in closed form
from one eigendecomposition H = V diag(lambda) V^dagger; norm preservation
holds at machine precision for any step size, and the drift guard stays as a
safety net. Averaged quantities are evaluated over one common period of the
rotating coupling phases, where the second-order argument is exact.
"""
from __future__ import annotations

import cmath
import functools
import json
import math
from collections import namedtuple
from fractions import Fraction
from itertools import chain

import numpy as np

from .amplitudes import _second_order
from .errors import ConfigError, DegenerateLevels, IncommensurateGaps, PoleEncountered, StepTooLarge
from .jsonio import json_floats, parse_json, write_table

_HERMITICITY_TOL = 1e-14
_ENERGY_MATCH_RTOL = 1e-9
# largest t_final / dt that evolve accepts; the state table grows with it
_MAX_STEPS = 2**20
# evolve's bound on | |psi(t_n)| - 1 |, read at each call; lambda-sim records it
DRIFT_TOL = 1e-6
# Gauss nodes of the outer double-commutator integral in magnus_second_order
_MAGNUS_NODES = 96


def _coupling_matrix(rows) -> np.ndarray:
    """The complex matrix of document rows of [re, im] pairs of numbers; the number
    rule runs once over all parts."""
    entries = list(chain.from_iterable(rows))
    for entry in entries:
        if type(entry) not in (list, tuple) or len(entry) != 2:
            raise ValueError(f"entry {entry!r} is not an [re, im] pair of numbers")
    parts = json_floats(list(chain.from_iterable(entries)), "malformed key 'couplings': each part")
    # ragged rows cannot fill len(rows) rows of the longest length: reshape raises
    width = max(map(len, rows), default=0)
    return np.fromiter(parts, float).view(complex).reshape(len(rows), width)


class LevelSystem(namedtuple("LevelSystem", "energies couplings")):
    """Level energies plus a Hermitian zero-diagonal coupling matrix.

    Energies and couplings must be finite, and so must the energy spread
    max - min, which bounds every gap; the constructor raises ConfigError
    otherwise.

    The constructor keeps read-only float and complex copies of its inputs,
    so the caller's own arrays stay writable and later writes to them do not
    reach the system.
    """

    __slots__ = ()

    def __new__(cls, energies, couplings):
        energies = np.array(energies, dtype=float)
        couplings = np.array(couplings, dtype=complex)
        if energies.ndim != 1:
            raise ConfigError(f"energies must be a list of numbers, got shape {energies.shape}")
        n = energies.shape[0]
        if n not in (2, 3, 4):
            raise ConfigError(f"supported level counts are 2, 3, 4; got {n}")
        if couplings.shape != (n, n):
            raise ConfigError(f"couplings must be {n}x{n}, got {couplings.shape}")
        # at most 4 x 4: the checks run on Python values
        rows = couplings.tolist()
        levels = energies.tolist()
        if not (all(map(math.isfinite, levels))
                and all(map(cmath.isfinite, chain.from_iterable(rows)))):
            raise ConfigError("energies and couplings must be finite")
        # every gap is at most the spread, so a finite spread keeps them all finite
        spread = max(levels) - min(levels)
        if not math.isfinite(spread):
            raise ConfigError(f"energy spread max - min = {spread!r} is not a finite float")
        # hypot of the halved parts, in one pass over j <= k: abs of a complex raises
        # where its modulus overflows. Both sides are halved so the scale stays
        # finite and the test meaningful; only a residual far beyond any finite
        # scale can still reach inf. The residual at (k, j) is minus the conjugate
        # of the one at (j, k), so (j, k) alone gives its modulus.
        scale, asymmetry = 0.5, 0.0
        for j, row in enumerate(rows):
            for k in range(j, n):
                z, w = row[k], rows[k][j]
                modulus = math.hypot(0.5 * z.real, 0.5 * z.imag)
                if modulus > scale:
                    scale = modulus
                # an exactly Hermitian pair, a zero pair included, has residual 0
                # and |w| = |z|: the full test gives the same floats
                if w == z.conjugate():
                    continue
                modulus = math.hypot(0.5 * w.real, 0.5 * w.imag)
                if modulus > scale:
                    scale = modulus
                # 0.5 z - 0.5 conj(w)
                modulus = math.hypot(0.5 * z.real - 0.5 * w.real, 0.5 * z.imag + 0.5 * w.imag)
                if modulus > asymmetry:
                    asymmetry = modulus
        if asymmetry > _HERMITICITY_TOL * scale:
            raise ConfigError("couplings must be Hermitian")
        if any([rows[j][j] for j in range(n)]):
            raise ConfigError("couplings must have zero diagonal")
        energies.setflags(write=False)
        couplings.setflags(write=False)
        return tuple.__new__(cls, (energies, couplings))

    @property
    def n_levels(self) -> int:
        return self.energies.shape[0]

    def hamiltonian(self) -> np.ndarray:
        return np.diag(self.energies.astype(complex)) + self.couplings

    def to_json_dict(self) -> dict:
        return {
            "energies": [float(e) for e in self.energies],
            "couplings": [
                [[float(c.real), float(c.imag)] for c in row] for row in self.couplings
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "LevelSystem":
        if not isinstance(data, dict):
            raise ConfigError("level system document must be a JSON object")
        unknown = sorted(set(data) - {"energies", "couplings"})
        if unknown:
            raise ConfigError(f"unknown level-system key {unknown[0]!r}")
        for key in ("energies", "couplings"):
            if key not in data:
                raise ConfigError(f"missing level-system key {key!r}")
        try:
            energies = json_floats(data["energies"], "malformed key 'energies': each energy")
        except TypeError as exc:
            raise ConfigError(f"malformed key 'energies': {exc}") from exc
        try:
            couplings = _coupling_matrix(data["couplings"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed key 'couplings': {exc}") from exc
        return cls(energies, couplings)

    @classmethod
    def from_json(cls, text: str) -> "LevelSystem":
        return cls.from_json_dict(parse_json(text))


class Trajectory(namedtuple("Trajectory", "times states max_norm_drift", defaults=(0.0,))):
    """Sampled states of a single evolution run.

    `max_norm_drift` is the largest | |psi(t_n)| - 1 | over the evolved
    samples, the figure evolve's drift guard compares against DRIFT_TOL.
    """

    __slots__ = ()

    def populations(self) -> np.ndarray:
        return self.states.real**2 + self.states.imag**2

    def write_csv(self, fh) -> None:
        """One row per sample: t, then re/im of each amplitude (jsonio.write_table)."""
        n = self.states.shape[1]
        header = ["t", *(f"{part}_{i}" for i in range(n) for part in ("re", "im"))]
        table = np.empty((self.times.shape[0], 2 * n + 1))
        table[:, 0] = self.times
        table[:, 1::2] = self.states.real
        table[:, 2::2] = self.states.imag
        write_table(fh, header, table.tolist())


class EffectiveHamiltonian(namedtuple("EffectiveHamiltonian", "matrix period numeric_matrix")):
    """Second-order averaged Hamiltonian over one coupling period.

    `matrix` is the analytic secular matrix; `numeric_matrix` is the
    independently integrated double-commutator result for cross-checking.
    """

    __slots__ = ()


def evolve(
    system: LevelSystem,
    psi0,
    t_final: float,
    dt: float,
    hbar: float = 1.0,
) -> Trajectory:
    """Propagate psi0 under the full Hamiltonian, sampling every dt.

    The Hamiltonian is constant, so every sample comes from one
    eigendecomposition H = V diag(lambda) V^dagger as
    psi(t_n) = V exp(-i lambda t_n / hbar) V^dagger psi0. With n = q B + r and
    B = isqrt(n_steps + 1), the phase factors into a coarse and a fine part, so
    all samples come from one matrix product of the ceil((n_steps + 1) / B)
    coarse phases with the B fine phases folded into the columns of V, about
    2 sqrt(n_steps) phases per level instead of one per sample; the result is
    unitary for any dt. The largest norm drift is returned as
    Trajectory.max_norm_drift. Raises StepTooLarge if the norm of any sample
    drifts beyond DRIFT_TOL or the largest phase |lambda| t / hbar overflows,
    and ConfigError for non-finite input, a non-positive dt, t_final or hbar,
    more than _MAX_STEPS steps, or a last sample time that overflows.
    """
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (system.n_levels,):
        raise ConfigError(f"psi0 must have {system.n_levels} components")
    # at most 4 components: the checks run on Python values
    amplitudes = psi.tolist()
    if not all(map(cmath.isfinite, amplitudes)):
        raise ConfigError("psi0 must be finite")
    # hypot of the parts: abs of a complex raises where its modulus overflows
    if abs(math.hypot(*[x for z in amplitudes for x in (z.real, z.imag)]) - 1.0) > 1e-9:
        raise ConfigError("psi0 must be normalized")
    for name, value in (("dt", dt), ("t_final", t_final), ("hbar", hbar)):
        if not (value > 0.0 and math.isfinite(value)):
            raise ConfigError(f"{name} must be positive and finite, got {value!r}")
    ratio = t_final / dt
    if ratio > _MAX_STEPS:
        raise ConfigError(f"t_final / dt = {ratio:.3g} exceeds the cap of {_MAX_STEPS} steps")
    n_steps = max(1, int(round(ratio)))
    t_last = n_steps * dt
    if not math.isfinite(t_last):
        raise ConfigError(f"the last sample time {n_steps} x dt overflows")
    evals, evecs = np.linalg.eigh(system.hamiltonian())
    # the largest phase |lambda| t / hbar, formed as the phases below form it;
    # no coarse or fine time exceeds t_last, and eigh returns the eigenvalues
    # in ascending order
    peak = max(-float(evals[0]), float(evals[-1]))
    if not math.isfinite((1.0 / hbar) * (peak * t_last)):
        raise StepTooLarge(f"the phase lambda t / hbar overflows by t = {t_last!r}")
    # sample m = q B + r has phase exp(-i lambda q B dt / hbar) exp(-i lambda r dt / hbar):
    # the B fine phases fold into c_j V[:, j], and one product with the coarse
    # phases gives every state
    rows = n_steps + 1
    block = math.isqrt(rows)
    # the B fine and then the coarse phases, from one exp
    steps = np.concatenate((np.arange(block), np.arange(0, rows, block)))
    phases = np.exp(-1j / hbar * np.outer(steps * dt, evals))
    fine, coarse = phases[:block], phases[block:]
    weighted = evecs * (evecs.conj().T @ psi)
    folded = fine.T[:, :, None] * weighted.T[:, None, :]
    states = (coarse @ folded.reshape(system.n_levels, -1)).reshape(-1, system.n_levels)[:rows]
    states[0] = psi
    flat = states[1:].view(float)
    norm_sq = np.einsum("ij,ij->i", flat, flat)
    # | sqrt(x) - 1 | peaks at the smallest or the largest x, sqrt being monotone;
    # a NaN norm makes both NaN and fails the comparison too
    max_drift = max(abs(math.sqrt(float(norm_sq.max())) - 1.0),
                    abs(math.sqrt(float(norm_sq.min())) - 1.0))
    if not max_drift <= DRIFT_TOL:
        drift = np.abs(np.sqrt(norm_sq) - 1.0)
        i = int(np.flatnonzero(~(drift <= DRIFT_TOL))[0])
        raise StepTooLarge(f"norm drift {drift[i]:.3e} at step {i + 1} exceeds {DRIFT_TOL:.1e}")
    return Trajectory(np.arange(rows) * dt, states, max_drift)


def interaction_frame(system: LevelSystem, t: float, hbar: float = 1.0) -> np.ndarray:
    """Coupling matrix in the frame of the level energies at time t.

    Entry (j, k) is couplings[j, k] * exp(i (E_j - E_k) t / hbar); the
    diagonal stays zero.
    """
    energies = system.energies
    gaps = energies[:, None] - energies[None, :]
    return system.couplings * np.exp(1j * gaps * t / hbar)


def _match_tol(energies: list[float]) -> float:
    """The level-match rule: levels whose gap is <= _ENERGY_MATCH_RTOL max(1, max |E|) match."""
    return _ENERGY_MATCH_RTOL * max(1.0, *map(abs, energies))


def _coupled_edges(system: LevelSystem) -> list[tuple[int, int, complex, float]]:
    """(j, k, coupling, gap |E_j - E_k|) of every directed coupled edge j -> k, row-major.

    Raises DegenerateLevels for a gap that matches under the level-match rule.
    """
    energies = system.energies.tolist()
    tol = _match_tol(energies)
    edges = []
    # Hermiticity holds to a tolerance only, so a transpose may be zero
    for j, row in enumerate(system.couplings.tolist()):
        for k, coupling in enumerate(row):
            if coupling:
                gap = abs(energies[j] - energies[k])
                if gap <= tol:
                    raise DegenerateLevels(f"coupled levels {j} and {k} are degenerate "
                                           f"(gap {gap!r})")
                edges.append((j, k, coupling, gap))
    return edges


def base_period(system: LevelSystem, hbar: float = 1.0) -> float:
    """Least common period of all rotating coupling phases.

    Requires every coupled pair to be nondegenerate and all gaps to be
    commensurate (nonzero rational ratios with denominator <= 1000), so each
    gap completes a whole number of cycles. Only an uncoupled system has
    period inf: one that over- or underflows raises ConfigError.
    """
    return _common_period([edge[3] for edge in _coupled_edges(system)], hbar)


def _common_period(gaps: list[float], hbar: float) -> float:
    if not gaps:
        return math.inf
    ref = max(gaps)
    multipliers = []
    # equal gaps share one ratio; the reference gap's is exactly 1
    for gap in dict.fromkeys(gaps):
        if gap == ref:
            continue
        ratio = gap / ref
        frac = Fraction(ratio).limit_denominator(1000)
        if not frac or abs(ratio - float(frac)) > _ENERGY_MATCH_RTOL:
            raise IncommensurateGaps(f"gap ratio {ratio!r} is not a small rational")
        multipliers.append(frac.denominator)
    common = math.lcm(*multipliers)
    # 2 pi hbar common / ref on the mantissas of hbar and ref, then scaled by
    # their exponents: bit for bit the direct product wherever that stays normal,
    # and 2 pi hbar common cannot overflow ahead of the quotient
    (hbar_m, hbar_e), (ref_m, ref_e) = math.frexp(hbar), math.frexp(ref)
    try:
        period = math.ldexp(2.0 * math.pi * hbar_m * common / ref_m, hbar_e - ref_e)
    except OverflowError:
        period = math.inf
    if not (0.0 < period < math.inf):
        raise ConfigError(f"the common period {period!r} is not a finite positive float")
    return period


def _secular_matrix(system: LevelSystem, edges: list) -> tuple[list[list[complex]], list[tuple]]:
    """Analytic second-order averaged Hamiltonian, as rows, and the paths j -> l -> k.

    The paths are (j, k, e, f) with e = (j -> l) and f = (l -> k) indices into
    `edges` of _coupled_edges, in row-major order of (e, f), so each entry
    (j, k) meets its paths in ascending l. Entry (j, k) sums
    O_jl O_lk / (E_k - E_l) over them whenever E_j and E_k coincide; entries
    between levels of different energy average away at full periods. The
    diagonal reproduces the usual second-order level shifts.
    """
    energies = system.energies.tolist()
    tol = _match_tol(energies)
    leaving = [[] for _ in energies]
    for f, (l, k, o_lk, _) in enumerate(edges):
        leaving[l].append((f, k, o_lk))
    out = [[0j] * len(energies) for _ in energies]
    paths = []
    for e, (j, l, o_jl, _) in enumerate(edges):
        for f, k, o_lk in leaving[l]:
            paths.append((j, k, e, f))
            if abs(energies[j] - energies[k]) <= tol:
                out[j][k] += _second_order(o_jl, o_lk, energies[k] - energies[l])
    return out, paths


@functools.cache
def _unit_gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """_MAGNUS_NODES Gauss-Legendre nodes and weights on [0, 1], built once."""
    nodes, weights = np.polynomial.legendre.leggauss(_MAGNUS_NODES)
    rule = (0.5 * (nodes + 1.0), 0.5 * weights)
    for array in rule:
        array.setflags(write=False)
    return rule


def magnus_second_order(system: LevelSystem, hbar: float = 1.0) -> EffectiveHamiltonian:
    """Second-order averaged Hamiltonian over one common period.

    Returns both the analytic secular matrix and the integrated half
    double-commutator (1/2) int_0^T [K(s), int_0^s K] ds of the rotating
    coupling matrix K. The inner integral is exact,
    int_0^s exp(i g t) dt = s exp(i g s / 2) sinc(g s / 2 pi), and the outer
    one a _MAGNUS_NODES-point Gauss rule over the period. Only the directed
    coupled edges e = (j -> l) carry K and I, so the node sum
    sum_o w_o [K_o, I_o] is one Gram product G[e, f] = sum_o w_o K_e(o) I_f(o),
    and entry (j, k) sums G[e, f] - G[f, e] over the paths e = (j -> l),
    f = (l -> k). Phases are evaluated once per edge as exp(i g s / 2),
    squared for K; its imaginary part gives the sinc. The two results agree
    to quadrature accuracy. Raises ConfigError when a level gap over hbar,
    or 1 / hbar, overflows, and when either result does.
    """
    edges = _coupled_edges(system)
    period = _common_period([edge[3] for edge in edges], hbar)
    secular, paths = _secular_matrix(system, edges)
    if math.isinf(period):
        analytic = np.array(secular)
        return EffectiveHamiltonian(analytic, period, np.zeros_like(analytic))

    # every gap is at most the spread of the levels, so this bounds all of them
    levels = system.energies.tolist()
    if not (math.isfinite((max(levels) - min(levels)) / hbar) and math.isfinite(0.5 / hbar)):
        raise ConfigError(f"level gaps / hbar overflow for hbar = {hbar!r}")
    nodes, weights = _unit_gauss_rule()
    sigma = period * nodes
    coupling = np.array([edge[2] for edge in edges])[:, None]
    angle = np.array([(levels[j] - levels[k]) / hbar for j, k, _, _ in edges])[:, None] * sigma
    half = np.exp(0.5j * angle)
    # sinc(angle / 2 pi) = sin(angle / 2) / (angle / 2) with sin(angle / 2) = Im half;
    # every edge has a nonzero gap, so angle != 0
    sinc = half.imag / (0.5 * angle)
    # couplings too large for their squares over a period overflow in these
    # products; the finiteness check below turns that into a ConfigError
    with np.errstate(over="ignore", invalid="ignore"):
        k_outer = coupling * (half * half)
        inner_int = (coupling * sigma) * half * sinc
        # weights on [0, 1] already divide the integral over the period by its length
        gram = ((k_outer * weights) @ inner_int.T).tolist()
        comm = [[0j] * len(levels) for _ in levels]
        for j, k, e, f in paths:
            comm[j][k] += gram[e][f] - gram[f][e]
        numeric = -0.5j / hbar * np.array(comm)
    if not all(map(cmath.isfinite, chain(chain.from_iterable(secular), numeric.ravel().tolist()))):
        raise ConfigError("second-order couplings overflow: coupling^2 / gap or its "
                          "integral over the period is not a finite float")
    return EffectiveHamiltonian(np.array(secular), period, numeric)


def effective_coupling(omega1: complex, omega2: complex, e1: float, e2: float) -> complex:
    """Second-order transfer rate omega1 * omega2 / (e1 - e2), from `_second_order`.

    Raises ConfigError unless both energies, their gap and both couplings are
    finite, PoleEncountered when the two levels match under the level-match
    rule, and ConfigError when the rate overflows, as magnus_second_order does.
    """
    gap = e1 - e2
    if not (math.isfinite(gap) and cmath.isfinite(omega1) and cmath.isfinite(omega2)):
        raise ConfigError(f"energies, their gap and couplings must be finite, got "
                          f"e1 = {e1!r}, e2 = {e2!r}, omega1 = {omega1!r}, omega2 = {omega2!r}")
    if abs(gap) <= _match_tol([e1, e2]):
        raise PoleEncountered(f"degenerate energies e1 = {e1!r}, e2 = {e2!r}")
    rate = _second_order(omega1, omega2, gap)
    if not cmath.isfinite(rate):
        raise ConfigError(f"second-order couplings overflow: omega1 omega2 / (e1 - e2) = {rate!r}")
    return rate


def eliminate_pair_level(system: LevelSystem) -> LevelSystem:
    """Remove the last level of a 4-level system, shifting its partner energy.

    The eliminated level must couple to exactly one other level j; the
    returned 3-level system has E_j -> E_j + |O|^2 / (E_j - E_4) with all
    remaining couplings unchanged. Raises ConfigError when the shifted energy
    overflows.
    """
    if system.n_levels != 4:
        raise ConfigError("pair-level elimination expects a 4-level system")
    levels = system.energies.tolist()
    row = system.couplings[3].tolist()
    partners = [j for j in range(3) if row[j]]
    energies = levels[:3]
    couplings = system.couplings[:3, :3]  # LevelSystem copies it
    if not partners:
        return LevelSystem(energies, couplings)
    if len(partners) > 1:
        raise ConfigError("eliminated level must couple to exactly one other level")
    j = partners[0]
    omega = row[j]
    gap = levels[j] - levels[3]
    if abs(gap) <= _match_tol(levels):
        raise PoleEncountered("eliminated level is degenerate with its partner")
    shifted = levels[j] + _second_order(omega, omega.conjugate(), gap).real
    if not math.isfinite(shifted):
        raise ConfigError(f"second-order couplings overflow: the shifted energy of level {j} is "
                          f"{shifted!r}")
    energies[j] = shifted
    return LevelSystem(energies, couplings)


def two_level_transfer(coupling: complex, times, hbar: float = 1.0) -> np.ndarray:
    """Resonant transfer probability sin^2(|coupling| t / hbar)."""
    times = np.asarray(times, dtype=float)
    return np.sin(abs(coupling) * times / hbar) ** 2
