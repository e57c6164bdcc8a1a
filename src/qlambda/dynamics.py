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

import numpy as np

from .errors import ConfigError, DegenerateLevels, IncommensurateGaps, PoleEncountered, StepTooLarge
from .jsonio import write_table

_HERMITICITY_TOL = 1e-14
_ENERGY_MATCH_RTOL = 1e-9
# largest t_final / dt that evolve accepts; the state table grows with it
_MAX_STEPS = 2**20
# evolve's default bound on | |psi(t_n)| - 1 |; lambda-sim records it
DRIFT_TOL = 1e-6
# Gauss nodes of the outer double-commutator integral in magnus_second_order
_MAGNUS_NODES = 96


def _coupling_entry(entry) -> complex:
    """One coupling of a level-system document: exactly an [re, im] pair of numbers."""
    try:
        re, im = entry
        if type(re) is not bool and type(im) is not bool:
            return complex(re, im)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"entry {entry!r} is not an [re, im] pair of numbers")


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
        entries = [c for row in rows for c in row]
        levels = energies.tolist()
        if not (all(map(math.isfinite, levels)) and all(map(cmath.isfinite, entries))):
            raise ConfigError("energies and couplings must be finite")
        # every gap is at most the spread, so a finite spread keeps them all finite
        spread = max(levels) - min(levels)
        if not math.isfinite(spread):
            raise ConfigError(f"energy spread max - min = {spread!r} is not a finite float")
        scale = max(1.0, *map(abs, entries))
        asymmetry = max(abs(rows[j][k] - rows[k][j].conjugate()) for j in range(n) for k in range(n))
        if asymmetry > _HERMITICITY_TOL * scale:
            raise ConfigError("couplings must be Hermitian")
        if any(rows[j][j] != 0.0 for j in range(n)):
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
            energies = np.array(data["energies"], dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed key 'energies': {exc}") from exc
        try:
            couplings = np.array(
                [[_coupling_entry(c) for c in row] for row in data["couplings"]],
                dtype=complex,
            )
        except (TypeError, ValueError, LookupError, OverflowError) as exc:
            raise ConfigError(f"malformed key 'couplings': {exc}") from exc
        return cls(energies, couplings)

    @classmethod
    def from_json(cls, text: str) -> "LevelSystem":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(data)


class Trajectory(namedtuple("Trajectory", "times states max_norm_drift", defaults=(0.0,))):
    """Sampled states of a single evolution run.

    `max_norm_drift` is the largest | |psi(t_n)| - 1 | over the evolved
    samples, the figure evolve's drift guard compares against drift_tol.
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
    drift_tol: float = DRIFT_TOL,
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
    drifts beyond drift_tol or the largest phase |lambda| t / hbar overflows,
    and ConfigError for non-finite input, a non-positive dt, t_final or hbar,
    more than _MAX_STEPS steps, or a last sample time that overflows.
    """
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (system.n_levels,):
        raise ConfigError(f"psi0 must have {system.n_levels} components")
    if not np.all(np.isfinite(psi)):
        raise ConfigError("psi0 must be finite")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ConfigError("psi0 must be normalized")
    for name, value in (("dt", dt), ("t_final", t_final), ("hbar", hbar)):
        if not (value > 0.0 and math.isfinite(value)):
            raise ConfigError(f"{name} must be positive and finite, got {value!r}")
    if not math.isfinite(drift_tol):
        raise ConfigError(f"drift_tol must be finite, got {drift_tol!r}")
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
    fine = np.exp(-1j / hbar * np.outer(np.arange(block) * dt, evals))
    coarse = np.exp(-1j / hbar * np.outer(np.arange(0, rows, block) * dt, evals))
    weighted = evecs * (evecs.conj().T @ psi)
    folded = fine.T[:, :, None] * weighted.T[:, None, :]
    states = (coarse @ folded.reshape(system.n_levels, -1)).reshape(-1, system.n_levels)[:rows]
    states[0] = psi
    flat = states[1:].view(float)
    norm_sq = np.einsum("ij,ij->i", flat, flat)
    drift = np.abs(np.sqrt(norm_sq) - 1.0)
    max_drift = float(drift.max())
    # a NaN drift fails the comparison too
    if not max_drift <= drift_tol:
        i = int(np.flatnonzero(~(drift <= drift_tol))[0])
        raise StepTooLarge(
            f"norm drift {drift[i]:.3e} at step {i + 1} exceeds {drift_tol:.1e}"
        )
    return Trajectory(np.arange(rows) * dt, states, max_drift)


def interaction_frame(system: LevelSystem, t: float, hbar: float = 1.0) -> np.ndarray:
    """Coupling matrix in the frame of the level energies at time t.

    Entry (j, k) is couplings[j, k] * exp(i (E_j - E_k) t / hbar); the
    diagonal stays zero.
    """
    energies = system.energies
    gaps = energies[:, None] - energies[None, :]
    return system.couplings * np.exp(1j * gaps * t / hbar)


def _coupled_gaps(system: LevelSystem) -> list[float]:
    energies = system.energies.tolist()
    couplings = system.couplings.tolist()
    n = len(energies)
    scale = max(1.0, *map(abs, energies))
    gaps = []
    for j in range(n):
        for k in range(j + 1, n):
            if couplings[j][k] != 0.0:
                gap = abs(energies[j] - energies[k])
                if gap <= _ENERGY_MATCH_RTOL * scale:
                    raise DegenerateLevels(
                        f"coupled levels {j} and {k} are degenerate (gap {gap!r})"
                    )
                gaps.append(gap)
    return gaps


def base_period(system: LevelSystem, hbar: float = 1.0) -> float:
    """Least common period of all rotating coupling phases.

    Requires every coupled pair to be nondegenerate and all gaps to be
    commensurate (rational ratios with denominator <= 1000).
    """
    gaps = _coupled_gaps(system)
    if not gaps:
        return math.inf
    ref = max(gaps)
    multipliers = []
    # equal gaps share one ratio
    for gap in dict.fromkeys(gaps):
        ratio = gap / ref
        frac = Fraction(ratio).limit_denominator(1000)
        if abs(ratio - float(frac)) > _ENERGY_MATCH_RTOL * max(ratio, 1.0):
            raise IncommensurateGaps(f"gap ratio {ratio!r} is not a small rational")
        multipliers.append(frac.denominator)
    common = 1
    for q in multipliers:
        common = common * q // math.gcd(common, q)
    return 2.0 * math.pi * hbar * common / ref


def _secular_matrix(system: LevelSystem) -> np.ndarray:
    """Analytic second-order averaged Hamiltonian.

    Entry (j, k) collects sum_l O_jl O_lk / (E_k - E_l) whenever E_j and E_k
    coincide; entries between levels of different energy average away at full
    periods. The diagonal reproduces the usual second-order level shifts.
    """
    energies = system.energies.tolist()
    couplings = system.couplings.tolist()
    n = len(energies)
    scale = max(1.0, *map(abs, energies))
    out = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            if abs(energies[j] - energies[k]) > _ENERGY_MATCH_RTOL * scale:
                continue
            acc = 0.0 + 0.0j
            for l in range(n):
                if couplings[j][l] == 0.0 or couplings[l][k] == 0.0:
                    continue
                acc += couplings[j][l] * couplings[l][k] / (energies[k] - energies[l])
            out[j, k] = acc
    return out


@functools.cache
def _unit_gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """_MAGNUS_NODES Gauss-Legendre nodes and weights on [0, 1], built once."""
    nodes, weights = np.polynomial.legendre.leggauss(_MAGNUS_NODES)
    rule = (0.5 * (nodes + 1.0), 0.5 * weights)
    for array in rule:
        array.setflags(write=False)
    return rule


@functools.cache
def _level_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the level pairs j < k, built once per level count."""
    pairs = np.triu_indices(n, 1)
    for array in pairs:
        array.setflags(write=False)
    return pairs


def magnus_second_order(system: LevelSystem, hbar: float = 1.0) -> EffectiveHamiltonian:
    """Second-order averaged Hamiltonian over one common period.

    Returns both the analytic secular matrix and the integrated half
    double-commutator (1/2) int_0^T [K(s), int_0^s K] ds of the rotating
    coupling matrix K. The inner integral is exact,
    int_0^s exp(i g t) dt = s exp(i g s / 2) sinc(g s / 2 pi), and the outer
    one a _MAGNUS_NODES-point Gauss rule over the period, whose node sum
    sum_o w_o [K_o, I_o] is two (n x On) (On x n) matrix products. Phases are
    evaluated once per level pair as exp(i g s / 2), squared for K. The two
    results agree to quadrature accuracy. Raises ConfigError when a level gap
    over hbar, or 1 / hbar, overflows, and when either result does.
    """
    period = base_period(system, hbar)
    analytic = _secular_matrix(system)
    if math.isinf(period):
        zeros = np.zeros_like(analytic)
        return EffectiveHamiltonian(analytic, period, zeros)

    # every gap is at most the spread of the levels, so this bounds all of them
    levels = system.energies.tolist()
    if not (math.isfinite((max(levels) - min(levels)) / hbar) and math.isfinite(0.5 / hbar)):
        raise ConfigError(f"level gaps / hbar overflow for hbar = {hbar!r}")
    n = system.n_levels
    couplings = system.couplings
    nodes, weights = _unit_gauss_rule()
    sigma = period * nodes
    # each level pair j < k once: the (k, j) entries are the complex
    # conjugate phases, and exp(-ix) = conj(exp(ix)), sinc is even
    upper, lower = _level_pairs(n)
    gaps = (system.energies[upper] - system.energies[lower]) / hbar
    angle = np.outer(gaps, sigma)
    half = np.exp(0.5j * angle)
    phase = half * half
    sinc = np.sinc(angle / (2.0 * math.pi))
    # node axis in the middle: (n, O, n) reshapes to the row block
    # [K_1 ... K_O] without a copy
    k_outer = np.zeros((n, sigma.size, n), dtype=complex)
    inner_int = np.zeros_like(k_outer)
    above = couplings[upper, lower][:, None]
    below = couplings[lower, upper][:, None]
    # couplings too large for their squares over a period overflow in these
    # products; the finiteness check below turns that into a ConfigError
    with np.errstate(over="ignore", invalid="ignore"):
        k_outer[upper, :, lower] = above * phase
        k_outer[lower, :, upper] = below * phase.conj()
        inner_int[upper, :, lower] = (above * sigma) * half * sinc
        inner_int[lower, :, upper] = (below * sigma) * half.conj() * sinc
        # sum_o w_o [K_o, I_o] as two (n x On) (On x n) products; weights on [0, 1]
        # already divide the integral over the period by its length
        weighted = k_outer * weights[:, None]
        comm = weighted.reshape(n, -1) @ inner_int.transpose(1, 0, 2).reshape(-1, n)
        comm -= inner_int.reshape(n, -1) @ weighted.transpose(1, 0, 2).reshape(-1, n)
        numeric = -0.5j / hbar * comm
    if not (np.isfinite(analytic).all() and np.isfinite(numeric).all()):
        raise ConfigError("second-order couplings overflow: coupling^2 / gap or its "
                          "integral over the period is not a finite float")
    return EffectiveHamiltonian(analytic, period, numeric)


def effective_coupling(omega1: complex, omega2: complex, e1: float, e2: float) -> complex:
    """Second-order transfer rate omega1 * omega2 / (e1 - e2)."""
    scale = max(abs(e1), abs(e2), 1.0)
    if abs(e1 - e2) <= 1e-12 * scale:
        raise PoleEncountered(f"degenerate energies e1 = e2 = {e1!r}")
    return omega1 * omega2 / (e1 - e2)


def eliminate_pair_level(system: LevelSystem) -> LevelSystem:
    """Remove the last level of a 4-level system, shifting its partner energy.

    The eliminated level must couple to exactly one other level j; the
    returned 3-level system has E_j -> E_j + |O|^2 / (E_j - E_4) with all
    remaining couplings unchanged.
    """
    if system.n_levels != 4:
        raise ConfigError("pair-level elimination expects a 4-level system")
    row = system.couplings[3, :3]
    nonzero = np.flatnonzero(row)
    energies = system.energies[:3].copy()
    couplings = system.couplings[:3, :3]  # LevelSystem copies it
    if nonzero.size == 0:
        return LevelSystem(energies, couplings)
    if nonzero.size > 1:
        raise ConfigError("eliminated level must couple to exactly one other level")
    j = int(nonzero[0])
    omega = complex(row[j])
    scale = max(1.0, float(np.max(np.abs(system.energies))))
    gap = float(system.energies[j] - system.energies[3])
    if abs(gap) <= _ENERGY_MATCH_RTOL * scale:
        raise PoleEncountered("eliminated level is degenerate with its partner")
    energies[j] += (omega * omega.conjugate()).real / gap
    return LevelSystem(energies, couplings)


def two_level_transfer(coupling: complex, times, hbar: float = 1.0) -> np.ndarray:
    """Resonant transfer probability sin^2(|coupling| t / hbar)."""
    times = np.asarray(times, dtype=float)
    return np.sin(abs(coupling) * times / hbar) ** 2
