"""N-level Schroedinger evolution and second-order averaged Hamiltonians.

Supports 2, 3, and 4 level systems with Hermitian zero-diagonal couplings.
The Hamiltonian is constant, so every sampled state follows in closed form
from one eigendecomposition H = V diag(lambda) V^dagger; norm preservation
holds at machine precision for any step size, and the drift guard stays as a
safety net. Averaged quantities are evaluated over one common period of the
rotating coupling phases, where the second-order argument is exact.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DegenerateLevels, IncommensurateGaps, PoleEncountered, StepTooLarge
from .jsonio import write_table

_HERMITICITY_TOL = 1e-14
_ENERGY_MATCH_RTOL = 1e-9
# largest t_final / dt that evolve accepts; the state table grows with it
_MAX_STEPS = 2**20
# Gauss nodes of the outer double-commutator integral in magnus_second_order
_MAGNUS_NODES = 96


@dataclass(frozen=True)
class LevelSystem:
    """Level energies plus a Hermitian zero-diagonal coupling matrix."""

    energies: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        energies = np.asarray(self.energies, dtype=float)
        couplings = np.asarray(self.couplings, dtype=complex)
        if energies.ndim != 1:
            raise ConfigError(f"energies must be a list of numbers, got shape {energies.shape}")
        n = energies.shape[0]
        if n not in (2, 3, 4):
            raise ConfigError(f"supported level counts are 2, 3, 4; got {n}")
        if couplings.shape != (n, n):
            raise ConfigError(f"couplings must be {n}x{n}, got {couplings.shape}")
        if not (np.all(np.isfinite(energies)) and np.all(np.isfinite(couplings))):
            raise ConfigError("energies and couplings must be finite")
        scale = max(1.0, float(np.max(np.abs(couplings))))
        if np.max(np.abs(couplings - couplings.conj().T)) > _HERMITICITY_TOL * scale:
            raise ConfigError("couplings must be Hermitian")
        if np.max(np.abs(np.diag(couplings))) > 0.0:
            raise ConfigError("couplings must have zero diagonal")
        energies.setflags(write=False)
        couplings.setflags(write=False)
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "couplings", couplings)

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
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed key 'energies': {exc}") from exc
        try:
            couplings = np.array(
                [[complex(c[0], c[1]) for c in row] for row in data["couplings"]],
                dtype=complex,
            )
        except (TypeError, ValueError, IndexError) as exc:
            raise ConfigError(f"malformed key 'couplings': {exc}") from exc
        return cls(energies, couplings)

    @classmethod
    def from_json(cls, text: str) -> "LevelSystem":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(data)


@dataclass(frozen=True)
class Trajectory:
    """Sampled states of a single evolution run."""

    times: np.ndarray
    states: np.ndarray

    def populations(self) -> np.ndarray:
        return np.abs(self.states) ** 2

    def write_csv(self, fh) -> None:
        """One row per sample: t, then re/im of each amplitude (jsonio.write_table)."""
        n = self.states.shape[1]
        header = ["t", *(f"{part}_{i}" for i in range(n) for part in ("re", "im"))]
        table = np.empty((self.times.shape[0], 2 * n + 1))
        table[:, 0] = self.times
        table[:, 1::2] = self.states.real
        table[:, 2::2] = self.states.imag
        write_table(fh, header, table.tolist())


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Second-order averaged Hamiltonian over one coupling period.

    `matrix` is the analytic secular matrix; `numeric_matrix` is the
    independently integrated double-commutator result for cross-checking.
    """

    matrix: np.ndarray
    period: float
    numeric_matrix: np.ndarray


def evolve(
    system: LevelSystem,
    psi0,
    t_final: float,
    dt: float,
    hbar: float = 1.0,
    drift_tol: float = 1e-6,
) -> Trajectory:
    """Propagate psi0 under the full Hamiltonian, sampling every dt.

    The Hamiltonian is constant, so every sample comes from one
    eigendecomposition H = V diag(lambda) V^dagger as
    psi(t_n) = V exp(-i lambda t_n / hbar) V^dagger psi0, for all n in one
    broadcast; the result is unitary for any dt. Raises StepTooLarge if the
    norm of any sample drifts beyond drift_tol, and ConfigError for
    non-finite input, a non-positive dt, t_final or hbar, or more than
    _MAX_STEPS steps.
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
    times = np.arange(n_steps + 1) * dt
    evals, evecs = np.linalg.eigh(system.hamiltonian())
    phases = np.exp(-1j / hbar * np.outer(times, evals))
    states = (phases * (evecs.conj().T @ psi)) @ evecs.T
    states[0] = psi
    drift = np.abs(np.linalg.norm(states[1:], axis=1) - 1.0)
    bad = np.flatnonzero(~(drift <= drift_tol))
    if bad.size:
        i = int(bad[0])
        raise StepTooLarge(
            f"norm drift {drift[i]:.3e} at step {i + 1} exceeds {drift_tol:.1e}"
        )
    return Trajectory(times, states)


def interaction_frame(system: LevelSystem, t: float, hbar: float = 1.0) -> np.ndarray:
    """Coupling matrix in the frame of the level energies at time t.

    Entry (j, k) is couplings[j, k] * exp(i (E_j - E_k) t / hbar); the
    diagonal stays zero.
    """
    energies = system.energies
    gaps = energies[:, None] - energies[None, :]
    return system.couplings * np.exp(1j * gaps * t / hbar)


def _coupled_gaps(system: LevelSystem) -> list[float]:
    gaps = []
    n = system.n_levels
    scale = max(1.0, float(np.max(np.abs(system.energies))))
    for j in range(n):
        for k in range(j + 1, n):
            if system.couplings[j, k] != 0.0:
                gap = abs(float(system.energies[j] - system.energies[k]))
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
    for gap in gaps:
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
    n = system.n_levels
    energies = system.energies
    couplings = system.couplings
    scale = max(1.0, float(np.max(np.abs(energies))))
    out = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            if abs(energies[j] - energies[k]) > _ENERGY_MATCH_RTOL * scale:
                continue
            acc = 0.0 + 0.0j
            for l in range(n):
                if couplings[j, l] == 0.0 or couplings[l, k] == 0.0:
                    continue
                acc += couplings[j, l] * couplings[l, k] / (energies[k] - energies[l])
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


def magnus_second_order(system: LevelSystem, hbar: float = 1.0) -> EffectiveHamiltonian:
    """Second-order averaged Hamiltonian over one common period.

    Returns both the analytic secular matrix and the integrated half
    double-commutator (1/2) int_0^T [K(s), int_0^s K] ds of the rotating
    coupling matrix K. The inner integral is exact,
    int_0^s exp(i g t) dt = s exp(i g s / 2) sinc(g s / 2 pi), and the outer
    one a _MAGNUS_NODES-point Gauss rule over the period; the two results agree
    to quadrature accuracy.
    """
    period = base_period(system, hbar)
    analytic = _secular_matrix(system)
    if math.isinf(period):
        zeros = np.zeros_like(analytic)
        return EffectiveHamiltonian(analytic, period, zeros)

    gaps = (system.energies[:, None] - system.energies[None, :]) / hbar
    couplings = system.couplings
    nodes, weights = _unit_gauss_rule()
    sigma = (period * nodes)[:, None, None]
    k_outer = couplings * np.exp(1j * gaps * sigma)
    inner_int = couplings * sigma * np.exp(0.5j * gaps * sigma) * np.sinc(
        gaps * sigma / (2.0 * math.pi)
    )
    comm = k_outer @ inner_int - inner_int @ k_outer
    # weights on [0, 1] already divide the integral over the period by its length
    numeric = -0.5j / hbar * np.einsum("o,ojk->jk", weights, comm)
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
    couplings = system.couplings[:3, :3].copy()
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
