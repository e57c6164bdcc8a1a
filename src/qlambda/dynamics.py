"""N-level Schroedinger evolution and second-order averaged Hamiltonians.

Supports 2, 3, and 4 level systems with Hermitian zero-diagonal couplings.
The propagator is the exact matrix exponential of the (constant) Hamiltonian
per step, so norm preservation holds at machine precision for any step size;
the drift guard stays as a safety net. Averaged quantities are evaluated over
one common period of the rotating coupling phases, where the second-order
argument is exact.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DegenerateLevels, IncommensurateGaps, PoleEncountered, StepTooLarge

_HERMITICITY_TOL = 1e-14
_ENERGY_MATCH_RTOL = 1e-9


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
        n = self.states.shape[1]
        header = ["t"]
        for i in range(n):
            header += [f"re_{i}", f"im_{i}"]
        fh.write(",".join(header) + "\n")
        for t, state in zip(self.times, self.states):
            row = [f"{t:.17g}"]
            for c in state:
                row += [f"{c.real:.17g}", f"{c.imag:.17g}"]
            fh.write(",".join(row) + "\n")


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

    Each step applies expm(-i H dt / hbar) built once from the eigensystem of
    H, so the stepper is unitary for any dt. Raises StepTooLarge if the norm
    drifts beyond drift_tol.
    """
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (system.n_levels,):
        raise ConfigError(f"psi0 must have {system.n_levels} components")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ConfigError("psi0 must be normalized")
    if not (dt > 0.0 and t_final > 0.0):
        raise ConfigError("dt and t_final must be positive")
    n_steps = max(1, int(round(t_final / dt)))
    evals, evecs = np.linalg.eigh(system.hamiltonian())
    step = (evecs * np.exp(-1j * evals * dt / hbar)) @ evecs.conj().T
    states = np.empty((n_steps + 1, system.n_levels), dtype=complex)
    states[0] = psi
    for i in range(1, n_steps + 1):
        psi = step @ psi
        states[i] = psi
        drift = abs(np.linalg.norm(psi) - 1.0)
        if drift > drift_tol:
            raise StepTooLarge(f"norm drift {drift:.3e} at step {i} exceeds {drift_tol:.1e}")
    times = np.arange(n_steps + 1) * dt
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


def magnus_second_order(
    system: LevelSystem, hbar: float = 1.0, n_nodes: int = 96
) -> EffectiveHamiltonian:
    """Second-order averaged Hamiltonian over one common period.

    Returns both the analytic secular matrix and the numerically integrated
    half double-commutator of the rotating coupling matrix; the two agree to
    quadrature accuracy.
    """
    period = base_period(system, hbar)
    analytic = _secular_matrix(system)
    if math.isinf(period):
        zeros = np.zeros_like(analytic)
        return EffectiveHamiltonian(analytic, period, zeros)

    gaps = (system.energies[:, None] - system.energies[None, :]) / hbar
    couplings = system.couplings

    def k_of(ts: np.ndarray) -> np.ndarray:
        return couplings[None, :, :] * np.exp(1j * gaps[None, :, :] * ts[:, None, None])

    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    outer_t = 0.5 * period * (nodes + 1.0)
    outer_w = 0.5 * period * weights
    k_outer = k_of(outer_t)
    # inner integral of K over [0, sigma1] per outer node
    inner_t = 0.5 * outer_t[:, None] * (nodes[None, :] + 1.0)
    inner_w = 0.5 * outer_t[:, None] * weights[None, :]
    k_inner = couplings[None, None, :, :] * np.exp(
        1j * gaps[None, None, :, :] * inner_t[:, :, None, None]
    )
    inner_int = np.einsum("oi,oijk->ojk", inner_w, k_inner)
    comm = k_outer @ inner_int - inner_int @ k_outer
    double = 0.5 * np.einsum("o,ojk->jk", outer_w, comm)
    numeric = -1j * double / (hbar * period)
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
