"""Scattering amplitudes assembled from few-level effective couplings.

Each diagram is a pair of three-level orderings whose second-order rates
omega1 * omega2 / (E1 - E2) are combined and compared against an
independently evaluated closed propagator form. Every vertex carries the
coupling prefactor of the photon attached to it.

Photon-electron scattering adds the two orderings of each channel directly.
The forward ordering runs through the intermediate electron u(q, s); the
crossed one runs through the pair state v(-q, s) (the Z-graph of
old-fashioned perturbation theory, with its fermion sign). Summed over spins
they give the covariant numerator (slash(q) + m) / (q^2 - m^2), so the total
is the covariant-propagator amplitude times f(omega) f(omega').

The electron-electron exchange diagram averages its orderings (weight 1/2),
which is the convention under which the summed amplitude equals
E_k * omega1 * omega2 / (k0^2 - E_k^2) per polarization, with E_k the energy
of the exchanged photon in both prefactors.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .dirac import (
    gamma_set,
    polarization_pair,
    slash,
    spin_block,
    u_spinor,
    ubar,
)
from .errors import ConfigError, ForwardSingularity, OffShellInput, PoleEncountered, ZeroReference
from .jsonio import write_table
from .lorentz import (
    NATURAL,
    Boost,
    Constants,
    FourVector,
    compton_cm_kinematics,
    eta,
    minkowski_dot,
    moller_kinematics,
    on_shell_energy,
)

_I4 = np.eye(4, dtype=complex)
_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
# gamma^mu stacked on the leading axis: ubar_b @ _GAMMAS @ u_a is the current J^mu
_GAMMAS = np.stack(gamma_set())
_ONSHELL_RTOL = 1e-9
_CONSERVATION_RTOL = 1e-10
_POLE_RTOL = 1e-9


@dataclass(frozen=True)
class CouplingFactor:
    """Scalar prefactor e c hbar eta sqrt(1/(V eps0 E)) with its provenance.

    E is the energy of the photon attached to the vertex: the field amplitude
    of a photon mode is sqrt(hbar E / (eps0 V)). Both vertices of an exchanged
    photon share one prefactor; in photon-electron scattering the absorbed and
    the emitted photon each set the prefactor of their own vertex.
    """

    value: float
    eta: float
    energy: float
    volume: float

    def __post_init__(self):
        if not (0.0 < self.eta <= 1.0 + 1e-12):
            raise OffShellInput(f"eta must lie in (0, 1], got {self.eta!r}")
        if not self.value > 0.0:
            raise OffShellInput(f"coupling factor must be positive, got {self.value!r}")


def coupling_prefactor(eta_value, energy, constants: Constants):
    """e c hbar eta sqrt(1/(V eps0 E)), elementwise over arrays of eta and E.

    Raises ConfigError unless the squared coupling scale (e c hbar)^2 / (V eps0)
    is a finite normal float, so the prefactor and its square stay in range.
    """
    charge = constants.e * constants.c * constants.hbar
    medium = constants.V * constants.eps0
    if not (medium > 0.0 and sys.float_info.min <= charge * charge / medium <= sys.float_info.max):
        raise ConfigError("coupling scale (e c hbar)^2 / (V eps0) is not a finite normal float")
    return charge * eta_value * np.sqrt(1.0 / (medium * energy))


def coupling_factor(eta_value: float, energy: float, constants: Constants) -> CouplingFactor:
    """coupling_prefactor at one vertex, with the CouplingFactor checks."""
    value = float(coupling_prefactor(eta_value, energy, constants))
    return CouplingFactor(value, eta_value, energy, constants.V)


@dataclass(frozen=True)
class DiagramAmplitude:
    """One three-level ordering: value = weight * omega1 * omega2 / denom."""

    name: str
    omega1: complex
    omega2: complex
    denom: float
    weight: float = 1.0

    @property
    def value(self) -> complex:
        return self.weight * self.omega1 * self.omega2 / self.denom


@dataclass(frozen=True)
class AmplitudeResult:
    """Total amplitude with per-ordering parts and the closed-form cross check."""

    process: str
    total: complex
    parts: tuple[DiagramAmplitude, ...]
    eta: float
    closed_form: complex
    frame: Boost | None = None
    textbook_total: complex | None = None
    textbook_ratio: complex | None = None
    provenance: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        def cplx(z):
            return [float(np.real(z)), float(np.imag(z))]

        doc = {
            "process": self.process,
            "frame": {"beta": list(self.frame.beta) if self.frame else [0.0, 0.0, 0.0]},
            "eta": self.eta,
            "parts": [
                {
                    "name": p.name,
                    "omega1": cplx(p.omega1),
                    "omega2": cplx(p.omega2),
                    "denom": p.denom,
                    "weight": p.weight,
                    "value": cplx(p.value),
                }
                for p in self.parts
            ],
            "total": cplx(self.total),
            "closed_form": cplx(self.closed_form),
            "textbook_ratio": None if self.textbook_ratio is None else cplx(self.textbook_ratio),
        }
        doc.update(self.provenance)
        return doc


def _require_process(incoming, outgoing, masses, labels) -> float:
    """On-shell and conservation guards of a scattering process.

    masses and labels follow the momenta in incoming + outgoing order. Returns
    the momentum scale, max(1, largest |component|), that sets every tolerance.
    """
    vectors = (*incoming, *outgoing)
    scale = max(1.0, *(abs(c) for v in vectors for c in v.as_array()))
    for v, m, label in zip(vectors, masses, labels):
        residual = abs(minkowski_dot(v, v) - m * m)
        if residual > _ONSHELL_RTOL * scale * scale:
            raise OffShellInput(f"{label} off shell: |p.p - m^2| = {residual:.3e}")
    difference = sum(incoming[1:], incoming[0]) - sum(outgoing[1:], outgoing[0])
    residual = float(np.max(np.abs(difference.as_array())))
    if residual > _CONSERVATION_RTOL * scale:
        raise OffShellInput(f"four-momentum not conserved: residual {residual:.3e}")
    return scale


def _guard_pole(denom: float, scale: float, where: str) -> None:
    if abs(denom) < _POLE_RTOL * scale:
        raise PoleEncountered(f"{where}: energy denominator {denom!r} vanishes")


def _result(process, parts, eta_value, closed, textbook, frame, **provenance) -> AmplitudeResult:
    """Total as the in-order sum of the parts; ratio None when the textbook total is 0."""
    total = sum(part.value for part in parts)
    ratio = None if textbook == 0.0 else total / textbook
    return AmplitudeResult(process, total, tuple(parts), eta_value, closed, frame=frame,
                           textbook_total=textbook, textbook_ratio=ratio, provenance=provenance)


def _pair_state(components: np.ndarray) -> np.ndarray:
    """Negative-energy solutions v(-q, s) at the momentum q of u(q, s).

    With u = N (chi ; sigma.q chi / (E+m)) the pair state is
    N (-sigma.q chi / (E+m) ; chi): energy -E_q, same normalization as u.
    Takes 4 components or a (4, 2) spin block (rows swapped either way).
    """
    return np.concatenate([-components[2:], components[:2]])


def _compton(process, channels, p, k, p_out, k_out, spins, pols, constants, normalization, frame):
    """Photon-electron amplitude summed over the requested rows of the channel table.

    Channel 1 runs through q = p + k with the absorbing vertex on the incoming
    electron, channel 2 through q = p - k' with the emitting vertex there.
    In each, the forward ordering (a) runs through the electron u(q, s) over
    q0 - E_q. In the crossed ordering (b) the vertex on the outgoing electron
    acts first: it creates that electron together with the pair state
    v(-q, s), which the other vertex then annihilates with the incoming
    electron, over -(q0 + E_q); the fermion sign of that ordering rides on its
    first factor. Summed over s the two give the closed form f f' ubar'
    slash(eps2) (slash(q) + m) slash(eps1) u / (q^2 - m^2), times E_q / m for
    covariant spinors; the textbook value is the same chain without
    prefactors or normalization factor. Closed forms and textbook values sum
    over the channels starting from the first channel's value, not from 0, so
    a single channel keeps the sign of its zeros.
    """
    m = constants.m_e
    scale = _require_process(
        (p, k),
        (p_out, k_out),
        (m, 0.0, m, 0.0),
        ("incoming electron", "incoming photon", "outgoing electron", "outgoing photon"),
    )
    eta_value = eta(p + k)
    eps_in = polarization_pair(k.spatial)[pols[0] - 1].as_array()
    eps_out_conj = polarization_pair(k_out.spatial)[pols[1] - 1].as_array().conj()
    u_in = u_spinor(p.spatial, spins[0], m, normalization).components
    ubar_out = ubar(u_spinor(p_out.spatial, spins[1], m, normalization))
    # each vertex carries the prefactor of the photon attached to it
    absorb = (slash(eps_in), coupling_factor(eta_value, k.t, constants).value)
    emit = (slash(eps_out_conj), coupling_factor(eta_value, k_out.t, constants).value)
    # intermediate momentum, vertex on the incoming electron, vertex on the outgoing one
    table = {"1": (p + k, absorb, emit), "2": (p - k_out, emit, absorb)}
    parts, closed, textbook = [], [], []
    for tag in channels:
        q, (slash_first, f_first), (slash_second, f_second) = table[tag]
        q3 = q.spatial
        e_q = on_shell_energy(q3, m)
        d_fwd = q.t - e_q
        d_bwd = -(q.t + e_q)
        _guard_pole(d_fwd, scale, f"channel {tag} forward ordering")
        _guard_pole(d_bwd, scale, f"channel {tag} crossed ordering")
        row = ubar_out @ slash_second
        col = slash_first @ u_in
        # columns: both intermediate spins, as electrons and as pair states
        u_mid = spin_block(q3, m, normalization)
        v_mid = _pair_state(u_mid)
        fwd_first = (f_first * (ubar(u_mid) @ col)).tolist()
        fwd_second = (f_second * (row @ u_mid)).tolist()
        bwd_first = (-f_second * (row @ v_mid)).tolist()
        bwd_second = (f_first * (ubar(v_mid) @ col)).tolist()
        for i, s in enumerate((1, 2)):
            parts.append(DiagramAmplitude(f"{tag}a:s={s}", fwd_first[i], fwd_second[i], d_fwd))
            parts.append(DiagramAmplitude(f"{tag}b:s={s}", bwd_first[i], bwd_second[i], d_bwd))
        bare = complex(row @ (slash(q) + m * _I4) @ col) / (minkowski_dot(q, q) - m * m)
        # spin sums are (slash + m) / (2 E_q) for box spinors, / (2 m) for covariant
        norm = e_q / m if normalization == "covariant" else 1.0
        closed.append(f_first * f_second * norm * bare)
        textbook.append(bare)
    return _result(process, parts, eta_value, sum(closed[1:], closed[0]),
                   sum(textbook[1:], textbook[0]), frame)


def compton_pair_A(
    p: FourVector,
    k: FourVector,
    p_out: FourVector,
    k_out: FourVector,
    spins: tuple[int, int] = (1, 1),
    pols: tuple[int, int] = (1, 1),
    constants: Constants = NATURAL,
    normalization: str = "box",
    frame: Boost | None = None,
) -> AmplitudeResult:
    """Photon-absorbed-first diagram: intermediate momentum p + k.

    Sums the two three-level orderings over the intermediate spin and returns
    the independently evaluated closed form for the same diagram.
    """
    return _compton("compton_pair_A", ("1",), p, k, p_out, k_out,
                    spins, pols, constants, normalization, frame)


def compton_pair_B(
    p: FourVector,
    k: FourVector,
    p_out: FourVector,
    k_out: FourVector,
    spins: tuple[int, int] = (1, 1),
    pols: tuple[int, int] = (1, 1),
    constants: Constants = NATURAL,
    normalization: str = "box",
    frame: Boost | None = None,
) -> AmplitudeResult:
    """Photon-emitted-first diagram: intermediate momentum p - k'."""
    return _compton("compton_pair_B", ("2",), p, k, p_out, k_out,
                    spins, pols, constants, normalization, frame)


def compton_total(
    p: FourVector,
    k: FourVector,
    p_out: FourVector,
    k_out: FourVector,
    spins: tuple[int, int] = (1, 1),
    pols: tuple[int, int] = (1, 1),
    constants: Constants = NATURAL,
    normalization: str = "box",
    frame: Boost | None = None,
) -> AmplitudeResult:
    """Both diagrams combined, with the covariant-propagator comparison value.

    The textbook form uses the full off-shell momentum in each numerator,
    slash(p+k)+m and slash(p-k')+m, over q^2 - m^2, with no coupling
    prefactor; textbook_ratio = total / textbook_total. With box spinors the
    ratio is f(omega) f(omega'), the prefactors of the two photons, in every
    frame; in the zero-momentum frame omega = omega', so it does not depend
    on the scattering angle.
    """
    return _compton("compton", ("1", "2"), p, k, p_out, k_out,
                    spins, pols, constants, normalization, frame)


def moller_total(
    p1: FourVector,
    q1: FourVector,
    p2: FourVector,
    q2: FourVector,
    spins: tuple[int, int, int, int] = (1, 1, 1, 1),
    constants: Constants = NATURAL,
    normalization: str = "box",
    frame: Boost | None = None,
) -> AmplitudeResult:
    """Electron-electron exchange amplitude summed over photon polarizations.

    Each electron line enters through its vector current J^mu = ubar gamma^mu u,
    computed once: the vertex with polarization eps is f eps . g . J (eps* on
    the beam line). Per polarization the two emission orderings average
    (weight 1/2) to E_k * omega1 * omega2 / (k0^2 - E_k^2); `closed_form`
    carries that check value summed over the transverse pair. The textbook
    comparison contracts the two currents with the metric,
    J_beam . g . J_target / (p1-p2)^2.
    """
    m = constants.m_e
    scale = _require_process(
        (p1, q1),
        (p2, q2),
        (m, m, m, m),
        ("beam electron", "target electron",
         "scattered beam electron", "scattered target electron"),
    )
    k = p1 - p2
    transfer2 = minkowski_dot(k, k)
    if abs(transfer2) < 1e-12 * scale * scale:
        raise ForwardSingularity(f"(p1-p2)^2 = {transfer2!r} vanishes")
    # kinematic energies are natural-units throughout; constants enter the
    # coupling prefactors only
    k3 = k.spatial
    e_k = float(np.linalg.norm(k3))
    k0 = k.t
    eta_value = eta(p1 + q1)
    factor = coupling_factor(eta_value, e_k, constants)
    d_fwd = k0 - e_k
    d_bwd = -(k0 + e_k)
    _guard_pole(d_fwd, scale, "exchange forward ordering")
    _guard_pole(d_bwd, scale, "exchange crossed ordering")
    s1, s2, s3, s4 = spins
    u_p1 = u_spinor(p1.spatial, s1, m, normalization)
    u_q1 = u_spinor(q1.spatial, s2, m, normalization)
    u_p2 = u_spinor(p2.spatial, s3, m, normalization)
    u_q2 = u_spinor(q2.spatial, s4, m, normalization)
    j_beam = ubar(u_p2) @ _GAMMAS @ u_p1.components
    j_target = ubar(u_q2) @ _GAMMAS @ u_q1.components
    # real transverse basis shared by both orderings (same transverse plane for -k)
    eps_lower = np.array([pol.as_array() for pol in polarization_pair(k3)]) @ _METRIC
    beam = (factor.value * (eps_lower.conj() @ j_beam)).tolist()
    target = (factor.value * (eps_lower @ j_target)).tolist()
    parts = []
    closed = 0.0 + 0.0j
    for alpha, beam_current, target_current in zip((1, 2), beam, target):
        parts.append(
            DiagramAmplitude(f"emit-beam:pol={alpha}", beam_current, target_current, d_fwd, 0.5)
        )
        parts.append(
            DiagramAmplitude(f"emit-target:pol={alpha}", target_current, beam_current, d_bwd, 0.5)
        )
        closed += e_k * beam_current * target_current / (k0 * k0 - e_k * e_k)
    tb = complex(j_beam @ _METRIC @ j_target) / transfer2
    return _result("moller", parts, eta_value, closed, tb, frame,
                   transfer_squared=float(transfer2), photon_energy=e_k)


@dataclass(frozen=True)
class BoostScanRow:
    beta: float
    eta: float
    amplitude_abs: float
    ratio_to_cm: float
    inverse_gamma: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.beta, self.eta, self.amplitude_abs, self.ratio_to_cm, self.inverse_gamma)


@dataclass(frozen=True)
class BoostScanTable:
    process: str
    normalization: str
    rows: tuple[BoostScanRow, ...]

    COLUMNS = ("beta", "eta", "amp_abs", "ratio_to_cm", "inverse_gamma")

    def write_csv(self, fh) -> None:
        fh.write(f"# process={self.process} normalization={self.normalization}\n")
        write_table(fh, self.COLUMNS, (row.as_tuple() for row in self.rows))


def boost_scan(
    process: str,
    beta_grid,
    normalization: str = "box",
    constants: Constants = NATURAL,
    photon_energy: float = 1.0,
    e_cm: float = 4.0,
    theta: float = math.pi / 3.0,
    spins: tuple | None = None,
    pols: tuple[int, int] = (1, 1),
) -> BoostScanTable:
    """Amplitude magnitude versus boosts away from the zero-momentum frame.

    For each beta the kinematics, polarizations, spinors, eta, and the mode
    volume V -> V sqrt(1-beta^2) are all recomputed in the boosted frame.
    Columns: beta, eta, |amp|, |amp|/|amp at beta=0|, sqrt(1-beta^2).
    spins takes 2 indices for Compton and 4 for Moller; None means all 1.
    Raises ZeroReference when the amplitude at beta=0 is zero.
    """
    if process not in ("compton", "moller"):
        raise ValueError(f"unknown process {process!r}")
    n_spins = 2 if process == "compton" else 4
    spins = (1,) * n_spins if spins is None else tuple(spins)
    if len(spins) != n_spins:
        raise ValueError(f"{process} takes {n_spins} spin indices, got {spins!r}")
    m = constants.m_e

    def evaluate(beta_value: float) -> AmplitudeResult:
        contraction = math.sqrt(1.0 - beta_value * beta_value)
        consts = constants.with_volume(constants.V * contraction)
        frame = Boost.along_z(beta_value)
        if process == "compton":
            vectors = compton_cm_kinematics(photon_energy, theta, frame, m=m)
            return compton_total(
                *vectors, spins=spins, pols=pols, constants=consts,
                normalization=normalization, frame=frame,
            )
        vectors = moller_kinematics(e_cm, theta, frame, m=m)
        return moller_total(
            *vectors, spins=spins, constants=consts,
            normalization=normalization, frame=frame,
        )

    reference = abs(evaluate(0.0).total)
    if reference == 0.0:
        raise ZeroReference("reference amplitude vanishes at beta=0; choose other spins/pols")
    rows = []
    for beta_value in beta_grid:
        result = evaluate(float(beta_value))
        rows.append(
            BoostScanRow(
                float(beta_value),
                result.eta,
                abs(result.total),
                abs(result.total) / reference,
                math.sqrt(1.0 - float(beta_value) ** 2),
            )
        )
    return BoostScanTable(process, normalization, tuple(rows))
