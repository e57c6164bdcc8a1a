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
from .errors import ForwardSingularity, OffShellInput, PoleEncountered
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
_GAMMAS = np.stack(gamma_set().matrices)
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


def coupling_factor(eta_value: float, energy: float, constants: Constants) -> CouplingFactor:
    value = (
        constants.e
        * constants.c
        * constants.hbar
        * eta_value
        * math.sqrt(1.0 / (constants.V * constants.eps0 * energy))
    )
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


def _scale(*vectors: FourVector) -> float:
    return max(1.0, *(abs(c) for v in vectors for c in v.as_array()))


def _require_on_shell(v: FourVector, m: float, label: str, scale: float) -> None:
    residual = abs(minkowski_dot(v, v) - m * m)
    if residual > _ONSHELL_RTOL * scale * scale:
        raise OffShellInput(f"{label} off shell: |p.p - m^2| = {residual:.3e}")


def _require_conserved(incoming, outgoing, scale: float) -> None:
    total_in = incoming[0]
    for v in incoming[1:]:
        total_in = total_in + v
    total_out = outgoing[0]
    for v in outgoing[1:]:
        total_out = total_out + v
    residual = float(np.max(np.abs((total_in - total_out).as_array())))
    if residual > _CONSERVATION_RTOL * scale:
        raise OffShellInput(f"four-momentum not conserved: residual {residual:.3e}")


def _guard_pole(denom: float, scale: float, where: str) -> None:
    if abs(denom) < _POLE_RTOL * scale:
        raise PoleEncountered(f"{where}: energy denominator {denom!r} vanishes")


def _pair_state(components: np.ndarray) -> np.ndarray:
    """Negative-energy solutions v(-q, s) at the momentum q of u(q, s).

    With u = N (chi ; sigma.q chi / (E+m)) the pair state is
    N (-sigma.q chi / (E+m) ; chi): energy -E_q, same normalization as u.
    Takes 4 components or a (4, 2) spin block (rows swapped either way).
    """
    return np.concatenate([-components[2:], components[:2]])


def _compton_context(p, k, p_out, k_out, spins, pols, constants, normalization):
    m = constants.m_e
    scale = _scale(p, k, p_out, k_out)
    _require_on_shell(p, m, "incoming electron", scale)
    _require_on_shell(p_out, m, "outgoing electron", scale)
    _require_on_shell(k, 0.0, "incoming photon", scale)
    _require_on_shell(k_out, 0.0, "outgoing photon", scale)
    _require_conserved((p, k), (p_out, k_out), scale)
    spin_in, spin_out = spins
    pol_in, pol_out = pols
    eta_value = eta(p + k)
    eps_in = polarization_pair(k.spatial)[pol_in - 1].as_array()
    eps_out_conj = polarization_pair(k_out.spatial)[pol_out - 1].as_array().conj()
    # each vertex carries the prefactor of the photon attached to it
    return {
        "m": m,
        "scale": scale,
        "eta": eta_value,
        "normalization": normalization,
        "u_in": u_spinor(p.spatial, spin_in, m, normalization).components,
        "ubar_out": ubar(u_spinor(p_out.spatial, spin_out, m, normalization)),
        "absorb": (slash(eps_in), coupling_factor(eta_value, k.t, constants).value),
        "emit": (slash(eps_out_conj), coupling_factor(eta_value, k_out.t, constants).value),
    }


def _compton_channel(
    ctx: dict, q: FourVector, first, second, tag: str
) -> tuple[list[DiagramAmplitude], complex, complex]:
    """Both orderings of one channel, its closed form and its bare chain.

    first = (slash(eps), f) couples the incoming electron to the intermediate
    state, second couples the intermediate state to the outgoing electron.
    The forward ordering (a) runs through the electron u(q, s) over
    q0 - E_q. In the crossed ordering (b) the second vertex acts first: it
    creates the outgoing electron together with the pair state v(-q, s), which
    the first vertex then annihilates with the incoming electron, over
    -(q0 + E_q); the fermion sign of that ordering rides on its first factor.
    Summed over s the two give f f' ubar' slash(eps2) (slash(q) + m)
    slash(eps1) u / (q^2 - m^2), times E_q / m for covariant spinors. The bare
    chain is the same expression without prefactors or normalization factor.
    """
    m = ctx["m"]
    q3 = q.spatial
    e_q = on_shell_energy(q3, m)
    q0 = q.t
    d_fwd = q0 - e_q
    d_bwd = -(q0 + e_q)
    _guard_pole(d_fwd, ctx["scale"], f"channel {tag} forward ordering")
    _guard_pole(d_bwd, ctx["scale"], f"channel {tag} crossed ordering")
    slash_first, f_first = first
    slash_second, f_second = second
    row = ctx["ubar_out"] @ slash_second
    col = slash_first @ ctx["u_in"]
    # columns: both intermediate spins, as electrons and as pair states
    u_mid = spin_block(q3, m, ctx["normalization"])
    v_mid = _pair_state(u_mid)
    fwd_first = (f_first * (ubar(u_mid) @ col)).tolist()
    fwd_second = (f_second * (row @ u_mid)).tolist()
    bwd_first = (-f_second * (row @ v_mid)).tolist()
    bwd_second = (f_first * (ubar(v_mid) @ col)).tolist()
    parts = []
    for i, s in enumerate((1, 2)):
        parts.append(DiagramAmplitude(f"{tag}a:s={s}", fwd_first[i], fwd_second[i], d_fwd))
        parts.append(DiagramAmplitude(f"{tag}b:s={s}", bwd_first[i], bwd_second[i], d_bwd))
    bare = complex(row @ (slash(q) + m * _I4) @ col) / (minkowski_dot(q, q) - m * m)
    # spin sums are (slash + m) / (2 E_q) for box spinors, / (2 m) for covariant
    norm = e_q / m if ctx["normalization"] == "covariant" else 1.0
    return parts, f_first * f_second * norm * bare, bare


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
    ctx = _compton_context(p, k, p_out, k_out, spins, pols, constants, normalization)
    parts, closed, _ = _compton_channel(ctx, p + k, ctx["absorb"], ctx["emit"], "1")
    total = sum(part.value for part in parts)
    return AmplitudeResult(
        "compton_pair_A", total, tuple(parts), ctx["eta"], closed, frame=frame
    )


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
    ctx = _compton_context(p, k, p_out, k_out, spins, pols, constants, normalization)
    parts, closed, _ = _compton_channel(ctx, p - k_out, ctx["emit"], ctx["absorb"], "2")
    total = sum(part.value for part in parts)
    return AmplitudeResult(
        "compton_pair_B", total, tuple(parts), ctx["eta"], closed, frame=frame
    )


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
    ctx = _compton_context(p, k, p_out, k_out, spins, pols, constants, normalization)
    parts_a, closed_a, bare_a = _compton_channel(ctx, p + k, ctx["absorb"], ctx["emit"], "1")
    parts_b, closed_b, bare_b = _compton_channel(
        ctx, p - k_out, ctx["emit"], ctx["absorb"], "2"
    )
    parts = tuple(parts_a + parts_b)
    total = sum(part.value for part in parts)
    tb = bare_a + bare_b
    ratio = None if tb == 0.0 else total / tb
    return AmplitudeResult(
        "compton",
        total,
        parts,
        ctx["eta"],
        closed_a + closed_b,
        frame=frame,
        textbook_total=tb,
        textbook_ratio=ratio,
    )


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
    scale = _scale(p1, q1, p2, q2)
    for v, label in ((p1, "beam electron"), (q1, "target electron"),
                     (p2, "scattered beam electron"), (q2, "scattered target electron")):
        _require_on_shell(v, m, label, scale)
    _require_conserved((p1, q1), (p2, q2), scale)
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
    total = sum(part.value for part in parts)
    tb = complex(j_beam @ _METRIC @ j_target) / transfer2
    ratio = None if tb == 0.0 else total / tb
    return AmplitudeResult(
        "moller",
        total,
        tuple(parts),
        eta_value,
        closed,
        frame=frame,
        textbook_total=tb,
        textbook_ratio=ratio,
        provenance={"transfer_squared": float(transfer2), "photon_energy": e_k},
    )


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
        fh.write(",".join(self.COLUMNS) + "\n")
        for row in self.rows:
            fh.write(",".join(f"{v:.17g}" for v in row.as_tuple()) + "\n")


def boost_scan(
    process: str,
    beta_grid,
    normalization: str = "box",
    constants: Constants = NATURAL,
    photon_energy: float = 1.0,
    e_cm: float = 4.0,
    theta: float = math.pi / 3.0,
    spins: tuple = (1, 1),
    pols: tuple[int, int] = (1, 1),
) -> BoostScanTable:
    """Amplitude magnitude versus boosts away from the zero-momentum frame.

    For each beta the kinematics, polarizations, spinors, eta, and the mode
    volume V -> V sqrt(1-beta^2) are all recomputed in the boosted frame.
    Columns: beta, eta, |amp|, |amp|/|amp at beta=0|, sqrt(1-beta^2).
    """
    if process not in ("compton", "moller"):
        raise ValueError(f"unknown process {process!r}")
    m = constants.m_e

    def evaluate(beta_value: float) -> AmplitudeResult:
        contraction = math.sqrt(1.0 - beta_value * beta_value)
        consts = constants.with_volume(constants.V * contraction)
        frame = Boost.along_z(beta_value)
        if process == "compton":
            vectors = compton_cm_kinematics(photon_energy, theta, frame, m=m)
            pair_spins = tuple(spins) if len(spins) == 2 else (1, 1)
            return compton_total(
                *vectors, spins=pair_spins, pols=pols, constants=consts,
                normalization=normalization, frame=frame,
            )
        vectors = moller_kinematics(e_cm, theta, frame, m=m)
        all_spins = tuple(spins) if len(spins) == 4 else (1, 1, 1, 1)
        return moller_total(
            *vectors, spins=all_spins, constants=consts,
            normalization=normalization, frame=frame,
        )

    reference = abs(evaluate(0.0).total)
    if reference == 0.0:
        raise ValueError(
            "reference amplitude vanishes at beta=0; pick different spins/pols"
        )
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
