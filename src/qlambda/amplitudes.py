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

Every vertex is evaluated on the Pauli blocks of the spinors with the
scalar helpers of `dirac`; the only numpy call left on this path is the
scalar square root inside `coupling_prefactor`, which vacuum shares. Each
result records in `provenance["guard_margins"]` how close it came to the
pole, on-shell and conservation guards.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .dirac import (
    _require_index,
    bar_dot,
    pair_spinor,
    row_dot,
    slash_column,
    slash_row,
    slash_sandwich,
    spin_pair,
    transverse_basis,
    vector_current,
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
)

_ONSHELL_RTOL = 1e-9
_CONSERVATION_RTOL = 1e-10
_POLE_RTOL = 1e-9
# guard_margins keys: compare with _POLE_RTOL (from above), _ONSHELL_RTOL and
# _CONSERVATION_RTOL (from below)
_MARGIN_KEYS = ("min_denominator", "on_shell_residual", "conservation_residual")


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
    It is evaluated as ((e c hbar / sqrt(V eps0)) eta) sqrt(1/E): the first
    factor is the square root of the checked scale, so V eps0 and E never
    meet in one product that could overflow or underflow, and at
    V eps0 = 1 the value is bit for bit (e c hbar eta) sqrt(1/E).
    """
    charge = constants.e * constants.c * constants.hbar
    medium = constants.V * constants.eps0
    if not (medium > 0.0 and sys.float_info.min <= charge * charge / medium <= sys.float_info.max):
        raise ConfigError("coupling scale (e c hbar)^2 / (V eps0) is not a finite normal float")
    return charge / math.sqrt(medium) * eta_value * np.sqrt(1.0 / energy)


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


def _require_process(incoming, outgoing, masses, labels) -> tuple[float, float, float]:
    """On-shell and conservation guards of a two-to-two scattering process.

    masses and labels follow the momenta in incoming + outgoing order. Returns
    the momentum scale, max(1, largest |component|), that sets every
    tolerance, then the two residuals in its units: the largest
    |p.p - m^2| / scale^2 (against _ONSHELL_RTOL) and the conservation
    residual / scale (against _CONSERVATION_RTOL). Components that are not
    finite, or whose squares are not, fail first: neither residual below can
    be trusted then.
    """
    a, b = incoming
    c, d = outgoing
    components = (a.t, a.x, a.y, a.z, b.t, b.x, b.y, b.z,
                  c.t, c.x, c.y, c.z, d.t, d.x, d.y, d.z)
    scale = max(1.0, max(components), -min(components))
    # a finite sum of finite components: any inf or NaN makes it non-finite,
    # and a sum that overflows needs a component whose square overflows too
    if not (math.isfinite(sum(components)) and math.isfinite(scale * scale)):
        raise OffShellInput("kinematics overflowed: a momentum component or its square "
                            "is not a finite float")
    on_shell_bound = _ONSHELL_RTOL * scale * scale
    on_shell = 0.0
    for v, m, label in zip((a, b, c, d), masses, labels):
        residual = abs(v.t * v.t - v.x * v.x - v.y * v.y - v.z * v.z - m * m)
        if residual > on_shell_bound:
            raise OffShellInput(f"{label} off shell: |p.p - m^2| = {residual:.3e}")
        on_shell = max(on_shell, residual)
    residual = max(abs(a.t + b.t - (c.t + d.t)), abs(a.x + b.x - (c.x + d.x)),
                   abs(a.y + b.y - (c.y + d.y)), abs(a.z + b.z - (c.z + d.z)))
    if residual > _CONSERVATION_RTOL * scale:
        raise OffShellInput(f"four-momentum not conserved: residual {residual:.3e}")
    return scale, on_shell / (scale * scale), residual / scale


def _guard_pole(denom: float, scale: float, where: str) -> float:
    """Raise PoleEncountered when |denom| < _POLE_RTOL * scale; else return |denom| / scale."""
    if abs(denom) < _POLE_RTOL * scale:
        raise PoleEncountered(f"{where}: energy denominator {denom!r} vanishes")
    return abs(denom) / scale


def _result(process, parts, eta_value, closed, textbook, frame, margins, **provenance):
    """Total as the in-order sum of the parts; ratio None when the textbook total is 0.

    margins is (smallest |denominator| / scale, on-shell residual, conservation
    residual); it is recorded last in the provenance as `guard_margins`.
    """
    total = sum(part.value for part in parts)
    ratio = None if textbook == 0.0 else total / textbook
    provenance["guard_margins"] = dict(zip(_MARGIN_KEYS, margins))
    return AmplitudeResult(process, total, tuple(parts), eta_value, closed, frame=frame,
                           textbook_total=textbook, textbook_ratio=ratio, provenance=provenance)


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

    Every factor is Pauli-block arithmetic on Python scalars: the vertex on
    the incoming electron is the column slash(eps) u, the one on the outgoing
    electron the row ubar' slash(eps'), and each intermediate spinor and its
    pair state is contracted against them.
    """
    m = constants.m_e
    scale, on_shell, conservation = _require_process(
        (p, k),
        (p_out, k_out),
        (m, 0.0, m, 0.0),
        ("incoming electron", "incoming photon", "outgoing electron", "outgoing photon"),
    )
    q_absorb = p + k
    eta_value = eta(q_absorb)
    # the polarization vectors are real, so eps'* = eps'
    _require_index("polarization", pols[0])
    e_in = transverse_basis(k.x, k.y, k.z)[pols[0] - 1]
    _require_index("polarization", pols[1])
    e_out = transverse_basis(k_out.x, k_out.y, k_out.z)[pols[1] - 1]
    _require_index("spin", spins[0])
    u_in = spin_pair(p.x, p.y, p.z, m, normalization)[spins[0] - 1]
    _require_index("spin", spins[1])
    u_out = spin_pair(p_out.x, p_out.y, p_out.z, m, normalization)[spins[1] - 1]
    # each vertex carries the prefactor of the photon attached to it
    absorb = (e_in, coupling_factor(eta_value, k.t, constants).value)
    emit = (e_out, coupling_factor(eta_value, k_out.t, constants).value)
    # intermediate momentum, vertex on the incoming electron, vertex on the outgoing one
    table = {"1": (q_absorb, absorb, emit), "2": (p - k_out, emit, absorb)}
    parts, closed, textbook = [], [], []
    min_denominator = math.inf
    for tag in channels:
        q, (e_first, f_first), (e_second, f_second) = table[tag]
        u_1, u_2, e_q = spin_pair(q.x, q.y, q.z, m, normalization)
        d_fwd = q.t - e_q
        d_bwd = -(q.t + e_q)
        min_denominator = min(
            min_denominator,
            _guard_pole(d_fwd, scale, f"channel {tag} forward ordering"),
            _guard_pole(d_bwd, scale, f"channel {tag} crossed ordering"),
        )
        row = slash_row(u_out, e_second)
        col = slash_column(e_first, u_in)
        for s, u_mid in ((1, u_1), (2, u_2)):
            v_mid = pair_spinor(u_mid)
            parts.append(DiagramAmplitude(f"{tag}a:s={s}", f_first * bar_dot(u_mid, col),
                                          f_second * row_dot(row, u_mid), d_fwd))
            parts.append(DiagramAmplitude(f"{tag}b:s={s}", -f_second * row_dot(row, v_mid),
                                          f_first * bar_dot(v_mid, col), d_bwd))
        bare = slash_sandwich(row, (q.t, q.x, q.y, q.z), m, col) / (minkowski_dot(q, q) - m * m)
        # spin sums are (slash + m) / (2 E_q) for box spinors, / (2 m) for covariant
        norm = e_q / m if normalization == "covariant" else 1.0
        closed.append(f_first * f_second * norm * bare)
        textbook.append(bare)
    return _result(process, parts, eta_value, sum(closed[1:], closed[0]),
                   sum(textbook[1:], textbook[0]), frame,
                   (min_denominator, on_shell, conservation))


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
    scale, on_shell, conservation = _require_process(
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
    k3 = (k.x, k.y, k.z)
    e_k = math.hypot(*k3)
    k0 = k.t
    eta_value = eta(p1 + q1)
    f = coupling_factor(eta_value, e_k, constants).value
    d_fwd = k0 - e_k
    d_bwd = -(k0 + e_k)
    min_denominator = min(_guard_pole(d_fwd, scale, "exchange forward ordering"),
                          _guard_pole(d_bwd, scale, "exchange crossed ordering"))
    s1, s2, s3, s4 = spins
    spinors = []
    for v, s in ((p1, s1), (q1, s2), (p2, s3), (q2, s4)):
        _require_index("spin", s)
        spinors.append(spin_pair(v.x, v.y, v.z, m, normalization)[s - 1])
    u_p1, u_q1, u_p2, u_q2 = spinors
    j_beam = vector_current(u_p2, u_p1)
    j_target = vector_current(u_q2, u_q1)
    parts = []
    closed = 0.0 + 0.0j
    # real transverse basis shared by both orderings (same transverse plane
    # for -k); with eps = (0, e) the vertex is f eps . g . J = -f e . J
    for alpha, (ex, ey, ez) in zip((1, 2), transverse_basis(*k3)):
        beam_current = f * -(ex * j_beam[1] + ey * j_beam[2] + ez * j_beam[3])
        target_current = f * -(ex * j_target[1] + ey * j_target[2] + ez * j_target[3])
        parts.append(
            DiagramAmplitude(f"emit-beam:pol={alpha}", beam_current, target_current, d_fwd, 0.5)
        )
        parts.append(
            DiagramAmplitude(f"emit-target:pol={alpha}", target_current, beam_current, d_bwd, 0.5)
        )
        closed += e_k * beam_current * target_current / (k0 * k0 - e_k * e_k)
    tb = (j_beam[0] * j_target[0] - j_beam[1] * j_target[1] - j_beam[2] * j_target[2]
          - j_beam[3] * j_target[3]) / transfer2
    return _result("moller", parts, eta_value, closed, tb, frame,
                   (min_denominator, on_shell, conservation),
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
