"""Scattering amplitudes assembled from few-level effective couplings.

Each diagram is a pair of three-level orderings (`_second_order`) checked
against an independently evaluated closed propagator form. Every vertex
carries the coupling prefactor of the photon attached to it.

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
scalar helpers of `pauli`, and the module imports no numpy. Every vertex,
and vacuum's pair coupling, takes its checked prefactor from
`coupling_prefactor`, a Python float. Each result records in
`provenance["guard_margins"]` how close it came to the pole, on-shell and
conservation guards.

Callers ask for several views of one momentum set: compton_pair_A,
compton_pair_B and compton_total for the two-diagram cross-check,
moller_total again inside vacuum.corrected_amplitude, and a spin sum all 16
spin and polarization index sets. So each process family keeps a last-call
memo of one shape, (objects, normalization, table, rows). The table is the
index-free work of a momentum set, built whole on a miss: guards, eta, both
spinors of each electron and polarizations of each photon, coupling factors,
and for each Compton channel the intermediate spinors and pair states,
denominators and propagator factor. The rows are the index-dependent work of
the last index set, one per Compton channel and one for Moller; a Compton
channel's pole guards run with its row, so one view serves while the other
channel sits on its pole. One lookup, `_recall`, serves both memos: a call
with the same normalization on the very momenta and Constants (`is`), or on
equal ones whose components are Python floats with equal bits; value alone
is no key, as -0.0 == 0.0 yet the sign of a momentum's zero component
reaches the signs of spinor zeros. Each row holds its parts and their values
as `DiagramAmplitude.value` gives them, and every view's total is their
in-order sum. Every call still checks its indices and builds a fresh
result, with its own frame, process label and provenance and guard_margins
dicts, so a hit is bit for bit a fresh evaluation. Errors are never stored:
a call that raises leaves the memo as it was, and raises again when repeated.

Guard labels and part names are module constants; a guard formats its
message only when it raises.
"""
from __future__ import annotations

import math
import operator
import struct
import sys
from collections import namedtuple

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
from .pauli import (
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

_ONSHELL_RTOL = 1e-9
_CONSERVATION_RTOL = 1e-10
_POLE_RTOL = 1e-9
# guard labels and part names, in the order the momenta, rows and parts come
_COMPTON_LABELS = ("incoming electron", "incoming photon", "outgoing electron", "outgoing photon")
_MOLLER_LABELS = ("beam electron", "target electron",
                  "scattered beam electron", "scattered target electron")
_CHANNEL_POLES = (("channel 1 forward ordering", "channel 1 crossed ordering"),
                  ("channel 2 forward ordering", "channel 2 crossed ordering"))
_CHANNEL_PARTS = ((("1a:s=1", "1b:s=1"), ("1a:s=2", "1b:s=2")),
                  (("2a:s=1", "2b:s=1"), ("2a:s=2", "2b:s=2")))
_MOLLER_PARTS = (("emit-beam:pol=1", "emit-target:pol=1"),
                 ("emit-beam:pol=2", "emit-target:pol=2"))


class CouplingFactor(namedtuple("CouplingFactor", "value eta energy volume")):
    """Scalar prefactor e c hbar eta sqrt(1/(V eps0 E)) with its provenance.

    E is the energy of the photon attached to the vertex: the field amplitude
    of a photon mode is sqrt(hbar E / (eps0 V)). Both vertices of an exchanged
    photon share one prefactor; in photon-electron scattering the absorbed and
    the emitted photon each set the prefactor of their own vertex.
    """

    __slots__ = ()

    def __new__(cls, value, eta, energy, volume):
        return tuple.__new__(cls, (_checked_factor(value, eta), eta, energy, volume))


def _checked_factor(value, eta_value):
    """value, once eta lies in (0, 1] and value is positive; else OffShellInput."""
    if not (0.0 < eta_value <= 1.0 + 1e-12):
        raise OffShellInput(f"eta must lie in (0, 1], got {eta_value!r}")
    if not value > 0.0:
        raise OffShellInput(f"coupling factor must be positive, got {value!r}")
    return value


def coupling_prefactor(eta_value: float, energy: float, constants: Constants) -> float:
    """e c hbar eta sqrt(1/(V eps0 E)) for scalar eta and E, as a Python float.

    Raises ConfigError unless the squared coupling scale (e c hbar)^2 / (V eps0)
    is a finite normal float, so the prefactor and its square stay in range;
    then, as CouplingFactor does, OffShellInput unless eta lies in (0, 1] and
    the value is positive, so an E that is not positive is rejected.
    It is evaluated as ((e c hbar / sqrt(V eps0)) eta) sqrt(1/E): the first
    factor is the square root of the checked scale, so V eps0 and E never
    meet in one product that could overflow or underflow, and at
    V eps0 = 1 the value is bit for bit (e c hbar eta) sqrt(1/E).
    """
    charge = constants.e * constants.c * constants.hbar
    medium = constants.V * constants.eps0
    if not (medium > 0.0 and sys.float_info.min <= charge * charge / medium <= sys.float_info.max):
        raise ConfigError("coupling scale (e c hbar)^2 / (V eps0) is not a finite normal float")
    root = math.sqrt(1.0 / energy) if energy > 0.0 else math.nan
    return _checked_factor(float(charge / math.sqrt(medium) * eta_value * root), eta_value)


def coupling_factor(eta_value: float, energy: float, constants: Constants) -> CouplingFactor:
    """coupling_prefactor at one vertex, as a CouplingFactor record."""
    return CouplingFactor(coupling_prefactor(eta_value, energy, constants), eta_value, energy,
                          constants.V)


class DiagramAmplitude(namedtuple("DiagramAmplitude", "name omega1 omega2 denom weight",
                                   defaults=(1.0,))):
    """One three-level ordering: value = _second_order(weight * omega1, omega2, denom)."""

    __slots__ = ()

    @property
    def value(self) -> complex:
        return _second_order(self.weight * self.omega1, self.omega2, self.denom)


class AmplitudeResult(namedtuple("AmplitudeResult", (
    "process", "total", "parts", "eta", "closed_form", "frame", "textbook_total",
    "textbook_ratio", "provenance",
))):
    """Total amplitude with per-ordering parts and the closed-form cross check.

    `parts` is a tuple of DiagramAmplitude, `frame` a Boost or None, and
    `provenance` a dict, a new empty one when not given.
    """

    __slots__ = ()

    def __new__(cls, process, total, parts, eta, closed_form, frame=None,
                textbook_total=None, textbook_ratio=None, provenance=None):
        return tuple.__new__(cls, (process, total, parts, eta, closed_form, frame,
                                   textbook_total, textbook_ratio,
                                   {} if provenance is None else provenance))

    def to_json_dict(self) -> dict:
        def cplx(z):
            return [float(z.real), float(z.imag)]

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
    (at, ax, ay, az), (bt, bx, by, bz) = incoming
    (ct, cx, cy, cz), (dt, dx, dy, dz) = outgoing
    components = (at, ax, ay, az, bt, bx, by, bz, ct, cx, cy, cz, dt, dx, dy, dz)
    scale = max(1.0, max(components), -min(components))
    # a finite sum of finite components: any inf or NaN makes it non-finite,
    # and a sum that overflows needs a component whose square overflows too
    if not (math.isfinite(sum(components)) and math.isfinite(scale * scale)):
        raise OffShellInput("kinematics overflowed: a momentum component or its square "
                            "is not a finite float")
    ma, mb, mc, md = masses
    # each residual is finite or +inf here, so their largest is a plain max
    residuals = (abs(at * at - ax * ax - ay * ay - az * az - ma * ma),
                 abs(bt * bt - bx * bx - by * by - bz * bz - mb * mb),
                 abs(ct * ct - cx * cx - cy * cy - cz * cz - mc * mc),
                 abs(dt * dt - dx * dx - dy * dy - dz * dz - md * md))
    on_shell_bound = _ONSHELL_RTOL * scale * scale
    on_shell = max(residuals)
    if on_shell > on_shell_bound:
        for residual, label in zip(residuals, labels):  # the first off shell, in label order
            if residual > on_shell_bound:
                raise OffShellInput(f"{label} off shell: |p.p - m^2| = {residual:.3e}")
    residual = max(abs(at + bt - (ct + dt)), abs(ax + bx - (cx + dx)),
                   abs(ay + by - (cy + dy)), abs(az + bz - (cz + dz)))
    if residual > _CONSERVATION_RTOL * scale:
        raise OffShellInput(f"four-momentum not conserved: residual {residual:.3e}")
    return scale, on_shell / (scale * scale), residual / scale


def _guard_pole(denom: float, scale: float, where: str, what: str = "") -> float:
    """Raise PoleEncountered when |denom| < _POLE_RTOL * scale; else return |denom| / scale.

    The message names `where` followed by `what`, joined only when it is raised.
    """
    if abs(denom) < _POLE_RTOL * scale:
        raise PoleEncountered(f"{where}{what}: energy denominator {denom!r} vanishes")
    return abs(denom) / scale


def _second_order(omega1, omega2, denom):
    """The paper's term omega1 omega2 / (E1 - E2) of one three-level (Lambda) ordering.

    omega1 couples level 1 to the middle level 2, omega2 level 2 onward. A
    weight enters first, as `weight * omega1`; unweighted callers pass omega1
    itself, as w * z is complex(w, 0.0) * z and can flip the sign of a zero.
    """
    return omega1 * omega2 / denom


def _result(process, parts, values, eta_value, closed, textbook, frame, margins, **provenance):
    """Total as the in-order sum of the part values; ratio None when the textbook total is 0.

    values holds each part's `value`, in the order of the tuple parts. margins
    is (smallest |denominator| / scale, on-shell residual, conservation
    residual); it is recorded last in the provenance as `guard_margins`.
    """
    total = sum(values)
    ratio = None if textbook == 0.0 else total / textbook
    min_denominator, on_shell, conservation = margins
    # compare with _POLE_RTOL (from above), _ONSHELL_RTOL and _CONSERVATION_RTOL (from below)
    provenance["guard_margins"] = {"min_denominator": min_denominator,
                                   "on_shell_residual": on_shell,
                                   "conservation_residual": conservation}
    return tuple.__new__(AmplitudeResult, (process, total, parts, eta_value, closed, frame,
                                           textbook, ratio, provenance))


# the last-call memos of the module docstring, each (objects, normalization,
# table, rows) and replaced in a single assignment; Compton's rows are one
# slot per channel, None or (indices, *row), Moller's the one row (spins, *row)
_compton_memo = None
_moller_memo = None
_FLOATS = {float}
_bits = struct.Struct("23d").pack  # the 16 momentum components and 7 constants of a key


def _indices(process: str, kind: str, indices, count: int) -> tuple:
    """indices as a tuple of `count` checked spin or polarization indices; else ValueError.

    A plain int 1 or 2 passes at once; anything else goes to _require_index.
    """
    indices = tuple(indices)
    if len(indices) != count:
        raise ValueError(f"{process} takes {count} {kind} indices, got {indices!r}")
    for index in indices:
        if type(index) is not int or not 0 < index < 3:
            _require_index(kind, index)
    return indices


def _recall(memo, objects, normalization):
    """The (table, rows) of a last-call memo that serves these inputs, else None: the same
    normalization, and the very objects or equal ones of Python floats with equal bits."""
    if memo is None or memo[1] != normalization or memo[0] != objects:
        return None
    known = memo[0]
    if not all(map(operator.is_, known, objects)):
        old, new = sum(known, ()), sum(objects, ())
        if set(map(type, old + new)) != _FLOATS or _bits(*old) != _bits(*new):
            return None
    return memo[2:]


def _compton_setup(p, k, p_out, k_out, constants, normalization):
    """The index-free table: guards, eta, the spinor pairs of p and p_out, and per channel q,
    its two vertices, each as polarization pair, slot and prefactor, the intermediate spinors
    and pair states, both denominators, q^2 - m^2 and the coupling factor.

    A vertex's slot is the place of its photon's index in `pols`. A channel's pole guards
    run with its row, so one channel serves while the other sits on its pole.
    """
    m = constants.m_e
    scale, on_shell, conservation = _require_process((p, k), (p_out, k_out), (m, 0.0, m, 0.0),
                                                     _COMPTON_LABELS)
    q_absorb = p + k
    eta_value = eta(q_absorb)
    # the polarization vectors are real, so eps'* = eps'
    basis_in = transverse_basis(k.x, k.y, k.z)
    basis_out = transverse_basis(k_out.x, k_out.y, k_out.z)
    u_pair = spin_pair(p.x, p.y, p.z, m, normalization)
    u_out_pair = spin_pair(p_out.x, p_out.y, p_out.z, m, normalization)
    # each vertex carries the prefactor of the photon attached to it
    f_in = coupling_prefactor(eta_value, k.t, constants)
    f_out = coupling_prefactor(eta_value, k_out.t, constants)
    table = []
    for q, basis_first, first, f_first, basis_second, second, f_second in (
            (q_absorb, basis_in, 0, f_in, basis_out, 1, f_out),
            (p - k_out, basis_out, 1, f_out, basis_in, 0, f_in)):
        u_1, u_2, e_q = spin_pair(q.x, q.y, q.z, m, normalization)
        # spin sums are (slash + m) / (2 E_q) for box spinors, / (2 m) for covariant
        norm = e_q / m if normalization == "covariant" else 1.0
        table.append((q, basis_first, first, f_first, basis_second, second, f_second,
                      ((u_1, pair_spinor(u_1)), (u_2, pair_spinor(u_2))), q.t - e_q,
                      -(q.t + e_q), minkowski_dot(q, q) - m * m, f_first * f_second * norm))
    return scale, on_shell, conservation, eta_value, u_pair, u_out_pair, tuple(table)


def _compton_channel(tag, setup, indices, m):
    """Channel `tag`'s row for these indices, once the channel's two pole guards pass."""
    scale, _, _, _, u_pair, u_out_pair, table = setup
    spins, pols = indices
    (q, basis_first, first, f_first, basis_second, second, f_second, mids, d_fwd, d_bwd,
     propagator, factor) = table[tag - 1]
    where_fwd, where_bwd = _CHANNEL_POLES[tag - 1]
    margins = (_guard_pole(d_fwd, scale, where_fwd), _guard_pole(d_bwd, scale, where_bwd))
    row = slash_row(u_out_pair[spins[1] - 1], basis_second[pols[second] - 1])
    col = slash_column(basis_first[pols[first] - 1], u_pair[spins[0] - 1])
    parts, values = [], []
    for (name_fwd, name_bwd), (u_mid, v_mid) in zip(_CHANNEL_PARTS[tag - 1], mids):
        fwd_1, fwd_2 = f_first * bar_dot(u_mid, col), f_second * row_dot(row, u_mid)
        bwd_1, bwd_2 = -f_second * row_dot(row, v_mid), f_first * bar_dot(v_mid, col)
        parts += (tuple.__new__(DiagramAmplitude, (name_fwd, fwd_1, fwd_2, d_fwd, 1.0)),
                  tuple.__new__(DiagramAmplitude, (name_bwd, bwd_1, bwd_2, d_bwd, 1.0)))
        values += (_second_order(1.0 * fwd_1, fwd_2, d_fwd),
                   _second_order(1.0 * bwd_1, bwd_2, d_bwd))
    bare = slash_sandwich(row, q, m, col) / propagator
    return indices, tuple(parts), tuple(values), factor * bare, bare, margins


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

    The table, and each channel's row of the last indices, come from the
    last-call memo when it serves the call.
    """
    global _compton_memo
    pols = _indices("compton", "polarization", pols, 2)
    spins = _indices("compton", "spin", spins, 2)
    objects = (p, k, p_out, k_out, constants)
    indices = (spins, pols)
    setup, rows = (_recall(_compton_memo, objects, normalization)
                   or (_compton_setup(p, k, p_out, k_out, constants, normalization), (None, None)))
    parts = part_values = ()
    closed = textbook = None
    min_denominator = math.inf
    for tag in channels:
        row = rows[tag - 1]
        if row is None or row[0] != indices:
            row = _compton_channel(tag, setup, indices, constants.m_e)
            rows = (row, rows[1]) if tag == 1 else (rows[0], row)
        _, row_parts, row_values, row_closed, row_textbook, (fwd, bwd) = row
        parts += row_parts
        part_values += row_values
        closed = row_closed if closed is None else closed + row_closed
        textbook = row_textbook if textbook is None else textbook + row_textbook
        min_denominator = min(min_denominator, fwd, bwd)
    _compton_memo = (objects, normalization, setup, rows)
    _, on_shell, conservation, eta_value = setup[:4]
    return _result(process, parts, part_values, eta_value, closed, textbook, frame,
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
    return _compton("compton_pair_A", (1,), p, k, p_out, k_out,
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
    return _compton("compton_pair_B", (2,), p, k, p_out, k_out,
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
    return _compton("compton", (1, 2), p, k, p_out, k_out,
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

    The table, and the row of the last spins, come from the last-call memo
    when it serves the call.
    """
    global _moller_memo
    spins = _indices("moller", "spin", spins, 4)
    objects = (p1, q1, p2, q2, constants)
    table, row = (_recall(_moller_memo, objects, normalization)
                  or (_moller_setup(p1, q1, p2, q2, constants, normalization), None))
    if row is None or row[0] != spins:
        row = _moller(table, spins)
    _moller_memo = (objects, normalization, table, row)
    _, parts, part_values, eta_value, closed, tb, margins, transfer2, e_k = row
    return _result("moller", parts, part_values, eta_value, closed, tb, frame, margins,
                   transfer_squared=float(transfer2), photon_energy=e_k)


def _moller_setup(p1, q1, p2, q2, constants, normalization):
    """The index-free table: spinor pairs, polarizations, prefactor, energies and guards."""
    m = constants.m_e
    scale, on_shell, conservation = _require_process((p1, q1), (p2, q2), (m, m, m, m),
                                                     _MOLLER_LABELS)
    k = p1 - p2
    transfer2 = minkowski_dot(k, k)
    if abs(transfer2) < 1e-12 * scale * scale:
        raise ForwardSingularity(f"(p1-p2)^2 = {transfer2!r} vanishes")
    # kinematic energies are natural-units throughout; constants enter the
    # coupling prefactors only
    k3 = (k.x, k.y, k.z)
    e_k = math.hypot(*k3)
    eta_value = eta(p1 + q1)
    f = coupling_prefactor(eta_value, e_k, constants)
    d_fwd = k.t - e_k
    d_bwd = -(k.t + e_k)
    min_denominator = min(_guard_pole(d_fwd, scale, "exchange forward ordering"),
                          _guard_pole(d_bwd, scale, "exchange crossed ordering"))
    return (spin_pair(p1.x, p1.y, p1.z, m, normalization),
            spin_pair(q1.x, q1.y, q1.z, m, normalization),
            spin_pair(p2.x, p2.y, p2.z, m, normalization),
            spin_pair(q2.x, q2.y, q2.z, m, normalization), transverse_basis(*k3),
            f, k.t, e_k, d_fwd, d_bwd, eta_value, (min_denominator, on_shell, conservation),
            transfer2)


def _moller(table, spins):
    """moller_total's row for these spins: the currents' parts, values and closed forms."""
    (p1_pair, q1_pair, p2_pair, q2_pair, basis, f, k0, e_k, d_fwd, d_bwd, eta_value, margins,
     transfer2) = table
    s_p1, s_q1, s_p2, s_q2 = spins
    j_beam = vector_current(p2_pair[s_p2 - 1], p1_pair[s_p1 - 1])
    j_target = vector_current(q2_pair[s_q2 - 1], q1_pair[s_q1 - 1])
    parts, values = [], []
    closed = 0.0 + 0.0j
    # real transverse basis shared by both orderings (same transverse plane
    # for -k); with eps = (0, e) the vertex is f eps . g . J = -f e . J
    for (name_beam, name_target), (ex, ey, ez) in zip(_MOLLER_PARTS, basis):
        beam = f * -(ex * j_beam[1] + ey * j_beam[2] + ez * j_beam[3])
        target = f * -(ex * j_target[1] + ey * j_target[2] + ez * j_target[3])
        parts += (tuple.__new__(DiagramAmplitude, (name_beam, beam, target, d_fwd, 0.5)),
                  tuple.__new__(DiagramAmplitude, (name_target, target, beam, d_bwd, 0.5)))
        values += (_second_order(0.5 * beam, target, d_fwd),
                   _second_order(0.5 * target, beam, d_bwd))
        closed += e_k * beam * target / (k0 * k0 - e_k * e_k)
    tb = (j_beam[0] * j_target[0] - j_beam[1] * j_target[1] - j_beam[2] * j_target[2]
          - j_beam[3] * j_target[3]) / transfer2
    return spins, tuple(parts), tuple(values), eta_value, closed, tb, margins, transfer2, e_k


class BoostScanRow(namedtuple("BoostScanRow",
                               "beta eta amplitude_abs ratio_to_cm inverse_gamma")):
    __slots__ = ()

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return tuple(self)


class BoostScanTable(namedtuple("BoostScanTable", "process normalization rows")):
    """`rows` is a tuple of BoostScanRow, written under COLUMNS."""

    __slots__ = ()

    COLUMNS = ("beta", "eta", "amp_abs", "ratio_to_cm", "inverse_gamma")

    def write_csv(self, fh) -> None:
        fh.write(f"# process={self.process} normalization={self.normalization}\n")
        write_table(fh, self.COLUMNS, self.rows)


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
    Raises ZeroReference when the amplitude at beta=0 is zero; every boost
    is built first, so a beta with |beta| >= 1 raises SuperluminalBoost, and
    a NaN beta ConfigError, before any amplitude is evaluated.
    """
    if process not in ("compton", "moller"):
        raise ValueError(f"unknown process {process!r}")
    # tuples once, so the reference frame does not use up a one-shot iterable;
    # compton_total and moller_total check the counts
    spins = (1,) * (2 if process == "compton" else 4) if spins is None else tuple(spins)
    pols = tuple(pols)
    m = constants.m_e

    def evaluate(frame: Boost, contraction: float) -> AmplitudeResult:
        consts = constants.with_volume(constants.V * contraction)
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

    # every frame first: Boost rejects |beta| >= 1 and NaN before any contraction
    betas = tuple(map(float, beta_grid))
    boosts = tuple(map(Boost.along_z, betas))
    reference = abs(evaluate(Boost.along_z(0.0), 1.0).total)
    if reference == 0.0:
        raise ZeroReference("reference amplitude vanishes at beta=0; choose other spins/pols")
    rows = []
    for beta_value, frame in zip(betas, boosts):
        # the one contraction per row: it scales V and is the inverse_gamma column
        contraction = math.sqrt(1.0 - beta_value * beta_value)
        result = evaluate(frame, contraction)
        amplitude = abs(result.total)
        rows.append(BoostScanRow(beta_value, result.eta, amplitude, amplitude / reference,
                                 contraction))
    return BoostScanTable(process, normalization, tuple(rows))
