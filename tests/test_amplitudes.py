import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qlambda import amplitudes
from qlambda.amplitudes import (
    _CONSERVATION_RTOL,
    _ONSHELL_RTOL,
    _POLE_RTOL,
    boost_scan,
    compton_pair_A,
    compton_pair_B,
    compton_total,
    coupling_factor,
    coupling_prefactor,
    moller_total,
)
from qlambda.dirac import gamma_set, polarization_pair, slash, u_spinor, ubar, vertex_bilinear
from qlambda.errors import (
    ConfigError,
    ForwardSingularity,
    OffShellInput,
    PoleEncountered,
    SuperluminalBoost,
    ZeroReference,
)
from qlambda.lorentz import (
    NATURAL,
    Boost,
    Constants,
    FourVector,
    compton_cm_kinematics,
    compton_kinematics,
    eta,
    minkowski_dot,
    moller_kinematics,
    on_shell_energy,
)
from qlambda.vacuum import corrected_amplitude


def random_boost(rng, bmax=0.8):
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return Boost(tuple(direction * rng.uniform(0.0, bmax)))


def vertex_scale(f, *spinors):
    """f |u_b| |u_a|: the size of the terms a vertex contraction sums.

    Two summation orders agree to a few ulps of this scale, not of the value,
    which cancellation can make far smaller.
    """
    return f * math.prod(float(np.linalg.norm(u)) for u in spinors)


def random_compton_case(rng):
    energy = rng.uniform(0.2, 3.0)
    theta = rng.uniform(0.15, math.pi - 0.15)
    frame = random_boost(rng) if rng.random() < 0.5 else None
    spins = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
    pols = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
    return compton_cm_kinematics(energy, theta, frame), spins, pols


def gamma_compton_reference(p, k, p_out, k_out, spins, pols, normalization, channels=("1", "2")):
    """The Compton parts, closed form and textbook total from 4x4 gamma matrices.

    Built only from `slash`, `ubar` and `gamma_set`: each vertex is
    ubar slash(eps) u, each pair state v(-q, s) = (-lower ; upper), and the
    closed form the chain ubar' slash(eps') (slash(q) + m) slash(eps) u. Every
    value comes with its scale: f |u_b| |u_a| for a vertex, and
    f f' |u'| |u| (|q0| + |q| + m) / |q^2 - m^2| per channel for the chains;
    each part also carries its denominator.
    """
    identity = gamma_set()[0] @ gamma_set()[0]
    u_in = u_spinor(p.spatial, spins[0], 1.0, normalization).components
    u_out = u_spinor(p_out.spatial, spins[1], 1.0, normalization).components
    eps_in = polarization_pair(k.spatial)[pols[0] - 1].as_array()
    eps_out = polarization_pair(k_out.spatial)[pols[1] - 1].as_array().conj()
    eta_value = eta(p + k)
    f_in = coupling_factor(eta_value, k.t, NATURAL).value
    f_out = coupling_factor(eta_value, k_out.t, NATURAL).value
    table = {"1": (p + k, (eps_in, f_in), (eps_out, f_out)),
             "2": (p - k_out, (eps_out, f_out), (eps_in, f_in))}
    parts, closed, closed_scale, textbook, textbook_scale = [], 0.0, 0.0, 0.0, 0.0
    for tag in channels:
        q, (eps1, f1), (eps2, f2) = table[tag]
        e_q = on_shell_energy(q.spatial, 1.0)
        row = ubar(u_out) @ slash(eps2)
        col = slash(eps1) @ u_in
        for s in (1, 2):
            u_mid = u_spinor(q.spatial, s, 1.0, normalization).components
            v_mid = np.concatenate([-u_mid[2:], u_mid[:2]])
            scale1 = vertex_scale(f1, u_mid, u_in)
            scale2 = vertex_scale(f2, u_out, u_mid)
            # v_mid has the norm of u_mid
            parts.append((f"{tag}a:s={s}", f1 * complex(ubar(u_mid) @ col), scale1,
                          f2 * complex(row @ u_mid), scale2, q.t - e_q))
            parts.append((f"{tag}b:s={s}", -f2 * complex(row @ v_mid), scale2,
                          f1 * complex(ubar(v_mid) @ col), scale1, -(q.t + e_q)))
        q2 = minkowski_dot(q, q) - 1.0
        bare = complex(row @ (slash(q) + identity) @ col) / q2
        chain = vertex_scale(1.0, u_out, u_in) * (abs(q.t) + np.linalg.norm(q.spatial) + 1.0) / abs(q2)
        norm = e_q if normalization == "covariant" else 1.0
        closed += f1 * f2 * norm * bare
        closed_scale += f1 * f2 * norm * chain
        textbook += bare
        textbook_scale += chain
    return parts, (closed, closed_scale), (textbook, textbook_scale)


class TestCouplingFactor:
    def test_value(self):
        f = coupling_factor(0.8, 2.0, NATURAL)
        expected = NATURAL.e * 0.8 * math.sqrt(1.0 / 2.0)
        assert f.value == pytest.approx(expected, rel=1e-14)
        assert f.eta == 0.8 and f.energy == 2.0 and f.volume == 1.0

    def test_eta_range_enforced(self):
        with pytest.raises(OffShellInput):
            coupling_factor(1.5, 1.0, NATURAL)

    @pytest.mark.parametrize("eta_value, energy, message", [
        (1.5, 1.0, "eta must lie in"),
        (0.0, 1.0, "eta must lie in"),
        (0.5, 0.0, "coupling factor must be positive, got nan"),
        (0.5, -2.0, "coupling factor must be positive, got nan"),
        (0.5, math.nan, "coupling factor must be positive, got nan"),
    ])
    def test_prefactor_checks_eta_and_value(self, eta_value, energy, message):
        with pytest.raises(OffShellInput, match=message):
            coupling_prefactor(eta_value, energy, NATURAL)

    def test_prefactor_checks_the_coupling_scale_first(self):
        with pytest.raises(ConfigError, match="coupling scale"):
            coupling_prefactor(1.5, 0.0, Constants(e=1e200))
        with pytest.raises(OffShellInput, match="eta must lie in"):
            coupling_prefactor(1.5, 0.0, NATURAL)

    def test_prefactor_is_a_python_float(self):
        value = coupling_prefactor(np.float64(0.5), np.float64(2.0), NATURAL)
        assert type(value) is float
        assert value == coupling_prefactor(0.5, 2.0, NATURAL)

    def test_prefactor_matches_factor(self):
        etas, energies = [0.3, 0.8, 1.0], [0.5, 2.0, 7.0]
        values = [coupling_prefactor(a, b, NATURAL) for a, b in zip(etas, energies)]
        assert values == [coupling_factor(a, b, NATURAL).value for a, b in zip(etas, energies)]

    @pytest.mark.parametrize("overrides", [
        {"e": 1e200},
        {"e": 1e-200},
        {"V": 1e-300, "e": 1e150},
        {"V": 1e-200, "eps0": 1e-200},
        {"hbar": 1e-160},
    ])
    def test_unrepresentable_coupling_scale(self, overrides):
        with pytest.raises(ConfigError, match="coupling scale"):
            coupling_factor(1.0, 1.0, Constants(**overrides))

    def test_extreme_but_representable_volume(self):
        f = coupling_factor(1.0, 1.0, Constants(V=1e300))
        assert f.value == pytest.approx(NATURAL.e * 1e-150, rel=1e-14)


class TestComptonPairs:
    def test_two_path_equality_random(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            vectors, spins, pols = random_compton_case(rng)
            for pair in (compton_pair_A, compton_pair_B):
                for normalization in ("box", "covariant"):
                    result = pair(
                        *vectors, spins=spins, pols=pols, normalization=normalization
                    )
                    assert result.total == pytest.approx(
                        result.closed_form, rel=1e-10, abs=1e-14
                    )

    def test_eta_is_one_in_cm(self):
        vectors = compton_cm_kinematics(1.0, 1.1)
        result = compton_pair_A(*vectors)
        assert result.eta == pytest.approx(1.0, abs=1e-12)

    def test_crossed_ordering_sign(self):
        vectors = compton_cm_kinematics(1.0, 1.1)
        result = compton_pair_A(*vectors)
        q = vectors[0] + vectors[1]
        e_q = on_shell_energy(q.spatial, 1.0)
        for part in result.parts:
            if part.name.startswith("1b"):
                assert part.denom == pytest.approx(-(q.t + e_q), rel=1e-14)
                assert part.denom < 0.0

    def test_pair_b_intermediate_below_mass_shell(self):
        # backscatter: u-channel momentum is far off shell
        vectors = compton_cm_kinematics(1.0, 2.9)
        q = vectors[0] - vectors[3]
        assert minkowski_dot(q, q) < 1.0  # < m^2

    def test_crossing_maps_A_structure_onto_B(self):
        vectors = compton_cm_kinematics(0.9, 1.3)
        p, k, p_out, k_out = vectors
        result = compton_pair_B(*vectors, spins=(1, 2), pols=(2, 1))
        eps_out_conj = polarization_pair(k_out.spatial)[0].as_array().conj()
        q3 = (p - k_out).spatial
        # swapping (k, eps) <-> (k', eps'*) in the A-channel assembly: the
        # vertex on the incoming electron now carries the emitted photon
        factor = coupling_factor(result.eta, k_out.t, NATURAL)
        u_in = u_spinor(p.spatial, 1, 1.0)
        for part in result.parts:
            s = int(part.name.split("=")[1])
            u_mid = u_spinor(q3, s, 1.0)
            if part.name.startswith("2a"):
                expected = factor.value * vertex_bilinear(u_mid, eps_out_conj, u_in)
                assert part.omega1 == pytest.approx(expected, rel=1e-13)
            else:
                # crossed ordering: the pair state v(-q, s) = (-lower ; upper)
                # of u(q, s) meets the incoming electron at the same vertex
                upper, lower = u_mid.components[:2], u_mid.components[2:]
                v_mid = np.concatenate([-lower, upper])
                vbar = v_mid.conj() @ gamma_set()[0]
                expected = factor.value * complex(vbar @ slash(eps_out_conj) @ u_in.components)
                assert part.omega2 == pytest.approx(expected, rel=1e-13)

    def test_off_shell_input_rejected(self):
        p, k, p_out, k_out = compton_cm_kinematics(1.0, 1.0)
        bad = FourVector(p.t * 1.01, p.x, p.y, p.z)
        with pytest.raises(OffShellInput):
            compton_pair_A(bad, k, p_out, k_out)

    def test_nonconserving_input_rejected(self):
        # outgoing pair from a lower-energy collision: on shell individually
        # but the totals differ
        p, k, _, _ = compton_cm_kinematics(1.0, 1.0)
        other = compton_cm_kinematics(0.9, 1.0)
        with pytest.raises(OffShellInput):
            compton_pair_A(p, k, other[2], other[3])


class TestComptonTotal:
    def test_total_is_sum_of_pairs(self):
        # the three entry points are views of one channel table: the total's
        # parts are the pair views' parts, and its closed form and textbook
        # value are the pair values summed in channel order
        cases = [(compton_cm_kinematics(1.0, 0.9), (1, 2), (2, 1))]
        rng = np.random.default_rng(7)
        for i in range(24):
            kinematics = compton_kinematics if i % 2 else compton_cm_kinematics
            energy = rng.uniform(0.2, 3.0)
            theta = rng.uniform(0.15, math.pi - 0.15)
            frame = random_boost(rng) if i % 4 >= 2 else None
            spins = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            pols = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            cases.append((kinematics(energy, theta, frame), spins, pols))
        for vectors, spins, pols in cases:
            for normalization in ("box", "covariant"):
                kwargs = {"spins": spins, "pols": pols, "normalization": normalization}
                total = compton_total(*vectors, **kwargs)
                pair_a = compton_pair_A(*vectors, **kwargs)
                pair_b = compton_pair_B(*vectors, **kwargs)
                assert total.parts == pair_a.parts + pair_b.parts
                assert total.closed_form == pair_a.closed_form + pair_b.closed_form
                assert total.textbook_total == pair_a.textbook_total + pair_b.textbook_total
                assert total.total == pytest.approx(pair_a.total + pair_b.total, rel=1e-13)

    def test_textbook_ratio_reported(self):
        vectors = compton_cm_kinematics(1.0, 1.2)
        result = compton_total(*vectors)
        assert result.textbook_total is not None
        assert result.textbook_ratio == pytest.approx(
            result.total / result.textbook_total, rel=1e-13
        )

    def test_forward_spin_flip_vanishes(self):
        # spin projection along the beam is conserved at theta = 0, so the
        # flip amplitude is identically zero in every part
        vectors = compton_cm_kinematics(0.8, 0.0)
        result = compton_total(*vectors, spins=(1, 2), pols=(1, 1))
        assert result.total == 0.0
        assert all(part.value == 0.0 for part in result.parts)

    def test_part_value_times_denom_is_product(self):
        vectors = compton_cm_kinematics(1.0, 1.0)
        result = compton_total(*vectors)
        for part in result.parts:
            assert part.value * part.denom == pytest.approx(
                part.omega1 * part.omega2, rel=1e-13, abs=1e-18
            )

    def test_channel_bookkeeping_invariant(self):
        # each (channel, spin) has one forward and one crossed ordering; summed
        # over the spin, the forward coupling products give the electron spin
        # sum (slash(q_on) + m) / (2 E_q) and the crossed ones the pair-state
        # sum, the same with qbar = (-E_q, q), fermion sign included
        vectors = compton_cm_kinematics(1.2, 0.8)
        p, k, p_out, k_out = vectors
        result = compton_total(*vectors, spins=(2, 1), pols=(1, 2))
        orderings = {}
        for part in result.parts:
            orderings.setdefault(part.name.replace("a:", ":").replace("b:", ":"), []).append(
                part.name
            )
        assert sorted(orderings) == ["1:s=1", "1:s=2", "2:s=1", "2:s=2"]
        for names in orderings.values():
            assert len(names) == 2
        eps = polarization_pair(k.spatial)[0].as_array()
        eps_out_conj = polarization_pair(k_out.spatial)[1].as_array().conj()
        f = coupling_factor(result.eta, k.t, NATURAL).value
        f_out = coupling_factor(result.eta, k_out.t, NATURAL).value
        ubar_out = u_spinor(p_out.spatial, 1, 1.0).components.conj() @ gamma_set()[0]
        u_in = u_spinor(p.spatial, 2, 1.0).components
        for tag, q, eps1, eps2 in (
            ("1", p + k, eps, eps_out_conj),
            ("2", p - k_out, eps_out_conj, eps),
        ):
            e_q = on_shell_energy(q.spatial, 1.0)
            for ordering, energy in (("a", e_q), ("b", -e_q)):
                mid = FourVector.from_spatial(energy, q.spatial)
                expected = f * f_out * complex(
                    ubar_out @ slash(eps2) @ (slash(mid) + np.eye(4)) @ slash(eps1) @ u_in
                ) / (2.0 * e_q)
                summed = sum(
                    part.omega1 * part.omega2
                    for part in result.parts
                    if part.name.startswith(tag + ordering)
                )
                assert summed == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("frame", [None, Boost((0.35, -0.4, 0.25))])
    def test_textbook_ratio_is_photon_prefactor_product(self, frame):
        # each vertex carries the prefactor of its own photon, and the two
        # orderings of a channel sum to the covariant propagator, so the
        # ratio to the prefactor-free textbook amplitude is f(omega) f(omega')
        for theta in (0.3, 1.4, 2.7):
            p, k, p_out, k_out = compton_cm_kinematics(1.0, theta, frame)
            result = compton_total(p, k, p_out, k_out)
            expected = (
                coupling_factor(result.eta, k.t, NATURAL).value
                * coupling_factor(result.eta, k_out.t, NATURAL).value
            )
            assert result.textbook_ratio == pytest.approx(expected, rel=1e-12)

    def test_parts_match_per_spin_loop(self):
        # the explicit construction the block contractions replace: per
        # intermediate spin one u_spinor, its pair state and their adjoints;
        # each omega agrees to 1e-13 of its vertex scale
        rng = np.random.default_rng(44)
        for _ in range(40):
            (p, k, p_out, k_out), spins, pols = random_compton_case(rng)
            for normalization in ("box", "covariant"):
                result = compton_total(
                    p, k, p_out, k_out, spins=spins, pols=pols, normalization=normalization
                )
                expected, _, _ = gamma_compton_reference(p, k, p_out, k_out, spins, pols,
                                                         normalization)
                assert [part.name for part in result.parts] == [e[0] for e in expected]
                for part, (_, omega1, scale1, omega2, scale2, denom) in zip(
                    result.parts, expected
                ):
                    assert part.weight == 1.0
                    assert part.denom == denom
                    assert abs(part.omega1 - omega1) <= 1e-13 * scale1
                    assert abs(part.omega2 - omega2) <= 1e-13 * scale2

    def test_json_document_shape(self):
        vectors = compton_cm_kinematics(1.0, 1.0)
        doc = compton_total(*vectors, frame=Boost.along_z(0.0)).to_json_dict()
        assert doc["process"] == "compton"
        assert set(doc["frame"]) == {"beta"}
        assert len(doc["parts"]) == 8
        for key in ("name", "omega1", "omega2", "denom", "weight", "value"):
            assert key in doc["parts"][0]
        assert isinstance(doc["total"], list) and len(doc["total"]) == 2


class TestMollerTotal:
    def test_two_path_equality_random(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            e_cm = rng.uniform(2.5, 8.0)
            theta = rng.uniform(0.15, math.pi - 0.15)
            frame = random_boost(rng) if rng.random() < 0.5 else None
            spins = tuple(int(rng.integers(1, 3)) for _ in range(4))
            vectors = moller_kinematics(e_cm, theta, frame)
            result = moller_total(*vectors, spins=spins)
            assert result.total == pytest.approx(result.closed_form, rel=1e-10, abs=1e-14)

    def test_currents_match_bilinear_loops(self):
        # the explicit vertex_bilinear loops the per-line currents replace;
        # each omega agrees to 1e-13 of its vertex scale, the textbook total
        # to 1e-13 of the sum of its metric terms
        rng = np.random.default_rng(45)
        for _ in range(40):
            e_cm = rng.uniform(2.5, 8.0)
            theta = rng.uniform(0.15, math.pi - 0.15)
            spins = tuple(int(rng.integers(1, 3)) for _ in range(4))
            p1, q1, p2, q2 = moller_kinematics(e_cm, theta, random_boost(rng))
            for normalization in ("box", "covariant"):
                result = moller_total(p1, q1, p2, q2, spins=spins, normalization=normalization)
                u_p1, u_q1, u_p2, u_q2 = (
                    u_spinor(v.spatial, s, 1.0, normalization)
                    for v, s in zip((p1, q1, p2, q2), spins)
                )
                k = p1 - p2
                f = coupling_factor(result.eta, float(np.linalg.norm(k.spatial)), NATURAL).value
                beam_scale = vertex_scale(f, u_p2.components, u_p1.components)
                target_scale = vertex_scale(f, u_q2.components, u_q1.components)
                for alpha, pol in enumerate(polarization_pair(k.spatial), start=1):
                    eps = pol.as_array()
                    beam = f * vertex_bilinear(u_p2, eps.conj(), u_p1)
                    target = f * vertex_bilinear(u_q2, eps, u_q1)
                    emit_beam, emit_target = result.parts[2 * alpha - 2 : 2 * alpha]
                    assert emit_beam.name == f"emit-beam:pol={alpha}"
                    assert emit_target.name == f"emit-target:pol={alpha}"
                    assert abs(emit_beam.omega1 - beam) <= 1e-13 * beam_scale
                    assert abs(emit_beam.omega2 - target) <= 1e-13 * target_scale
                    assert abs(emit_target.omega1 - target) <= 1e-13 * target_scale
                    assert abs(emit_target.omega2 - beam) <= 1e-13 * beam_scale
                textbook = 0.0 + 0.0j
                terms = 0.0
                for mu, sign in ((0, 1.0), (1, -1.0), (2, -1.0), (3, -1.0)):
                    basis = np.eye(4)[mu]
                    term = vertex_bilinear(u_p2, basis, u_p1) * vertex_bilinear(u_q2, basis, u_q1)
                    textbook += sign * term
                    terms += abs(term)
                transfer2 = minkowski_dot(k, k)
                assert abs(result.textbook_total - textbook / transfer2) <= 1e-13 * terms / abs(
                    transfer2
                )

    def test_per_polarization_identity(self):
        vectors = moller_kinematics(4.0, 1.0)
        result = moller_total(*vectors, spins=(1, 2, 1, 2))
        k = vectors[0] - vectors[2]
        e_k = float(np.linalg.norm(k.spatial))
        by_pol = {}
        for part in result.parts:
            by_pol.setdefault(part.name.split("=")[1], []).append(part)
        for parts in by_pol.values():
            omega_product = parts[0].omega1 * parts[0].omega2
            summed = sum(p.value for p in parts)
            check = e_k * omega_product / (k.t**2 - e_k**2)
            assert summed == pytest.approx(check, rel=1e-10, abs=1e-16)
            for p in parts:
                assert p.weight == 0.5
                assert p.value * p.denom == pytest.approx(
                    p.weight * p.omega1 * p.omega2, rel=1e-13, abs=1e-20
                )

    def test_denominator_identity(self):
        for theta in (0.4, 1.0, 2.2):
            p1, q1, p2, q2 = moller_kinematics(4.0, theta)
            k = p1 - p2
            e_k = float(np.linalg.norm(k.spatial))
            lhs = k.t * k.t - e_k * e_k
            rhs = minkowski_dot(k, k)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_forward_divergence(self):
        magnitudes = []
        for theta in (0.4, 0.2, 0.1, 0.05):
            vectors = moller_kinematics(4.0, theta)
            magnitudes.append(abs(moller_total(*vectors, spins=(1, 2, 1, 2)).total))
        assert all(b > a for a, b in zip(magnitudes, magnitudes[1:]))

    def test_forward_singularity(self):
        vectors = moller_kinematics(4.0, 0.0)
        with pytest.raises(ForwardSingularity):
            moller_total(*vectors)

    def test_eta_in_cm(self):
        vectors = moller_kinematics(4.0, 1.0)
        assert moller_total(*vectors).eta == pytest.approx(1.0, abs=1e-12)

    def test_off_shell_rejected(self):
        p1, q1, p2, q2 = moller_kinematics(4.0, 1.0)
        with pytest.raises(OffShellInput):
            moller_total(FourVector(p1.t + 0.1, p1.x, p1.y, p1.z), q1, p2, q2)


class TestBoostScan:
    def test_beta_zero_row(self):
        table = boost_scan("compton", [0.0])
        row = table.rows[0]
        assert row.ratio_to_cm == 1.0
        assert row.eta == pytest.approx(1.0, abs=1e-12)
        assert row.inverse_gamma == 1.0

    def test_eta_column_equals_inverse_gamma(self):
        betas = np.arange(0.0, 0.95, 0.1)
        for process in ("compton", "moller"):
            table = boost_scan(process, betas, spins=(1, 2, 1, 2) if process == "moller" else (1, 1))
            for row in table.rows:
                assert abs(row.eta - row.inverse_gamma) < 1e-12

    def test_inverse_gamma_is_the_volume_contraction(self, monkeypatch):
        # b ** 2 calls C pow, which for some b rounds otherwise than b * b
        beta = next((b for b in np.linspace(0.1, 0.9, 100001).tolist()
                     if math.sqrt(1.0 - b ** 2) != math.sqrt(1.0 - b * b)), None)
        if beta is None:
            pytest.skip("pow rounds b ** 2 as b * b on this platform")
        volumes = []
        with_volume = Constants.with_volume
        monkeypatch.setattr(
            Constants, "with_volume",
            lambda self, volume: volumes.append(volume) or with_volume(self, volume),
        )
        for process, spins in (("compton", None), ("moller", (1, 2, 1, 2))):
            row = boost_scan(process, [beta], spins=spins).rows[0]
            assert row.inverse_gamma == math.sqrt(1.0 - beta * beta)
            assert volumes[-1] == NATURAL.V * row.inverse_gamma

    def test_five_columns_in_order(self):
        table = boost_scan("moller", [0.0, 0.5], spins=(1, 2, 1, 2))
        assert table.COLUMNS == ("beta", "eta", "amp_abs", "ratio_to_cm", "inverse_gamma")
        assert table.rows[0].as_tuple()[0] == 0.0
        import io

        buf = io.StringIO()
        table.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("# process=moller normalization=box")
        assert lines[1] == "beta,eta,amp_abs,ratio_to_cm,inverse_gamma"
        assert len(lines) == 4

    def test_normalization_changes_only_amplitude_columns(self):
        betas = [0.0, 0.4, 0.8]
        box = boost_scan("compton", betas, normalization="box")
        cov = boost_scan("compton", betas, normalization="covariant")
        for row_box, row_cov in zip(box.rows, cov.rows):
            assert row_box.eta == pytest.approx(row_cov.eta, abs=1e-15)
            assert row_box.inverse_gamma == row_cov.inverse_gamma
        amps_differ = any(
            abs(rb.amplitude_abs - rc.amplitude_abs) > 1e-12
            for rb, rc in zip(box.rows[1:], cov.rows[1:])
        )
        assert amps_differ

    def test_unknown_process(self):
        with pytest.raises(ValueError):
            boost_scan("bhabha", [0.0])

    def test_vanishing_reference_is_physics_domain(self):
        # backscattered Moller with every spin 1 has a zero amplitude
        with pytest.raises(ZeroReference, match="vanishes at beta=0"):
            boost_scan("moller", [0.0, 0.5], theta=math.pi)

    def test_one_shot_index_iterables(self):
        # the reference frame must not use up a generator of indices
        expected = boost_scan("compton", [0.0, 0.5], spins=(2, 1), pols=(1, 2)).rows
        scan = boost_scan("compton", [0.0, 0.5], spins=(s for s in (2, 1)),
                          pols=(p for p in (1, 2)))
        assert scan.rows == expected

    @pytest.mark.parametrize("beta", [1.0, -1.0, 1.5, math.inf, -math.inf],
                             ids=["1", "-1", "1.5", "inf", "-inf"])
    @pytest.mark.parametrize("process", ["compton", "moller"])
    def test_superluminal_beta_named_before_any_evaluation(self, process, beta, monkeypatch):
        # every boost is built before the reference, so no volume is contracted first
        volumes = []
        with_volume = Constants.with_volume
        monkeypatch.setattr(
            Constants, "with_volume",
            lambda self, volume: volumes.append(volume) or with_volume(self, volume),
        )
        with pytest.raises(SuperluminalBoost, match=r"\|beta\| >= 1"):
            boost_scan(process, [0.0, 0.5, beta])
        assert volumes == []

    @pytest.mark.parametrize("process", ["compton", "moller"])
    def test_nan_beta_is_config_error_naming_beta(self, process):
        with pytest.raises(ConfigError, match="beta must not hold NaN"):
            boost_scan(process, [0.5, math.nan])

    def test_wrong_spin_count(self):
        with pytest.raises(ValueError):
            boost_scan("compton", [0.0], spins=(2, 2, 2, 2))
        with pytest.raises(ValueError):
            boost_scan("moller", [0.0], spins=(1, 2))
        default = boost_scan("moller", [0.0, 0.5])
        explicit = boost_scan("moller", [0.0, 0.5], spins=(1, 1, 1, 1))
        assert default.rows == explicit.rows


def klein_nishina_sum(p, k, k_out, m=1.0):
    """Summed |M|^2 of Peskin & Schroeder (5.87) at e = 1, over (2m)^2 for ubar u = 1."""
    pk, pk_out = minkowski_dot(p, k), minkowski_dot(p, k_out)
    d = 1.0 / pk - 1.0 / pk_out
    return 8.0 * (pk_out / pk + pk / pk_out + 2.0 * m * m * d + m**4 * d * d) / (2.0 * m) ** 2


class TestKleinNishinaOracle:
    @pytest.mark.parametrize("vectors", [
        compton_kinematics(1.3, 1.1),
        compton_kinematics(1.3, 1.1, Boost((0.3, -0.4, 0.5))),
        compton_cm_kinematics(1.3, 1.1, Boost.along_z(0.9)),
        compton_kinematics(0.05, 2.9),
    ], ids=["rest", "rest-boosted", "zero-momentum-boosted", "soft-backward"])
    def test_textbook_total_spin_sum(self, vectors):
        p, k, _, k_out = vectors
        summed = sum(
            abs(compton_total(*vectors, spins=(s, s_out), pols=(a, a_out),
                              normalization="covariant").textbook_total) ** 2
            for s in (1, 2) for s_out in (1, 2) for a in (1, 2) for a_out in (1, 2)
        )
        expected = klein_nishina_sum(p, k, k_out)
        assert abs(summed - expected) / expected < 1e-13


class TestPoleGuard:
    def test_corrected_amplitude_pole_reachable(self, monkeypatch):
        from qlambda import vacuum

        monkeypatch.setattr(vacuum, "CORRECTION_GUARD", 10.0)
        vectors = moller_kinematics(4.0, 1.0)
        base = moller_total(*vectors, spins=(1, 2, 1, 2))
        denom = min(abs(p.denom) for p in base.parts)
        with pytest.raises(PoleEncountered):
            vacuum.corrected_amplitude(*vectors, pair_shift=-denom, spins=(1, 2, 1, 2))


def _shifted(v, dt=0.0, dx=0.0, dy=0.0, dz=0.0):
    return FourVector(v.t + dt, v.x + dx, v.y + dy, v.z + dz)


def _guard_cases():
    c = compton_cm_kinematics(1.3, 1.1)
    cb = compton_kinematics(0.8, 2.0, Boost((0.3, -0.2, 0.5)))
    c_energy = compton_cm_kinematics(1.3 + 1e-6, 1.1)
    c_angle = compton_cm_kinematics(1.3, 1.1 + 1e-3)
    m = moller_kinematics(4.0, 1.1)
    mb = moller_kinematics(3.0, 0.7, Boost((-0.4, 0.1, 0.6)))
    m_energy = moller_kinematics(4.0 + 1e-5, 1.1)
    m_angle = moller_kinematics(4.0, 1.2)
    return [
        (compton_total, (_shifted(c[0], dt=1e-3), *c[1:]),
         "incoming electron off shell: |p.p - m^2| = 3.281e-03"),
        (compton_total, (c[0], _shifted(c[1], dx=1e-4), *c[2:]),
         "incoming photon off shell: |p.p - m^2| = 1.000e-08"),
        (compton_total, (*c[:2], _shifted(c[2], dz=0.2), c[3]),
         "outgoing electron off shell: |p.p - m^2| = 1.959e-01"),
        (compton_total, (*c[:3], _shifted(c[3], dt=-5e-3)),
         "outgoing photon off shell: |p.p - m^2| = 1.297e-02"),
        (compton_total, (*cb[:3], _shifted(cb[3], dy=1e-6)),
         "outgoing photon off shell: |p.p - m^2| = 1.974e-07"),
        (compton_total, (*c[:2], *c_energy[2:]),
         "four-momentum not conserved: residual 1.793e-06"),
        (compton_total, (c[0], c[1], c_angle[2], c[3]),
         "four-momentum not conserved: residual 1.159e-03"),
        (moller_total, (_shifted(m[0], dt=1e-3), *m[1:]),
         "beam electron off shell: |p.p - m^2| = 4.001e-03"),
        (moller_total, (m[0], _shifted(m[1], dz=-1e-2), *m[2:]),
         "target electron off shell: |p.p - m^2| = 3.474e-02"),
        (moller_total, (*m[:2], _shifted(m[2], dx=3e-5), m[3]),
         "scattered beam electron off shell: |p.p - m^2| = 9.262e-05"),
        (moller_total, (*mb[:3], _shifted(mb[3], dt=1e-4)),
         "scattered target electron off shell: |p.p - m^2| = 3.720e-04"),
        (moller_total, (*m[:2], *m_energy[2:]),
         "four-momentum not conserved: residual 1.000e-05"),
        (moller_total, (m[0], m[1], m_angle[2], m[3]),
         "four-momentum not conserved: residual 1.580e-01"),
    ]


class TestProcessGuards:
    """The float guards keep the class and text of every on-shell and conservation error."""

    @pytest.mark.parametrize("index", range(13))
    def test_off_shell_and_conservation_messages(self, index):
        fn, vectors, message = _guard_cases()[index]
        with pytest.raises(OffShellInput) as caught:
            fn(*vectors)
        assert str(caught.value) == message

    @pytest.mark.parametrize("vectors", [
        compton_kinematics(1e200, 1.0),  # finite components whose squares overflow
        (FourVector(math.inf, 0.0, 0.0, 0.0),) + compton_cm_kinematics(1.0, 1.0)[1:],
        (FourVector(math.nan, 0.0, 0.0, 0.0),) + compton_cm_kinematics(1.0, 1.0)[1:],
    ])
    def test_overflowed_kinematics_rejected(self, vectors):
        with pytest.raises(OffShellInput, match="kinematics overflowed"):
            compton_total(*vectors)

    @pytest.mark.parametrize("fn, spins, bad", [
        (compton_total, (0, 1), 0),
        (compton_total, (1, 3), 3),
        (compton_pair_A, (3, 1), 3),
        (compton_pair_B, (1, 0), 0),
        (moller_total, (0, 1, 1, 1), 0),
        (moller_total, (1, 1, 3, 1), 3),
        (moller_total, (1, 1, 1, 0), 0),
    ])
    def test_bad_spin_index_message(self, fn, spins, bad):
        maker = moller_kinematics if fn is moller_total else compton_cm_kinematics
        vectors = maker(4.0 if fn is moller_total else 1.0, 1.0)
        with pytest.raises(ValueError) as caught:
            fn(*vectors, spins=spins)
        assert str(caught.value) == f"spin index must be 1 or 2, got {bad}"

    @pytest.mark.parametrize("fn, pols, bad", [
        (compton_total, (0, 1), 0),
        (compton_total, (-1, 1), -1),
        (compton_total, (3, 1), 3),
        (compton_pair_A, (1, 0), 0),
        (compton_pair_B, (1, 3), 3),
    ])
    def test_bad_polarization_index_message(self, fn, pols, bad):
        with pytest.raises(ValueError) as caught:
            fn(*compton_cm_kinematics(1.0, 1.0), pols=pols)
        assert str(caught.value) == f"polarization index must be 1 or 2, got {bad}"

    @pytest.mark.parametrize("pols", [(0, 1), (-1, 1), (1, 3)])
    def test_boost_scan_bad_polarization_index(self, pols):
        with pytest.raises(ValueError, match="polarization index must be 1 or 2"):
            boost_scan("compton", [0.0, 0.5], pols=pols)

    @pytest.mark.parametrize("index", range(8))
    def test_first_of_two_faults(self, index):
        # with two faults the guard order decides: non-finite or overflowing
        # components, then on-shell in label order, then conservation
        c = compton_cm_kinematics(1.3, 1.1)
        c_energy = compton_cm_kinematics(1.3 + 1e-6, 1.1)
        m = moller_kinematics(4.0, 1.1)
        m_energy = moller_kinematics(4.0 + 1e-5, 1.1)
        overflowed = ("kinematics overflowed: a momentum component or its square "
                      "is not a finite float")
        fn, vectors, message = [
            (compton_total, (_shifted(c[0], dt=1e-3), *c[1:3],
                             FourVector(math.nan, 0.0, 0.0, 1.0)), overflowed),
            (compton_total, (_shifted(c[0], dt=1e-3), FourVector(c[1].t, math.inf, 0.0, 0.0),
                             *c[2:]), overflowed),
            (compton_total, (c[0], _shifted(c[1], dx=1e-4), *c_energy[2:]),
             "incoming photon off shell: |p.p - m^2| = 1.000e-08"),
            (compton_total, (*c[:2], _shifted(c[2], dz=0.2), _shifted(c[3], dt=-5e-3)),
             "outgoing electron off shell: |p.p - m^2| = 1.959e-01"),
            (compton_total, (c[0], _shifted(c[1], dx=1e-4), _shifted(c[2], dz=0.2), c[3]),
             "incoming photon off shell: |p.p - m^2| = 1.000e-08"),
            (moller_total, (*m[:2], m_energy[2], _shifted(m_energy[3], dt=1e-4)),
             "scattered target electron off shell: |p.p - m^2| = 4.000e-04"),
            (moller_total, (m[0], _shifted(m[1], dz=-1e-2), _shifted(m[2], dx=3e-5), m[3]),
             "target electron off shell: |p.p - m^2| = 3.474e-02"),
            (moller_total, (FourVector(1e200, 0.0, 0.0, 1e200), _shifted(m[1], dz=-1e-2), *m[2:]),
             overflowed),
        ][index]
        with pytest.raises(OffShellInput) as caught:
            fn(*vectors)
        assert str(caught.value) == message

    def test_pole_message_shows_plain_float(self):
        vectors = compton_cm_kinematics(1.0, math.pi / 3.0, Boost.along_z(0.9999999999999999))
        with pytest.raises(PoleEncountered) as caught:
            compton_total(*vectors)
        assert "np.float64(" not in str(caught.value)
        assert "energy denominator 2.98" in str(caught.value)


def oblique_cases(seed, n=50):
    """n seeded generators with boosts of random direction and |beta| up to 0.9."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield rng, random_boost(rng, bmax=0.9)


class TestPauliBlocksAgainstGammaMatrices:
    """The scalar Pauli-block vertices against a gamma-matrix reference kept here."""

    def test_compton_parts_closed_form_and_textbook(self):
        for rng, frame in oblique_cases(61):
            vectors = compton_cm_kinematics(rng.uniform(0.2, 3.0),
                                            rng.uniform(0.15, math.pi - 0.15), frame)
            for normalization in ("box", "covariant"):
                for spins in ((1, 1), (1, 2), (2, 1), (2, 2)):
                    for pols in ((1, 1), (1, 2), (2, 1), (2, 2)):
                        result = compton_total(*vectors, spins=spins, pols=pols,
                                               normalization=normalization)
                        parts, (closed, c_scale), (textbook, t_scale) = gamma_compton_reference(
                            *vectors, spins, pols, normalization)
                        assert [part.name for part in result.parts] == [e[0] for e in parts]
                        for part, (_, omega1, scale1, omega2, scale2, _) in zip(result.parts, parts):
                            assert abs(part.omega1 - omega1) <= 1e-12 * scale1
                            assert abs(part.omega2 - omega2) <= 1e-12 * scale2
                        assert abs(result.closed_form - closed) <= 1e-12 * c_scale
                        assert abs(result.textbook_total - textbook) <= 1e-12 * t_scale

    def test_compton_pair_views(self):
        for rng, frame in oblique_cases(62, n=20):
            vectors = compton_cm_kinematics(rng.uniform(0.2, 3.0),
                                            rng.uniform(0.15, math.pi - 0.15), frame)
            spins = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            pols = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            for fn, tag in ((compton_pair_A, "1"), (compton_pair_B, "2")):
                for normalization in ("box", "covariant"):
                    result = fn(*vectors, spins=spins, pols=pols, normalization=normalization)
                    _, (closed, c_scale), (textbook, t_scale) = gamma_compton_reference(
                        *vectors, spins, pols, normalization, channels=(tag,))
                    assert abs(result.closed_form - closed) <= 1e-12 * c_scale
                    assert abs(result.textbook_total - textbook) <= 1e-12 * t_scale

    def test_moller_currents_and_textbook(self):
        g = gamma_set()
        for rng, frame in oblique_cases(63):
            p1, q1, p2, q2 = moller_kinematics(rng.uniform(2.5, 8.0),
                                               rng.uniform(0.15, math.pi - 0.15), frame)
            k = p1 - p2
            for normalization in ("box", "covariant"):
                for spins in np.ndindex(2, 2, 2, 2):
                    spins = tuple(int(s) + 1 for s in spins)
                    result = moller_total(p1, q1, p2, q2, spins=spins,
                                          normalization=normalization)
                    u_p1, u_q1, u_p2, u_q2 = (
                        u_spinor(v.spatial, s, 1.0, normalization).components
                        for v, s in zip((p1, q1, p2, q2), spins)
                    )
                    j_beam = np.array([ubar(u_p2) @ g[mu] @ u_p1 for mu in range(4)])
                    j_target = np.array([ubar(u_q2) @ g[mu] @ u_q1 for mu in range(4)])
                    f = coupling_factor(result.eta, float(np.linalg.norm(k.spatial)), NATURAL).value
                    beam_scale = vertex_scale(f, u_p2, u_p1)
                    target_scale = vertex_scale(f, u_q2, u_q1)
                    for alpha, pol in enumerate(polarization_pair(k.spatial), start=1):
                        eps = pol.as_array()
                        beam = f * (np.conj(eps) @ np.diag([1.0, -1.0, -1.0, -1.0]) @ j_beam)
                        target = f * (eps @ np.diag([1.0, -1.0, -1.0, -1.0]) @ j_target)
                        emit_beam = result.parts[2 * alpha - 2]
                        assert abs(emit_beam.omega1 - beam) <= 1e-12 * beam_scale
                        assert abs(emit_beam.omega2 - target) <= 1e-12 * target_scale
                    textbook = (j_beam[0] * j_target[0] - j_beam[1:] @ j_target[1:]) / minkowski_dot(k, k)
                    scale = beam_scale * target_scale / f**2 * 4.0 / abs(minkowski_dot(k, k))
                    assert abs(result.textbook_total - textbook) <= 1e-12 * scale


# every scalar subcommand: both frames, boosted kinematics and both boost-scan processes
SCALAR_COMMANDS = {
    "compton_cm.json": ["compton"],
    "compton_rest.json": ["compton", "--frame", "rest", "--spins", "2", "1"],
    "compton_boosted.json": ["compton", "--beta", "0.4", "--pols", "2", "1"],
    "compton_rest_boosted.csv": ["compton", "--frame", "rest", "--beta", "-0.3",
                                 "--format", "csv"],
    "moller.json": ["moller", "--spins", "1", "2", "1", "2"],
    "moller_boosted.json": ["moller", "--beta", "0.6", "--theta", "2.0"],
    "scan_compton.csv": ["boost-scan", "--process", "compton"],
    "scan_moller.csv": ["boost-scan", "--process", "moller", "--normalization", "covariant"],
}

NO_NUMPY_SCRIPT = """
import json, sys
from qlambda.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    print(json.dumps([argv[0], code, "numpy" in sys.modules]))
"""


def test_amplitude_calls_use_no_numpy_arrays(tmp_path):
    # a fresh interpreter runs every scalar subcommand without importing numpy,
    # and writes the same bytes as the same argv run here, with numpy loaded
    import qlambda
    from qlambda.cli import main

    fresh, here = tmp_path / "fresh", tmp_path / "here"
    fresh.mkdir()
    here.mkdir()
    argvs = [[*argv, "--out", str(fresh / name)] for name, argv in SCALAR_COMMANDS.items()]
    env = dict(os.environ, PYTHONPATH=str(Path(qlambda.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert runs == [[argv[0], 0, False] for argv in argvs]
    assert "numpy" in sys.modules
    for name, argv in SCALAR_COMMANDS.items():
        assert main([*argv, "--out", str(here / name)]) == 0
        assert (fresh / name).read_bytes() == (here / name).read_bytes(), name


STARTUP_SCRIPT = """
import json, sys
bare = set(sys.modules)  # the interpreter's own start-up modules, and json
from qlambda.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps(sorted(set(sys.modules) - bare)))
"""


def test_scalar_commands_load_no_dataclasses_or_inspect(tmp_path):
    # the value types are namedtuple records: a fresh interpreter runs every
    # scalar subcommand without adding dataclasses or inspect to the modules
    # a bare interpreter starts with
    import qlambda

    argvs = [[*argv, "--out", str(tmp_path / name)] for name, argv in SCALAR_COMMANDS.items()]
    env = dict(os.environ, PYTHONPATH=str(Path(qlambda.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(proc.stdout))
    assert {"qlambda.amplitudes", "argparse"} <= added
    assert not added & {"dataclasses", "inspect", "numpy"}, sorted(added)


class TestIntegerIndices:
    CM = compton_cm_kinematics(1.0, 1.0)
    MOLLER = moller_kinematics(4.0, 1.0)

    @pytest.mark.parametrize("call, message", [
        (lambda v, mv: compton_total(*v, spins=(True, 2)), "spin index must be 1 or 2, got True"),
        (lambda v, mv: compton_total(*v, spins=(1.0, 1)), "spin index must be 1 or 2, got 1.0"),
        (lambda v, mv: compton_total(*v, pols=(2.0, 1)),
         "polarization index must be 1 or 2, got 2.0"),
        (lambda v, mv: compton_pair_A(*v, pols=(1, True)),
         "polarization index must be 1 or 2, got True"),
        (lambda v, mv: compton_pair_B(*v, spins=(1, 2.0)), "spin index must be 1 or 2, got 2.0"),
        (lambda v, mv: moller_total(*mv, spins=(1, 1, 1, 2.0)),
         "spin index must be 1 or 2, got 2.0"),
        (lambda v, mv: moller_total(*mv, spins=(False, 1, 1, 1)),
         "spin index must be 1 or 2, got False"),
        (lambda v, mv: boost_scan("compton", [0.0, 0.5], spins=(True, 1)),
         "spin index must be 1 or 2, got True"),
        (lambda v, mv: boost_scan("compton", [0.0, 0.5], pols=(1.0, 1)),
         "polarization index must be 1 or 2, got 1.0"),
        (lambda v, mv: boost_scan("moller", [0.0, 0.5], spins=(1, 1, 1, 2.0)),
         "spin index must be 1 or 2, got 2.0"),
    ])
    def test_bool_and_float_indices_rejected(self, call, message):
        with pytest.raises(ValueError) as caught:
            call(self.CM, self.MOLLER)
        assert str(caught.value) == message

    def test_numpy_integers_accepted(self):
        spins, pols = (np.int64(2), np.int32(1)), (np.int8(2), np.uint16(1))
        for fn in (compton_pair_A, compton_pair_B, compton_total):
            assert (fn(*self.CM, spins=spins, pols=pols).total
                    == fn(*self.CM, spins=(2, 1), pols=(2, 1)).total)
        m_spins = tuple(np.int64(s) for s in (1, 2, 2, 1))
        assert (moller_total(*self.MOLLER, spins=m_spins).total
                == moller_total(*self.MOLLER, spins=(1, 2, 2, 1)).total)
        scan = boost_scan("compton", [0.0, 0.5], spins=spins, pols=pols)
        assert scan.rows == boost_scan("compton", [0.0, 0.5], spins=(2, 1), pols=(2, 1)).rows

    def test_wrong_number_of_moller_spins(self):
        for spins in ((1, 1, 1, 1, 1), (1, 2), (1, 1, 1), ()):
            with pytest.raises(ValueError) as caught:
                moller_total(*self.MOLLER, spins=spins)
            assert str(caught.value) == f"moller takes 4 spin indices, got {spins!r}"


MARGIN_KEYS = ["min_denominator", "on_shell_residual", "conservation_residual"]


class TestGuardMargins:
    @staticmethod
    def scale(vectors):
        return max(1.0, *(abs(c) for v in vectors for c in (v.t, v.x, v.y, v.z)))

    @pytest.mark.parametrize("frame", [None, Boost.along_z(0.6), Boost((0.3, -0.4, 0.5))])
    def test_default_kinematics_within_tolerances(self, frame):
        cases = [(fn, compton_cm_kinematics(1.0, math.pi / 3.0, frame))
                 for fn in (compton_pair_A, compton_pair_B, compton_total)]
        cases.append((moller_total, moller_kinematics(4.0, math.pi / 3.0, frame)))
        for fn, vectors in cases:
            result = fn(*vectors)
            margins = result.provenance["guard_margins"]
            assert list(margins) == MARGIN_KEYS
            assert all(type(value) is float for value in margins.values())
            assert margins["min_denominator"] >= _POLE_RTOL
            assert 0.0 <= margins["on_shell_residual"] <= _ONSHELL_RTOL
            assert 0.0 <= margins["conservation_residual"] <= _CONSERVATION_RTOL
            # the pole margin is the smallest guarded denominator in units of the scale
            smallest = min(abs(part.denom) for part in result.parts)
            assert margins["min_denominator"] == smallest / self.scale(vectors)

    def test_json_keys_extend_without_change(self):
        doc = moller_total(*moller_kinematics(4.0, 1.0)).to_json_dict()
        assert list(doc)[-3:] == ["transfer_squared", "photon_energy", "guard_margins"]
        assert list(doc["guard_margins"]) == MARGIN_KEYS
        doc = compton_total(*compton_cm_kinematics(1.0, 1.0)).to_json_dict()
        assert list(doc) == ["process", "frame", "eta", "parts", "total", "closed_form",
                             "textbook_ratio", "guard_margins"]

    def test_residuals_are_the_guarded_figures(self):
        # a small off-shell shift shows up in the margin, below the guard
        p, k, p_out, k_out = compton_cm_kinematics(1.0, 1.0)
        shifted = FourVector(p.t + 1e-11, p.x, p.y, p.z)
        moved = FourVector(p_out.t + 1e-11, p_out.x, p_out.y, p_out.z)
        result = compton_total(shifted, k, moved, k_out)
        margins = result.provenance["guard_margins"]
        scale = self.scale((shifted, k, moved, k_out))
        expected = max(abs(minkowski_dot(v, v) - m * m)
                       for v, m in ((shifted, 1.0), (k, 0.0), (moved, 1.0), (k_out, 0.0)))
        assert margins["on_shell_residual"] == expected / scale**2
        assert 1e-12 < margins["on_shell_residual"] <= _ONSHELL_RTOL


class TestCouplingPrefactorRange:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_volume_shift_density(self):
        # V eps0 E = 2e310 used to overflow before the reciprocal was taken
        from qlambda.vacuum import pair_shift_sample
        p3, k3 = (1e10, 0.0, 0.0), (0.0, 0.0, 0.5)
        reference = pair_shift_sample(p3, k3)
        for volume in (1e200, 1e250):
            value = pair_shift_sample(p3, k3, Constants(V=volume)).shift_density
            assert value < 0.0
            assert value == pytest.approx(reference.shift_density / volume, rel=1e-12)
        # at V = 1e300 the density, about -4.6e-342, rounds to zero; the
        # prefactor itself is a normal float
        sample = pair_shift_sample(p3, k3, Constants(V=1e300))
        assert sample.shift_density == 0.0
        energy = math.sqrt(1e20 + 1.0) + math.sqrt(1e20 + 0.25 + 1.0)
        prefactor = float(coupling_prefactor(sample.eta1, energy, Constants(V=1e300)))
        charge = NATURAL.e * NATURAL.c * NATURAL.hbar
        assert prefactor == pytest.approx(
            charge * sample.eta1 / math.sqrt(1e300) / math.sqrt(energy), rel=1e-13)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_volumes_and_energies_against_logs(self):
        volumes = [1e-300, 1e-150, 1.0, 1e150, 1e300]
        energies = [1e-300, 1e-10, 1.0, 1e10, 1e300]
        for volume in volumes:
            constants = Constants(V=volume)
            charge = constants.e * constants.c * constants.hbar
            for eta_value in (1.0, 1e-3):
                for energy in energies:
                    value = coupling_prefactor(eta_value, energy, constants)
                    log_value = (math.log(charge) + math.log(eta_value)
                                 - 0.5 * (math.log(volume) + math.log(energy)))
                    assert value == pytest.approx(math.exp(log_value), rel=1e-12)

    def test_default_constants_bit_identical(self):
        rng = np.random.default_rng(64)
        eta_values = rng.uniform(0.01, 1.0, 200)
        energies = rng.uniform(0.01, 50.0, 200)
        charge = NATURAL.e * NATURAL.c * NATURAL.hbar
        medium = NATURAL.V * NATURAL.eps0
        expected = charge * eta_values * np.sqrt(1.0 / (medium * energies))
        values = [coupling_prefactor(a, b, NATURAL)
                  for a, b in zip(eta_values.tolist(), energies.tolist())]
        assert values == expected.tolist()


def flipped_zeros(vectors):
    """The same momenta with every zero component negated: equal values, other zero signs."""
    return tuple(FourVector(*(-c if c == 0.0 else c for c in v)) for v in vectors)


def copies(vectors):
    """Fresh objects of equal values and bits: a call on them hits the last-call memo."""
    return tuple(FourVector(*v) for v in vectors)


UNRELATED_COMPTON = compton_cm_kinematics(0.37, 0.53)
UNRELATED_MOLLER = moller_kinematics(3.7, 0.53)


def fresh(fn, vectors, **kwargs):
    """fn on fresh copies of vectors right after an unrelated momentum set, so it misses."""
    compton_total(*UNRELATED_COMPTON)
    moller_total(*UNRELATED_MOLLER)
    return fn(*copies(vectors), **kwargs)


def count_calls(monkeypatch, *names):
    """Wrap the named amplitudes functions so that each call is counted; return the counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(amplitudes, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(amplitudes, name, counted)
    return counts


def fields(result):
    """Every field of a result as text: repr tells -0.0 from 0.0, in complex parts too."""
    return repr(tuple(result))


COMPTON_VIEWS = (compton_pair_A, compton_pair_B, compton_total)
INDEX_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))
MEMO_FRAMES = (None, Boost.along_z(0.6), Boost((0.3, -0.4, 0.5)))


class TestLastCallMemo:
    """Calls on the same momentum set, as the very objects or equal bits, reuse one table."""

    @pytest.mark.parametrize("normalization", ["box", "covariant"])
    @pytest.mark.parametrize("frame", MEMO_FRAMES)
    def test_hits_equal_fresh_evaluations(self, normalization, frame):
        # zero-momentum and boosted frames, and the rest frame with its exact zeros
        sets = [compton_cm_kinematics(1.3, 1.1, frame), compton_kinematics(0.7, 2.0, frame)]
        for vectors in sets:
            for spins in INDEX_PAIRS:
                for pols in INDEX_PAIRS:
                    kw = dict(spins=spins, pols=pols, normalization=normalization, frame=frame)
                    # each call on vectors finds the table of the fresh copies before
                    # it, with a channel that is built, reused or missing
                    for fn in COMPTON_VIEWS + COMPTON_VIEWS:
                        assert fields(fn(*vectors, **kw)) == fields(fresh(fn, vectors, **kw))
        mvectors = moller_kinematics(4.0, 1.1, frame)
        for spins in itertools.product((1, 2), repeat=4):
            kw = dict(spins=spins, normalization=normalization)
            first = moller_total(*mvectors, frame=frame, **kw)
            again = moller_total(*mvectors, frame=frame, **kw)
            missed = fresh(moller_total, mvectors, frame=frame, **kw)
            assert fields(first) == fields(again) == fields(missed)
            shift = -1e-4 * min(abs(part.denom) for part in missed.parts)
            hit = corrected_amplitude(*mvectors, pair_shift=shift, **kw)
            miss = fresh(corrected_amplitude, mvectors, pair_shift=shift, **kw)
            assert fields(hit.base) == fields(miss.base)
            assert repr(tuple(hit)[1:]) == repr(tuple(miss)[1:])

    def test_zero_signs_of_a_hit(self):
        # rest-frame spinors carry signed zeros; a hit keeps every one of them
        vectors = compton_kinematics(1.0, 0.0)
        for fn in COMPTON_VIEWS:
            hit = fn(*vectors)
            missed = fresh(fn, vectors)
            for part, expected in zip(hit.parts, missed.parts):
                for z, w in zip((part.omega1, part.omega2), (expected.omega1, expected.omega2)):
                    assert math.copysign(1.0, z.real) == math.copysign(1.0, w.real)
                    assert math.copysign(1.0, z.imag) == math.copysign(1.0, w.imag)
            assert fields(hit) == fields(missed)

    def test_flipped_zero_vectors_are_a_miss(self):
        # momenta equal in value but with other zero signs differ in bits, so
        # they are evaluated afresh, never served the stored spinors
        differs = []
        for vectors in (compton_kinematics(1.0, 0.0), compton_kinematics(0.8, 1.2)):
            flipped = flipped_zeros(vectors)
            assert flipped == vectors
            for fn in COMPTON_VIEWS:
                before = fields(fn(*vectors))
                after = fields(fn(*flipped))
                assert after == fields(fresh(fn, flipped))
                differs.append(after != before)
        # a value-keyed memo would have served the wrong zero signs here
        assert any(differs)

    def test_hit_rule(self, monkeypatch):
        # one _require_process call per index-free table built
        counts = count_calls(monkeypatch, "_require_process")
        compton = compton_kinematics(0.8, 1.2)  # the rest frame: exact zeros
        moller = moller_kinematics(4.0, 1.2)
        wider = Constants(V=2.0)

        def numpy_floats(vectors):
            return tuple(FourVector(*map(np.float64, v)) for v in vectors)

        def next_float(vectors):
            head, *rest = vectors
            return (FourVector(math.nextafter(head.t, math.inf), *head[1:]), *rest)

        variants = [  # (momenta, constants, normalization, tables built)
            (lambda v: v, NATURAL, "box", 0),  # the very objects
            (copies, NATURAL, "box", 0),  # equal bits
            (copies, Constants(), "box", 0),  # equal constants in a fresh object
            (flipped_zeros, NATURAL, "box", 1),  # equal values, other zero signs
            (numpy_floats, NATURAL, "box", 1),  # equal values, not Python floats
            (next_float, NATURAL, "box", 1),
            (copies, wider, "box", 1),
            (copies, Constants(V=1), "box", 1),  # equal values, an int constant
            (copies, NATURAL, "covariant", 1),
        ]
        processes = ((compton_total, compton, UNRELATED_COMPTON),
                     (moller_total, moller, UNRELATED_MOLLER))
        for transform, constants, normalization, built in variants:
            for fn, vectors, unrelated in processes:
                fn(*unrelated)
                fn(*vectors)
                before = counts["_require_process"]
                fn(*transform(vectors), constants=constants, normalization=normalization)
                assert counts["_require_process"] - before == built

    def test_sixteen_index_sets_build_one_table(self, monkeypatch):
        counts = count_calls(monkeypatch, "_require_process", "spin_pair", "transverse_basis")
        vectors = compton_cm_kinematics(1.3, 1.1, Boost((0.3, -0.4, 0.5)))
        for spins, pols in SPIN_POL_SETS:
            for fn in COMPTON_VIEWS:
                fn(*copies(vectors), spins=spins, pols=pols)
        # the spinor pairs of p, p_out and the two intermediate momenta
        assert counts == {"_require_process": 1, "spin_pair": 4, "transverse_basis": 2}
        mvectors = moller_kinematics(4.5, 0.9, Boost((0.3, -0.4, 0.5)))
        for spins in MOLLER_SPIN_SETS:
            moller_total(*copies(mvectors), spins=spins)
        assert counts == {"_require_process": 2, "spin_pair": 8, "transverse_basis": 3}

    def test_interleaved_calls_never_stale(self):
        # each set also with flipped zeros: equal values, other bits
        compton_sets = [compton_cm_kinematics(1.0, 1.0),
                        compton_kinematics(0.5, 2.0, Boost.along_z(0.4))]
        moller_sets = [moller_kinematics(4.0, 1.0), moller_kinematics(3.0, 2.0, Boost.along_z(0.4))]
        compton_sets += [flipped_zeros(vectors) for vectors in compton_sets]
        moller_sets += [flipped_zeros(vectors) for vectors in moller_sets]
        constants = [NATURAL, Constants(V=2.0)]
        norms = ["box", "covariant"]
        rng = np.random.default_rng(71)
        calls = []
        for _ in range(1200):
            i, c, norm = int(rng.integers(4)), int(rng.integers(2)), norms[rng.integers(2)]
            if rng.uniform() < 0.7:
                fn = COMPTON_VIEWS[rng.integers(3)]
                kw = {"spins": INDEX_PAIRS[rng.integers(4)], "pols": INDEX_PAIRS[rng.integers(4)]}
            else:
                fn, kw = moller_total, {"spins": MOLLER_SPIN_SETS[rng.integers(16)]}
            # the stored objects, or fresh copies of the momenta and the constants
            calls.append((fn, i, c, norm, tuple(kw.items()), bool(rng.integers(2))))

        def evaluate(call, vectors=None):
            fn, i, c, norm, kw, copied = call
            if vectors is None:
                vectors = (compton_sets if fn is not moller_total else moller_sets)[i]
                vectors = copies(vectors) if copied else vectors
            consts = Constants(*constants[c]) if copied else constants[c]
            return fields(fn(*vectors, constants=consts, normalization=norm, **dict(kw)))

        # each expected result is the first call on fresh copies after an unrelated set
        expected = {}
        for call in calls:
            key = call[:5]
            if key not in expected:
                fn, i = call[:2]
                sets = compton_sets if fn is not moller_total else moller_sets
                expected[key] = evaluate(call, fresh(lambda *vectors: vectors, sets[i]))
        for call in calls:
            assert evaluate(call) == expected[call[:5]]

    def test_setup_and_channels_computed_once(self, monkeypatch):
        counts = count_calls(monkeypatch, "_compton_setup", "_compton_channel", "_moller")
        vectors = compton_cm_kinematics(1.0, 0.9, Boost.along_z(0.3))
        for fn in COMPTON_VIEWS:
            fn(*vectors, spins=(2, 1), pols=(1, 2))
        assert list(counts.values()) == [1, 2, 0]
        # equal bits hit, with the rows of the last index set
        compton_total(*copies(vectors), spins=(2, 1), pols=(1, 2))
        assert list(counts.values()) == [1, 2, 0]
        # other indices build rows from the stored table
        compton_total(*copies(vectors), spins=(1, 1), pols=(1, 2))
        assert list(counts.values()) == [1, 4, 0]
        # a true miss builds everything again
        compton_total(*flipped_zeros(vectors), spins=(1, 1), pols=(1, 2))
        assert list(counts.values()) == [2, 6, 0]
        mvectors = moller_kinematics(4.0, 0.9)
        base = moller_total(*mvectors)
        corrected_amplitude(*mvectors, pair_shift=-1e-4 * min(abs(p.denom) for p in base.parts))
        moller_total(*copies(mvectors))
        assert counts["_moller"] == 1
        moller_total(*copies(mvectors), spins=(2, 1, 1, 2))
        assert counts["_moller"] == 2

    @pytest.mark.parametrize("fn", COMPTON_VIEWS)
    def test_setup_error_raised_again(self, fn):
        p, k, p_out, k_out = compton_cm_kinematics(1.0, 1.0)
        off_shell = (FourVector(p.t + 1e-3, p.x, p.y, p.z), k, p_out, k_out)
        for _ in range(2):
            with pytest.raises(OffShellInput):
                fn(*off_shell)
        vectors = compton_cm_kinematics(1.0, 1.0)
        bad = Constants(V=1e-320)  # the coupling scale overflows
        for _ in range(2):
            with pytest.raises(ConfigError, match="coupling scale"):
                fn(*vectors, constants=bad)
        assert fields(fn(*vectors)) == fields(fresh(fn, vectors))

    def test_channel_pole_raised_again_and_memo_kept(self):
        vectors = compton_cm_kinematics(1.0, math.pi / 3.0, Boost.along_z(0.9999999999999999))
        outcomes = {}
        for fn in COMPTON_VIEWS + COMPTON_VIEWS:
            try:
                outcomes.setdefault(fn, []).append(fields(fn(*vectors)))
            except PoleEncountered as exc:
                outcomes.setdefault(fn, []).append(str(exc))
        assert all(first == second for first, second in outcomes.values())
        assert any("vanishes" in first for first, _ in outcomes.values())
        # a call that raises leaves the stored evaluation as it was
        good = compton_cm_kinematics(1.0, 1.0)
        compton_pair_A(*good)
        kept = amplitudes._compton_memo
        with pytest.raises(PoleEncountered):
            compton_total(*vectors)
        assert amplitudes._compton_memo is kept

    def test_moller_errors_raised_again_and_memo_kept(self):
        good = moller_kinematics(4.0, 1.0)
        moller_total(*good)
        kept = amplitudes._moller_memo
        forward = moller_kinematics(4.0, 0.0)
        for _ in range(2):
            with pytest.raises(ForwardSingularity):
                moller_total(*forward)
        assert amplitudes._moller_memo is kept
        with pytest.raises(ValueError, match="spin index must be 1 or 2, got True"):
            moller_total(*good, spins=(1, 1, 1, True))
        assert amplitudes._moller_memo is kept

    def test_errors_on_a_hit_leave_both_memos(self):
        # channel 2 of these kinematics is fine and channel 1 sits on a pole
        vectors = compton_kinematics(1.0, math.pi / 3.0, Boost.along_z(0.999999999999999))
        moller_total(*moller_kinematics(4.0, 1.0))
        failing = [
            (PoleEncountered, compton_pair_A, copies(vectors), {}),
            (PoleEncountered, compton_total, copies(vectors), {"spins": (2, 2)}),
            (ValueError, compton_total, copies(vectors), {"pols": (1, 3)}),
            (ValueError, moller_total, copies(moller_kinematics(4.0, 1.0)), {"spins": (1, 0, 1, 1)}),
            (ValueError, moller_total, copies(moller_kinematics(4.0, 1.0)),
             {"normalization": "unit"}),
        ]
        for error, fn, objects, kw in failing:
            compton_pair_B(*vectors)
            kept = (amplitudes._compton_memo, amplitudes._moller_memo)
            for _ in range(2):
                with pytest.raises(error):
                    fn(*objects, **kw)
                assert amplitudes._compton_memo is kept[0]
                assert amplitudes._moller_memo is kept[1]

    def test_both_memos_have_one_shape(self):
        vectors = compton_cm_kinematics(1.0, 0.9)
        mvectors = moller_kinematics(4.0, 0.9)
        compton_pair_B(*vectors, spins=(2, 1), pols=(1, 2), normalization="covariant")
        moller_total(*mvectors, spins=(1, 2, 2, 1), normalization="covariant")
        for memo, objects in ((amplitudes._compton_memo, (*vectors, NATURAL)),
                              (amplitudes._moller_memo, (*mvectors, NATURAL))):
            assert len(memo) == 4
            assert memo[0] == objects and all(map(lambda a, b: a is b, memo[0], objects))
            assert memo[1] == "covariant"
            assert amplitudes._recall(memo, copies(objects[:4]) + (Constants(),),
                                      "covariant") == memo[2:]
            assert amplitudes._recall(memo, objects, "box") is None
        # a row per Compton channel, the one a view asked for built; one row for Moller
        first, second = amplitudes._compton_memo[3]
        assert first is None and second[0] == ((2, 1), (1, 2))
        assert amplitudes._moller_memo[3][0] == (1, 2, 2, 1)

    def test_one_channel_on_a_pole_builds_one_table(self, monkeypatch):
        # channel 1 of these kinematics sits on its pole and channel 2 does not
        vectors = compton_kinematics(1.0, math.pi / 3.0, Boost.along_z(0.999999999999999))
        counts = count_calls(monkeypatch, "_compton_setup", "_compton_channel")
        compton_total(*UNRELATED_COMPTON)
        for fn in (compton_pair_A, compton_total):
            with pytest.raises(PoleEncountered, match="channel 1 forward ordering"):
                fn(*copies(vectors))
        assert counts == {"_compton_setup": 3, "_compton_channel": 4}
        served = fields(compton_pair_B(*copies(vectors)))
        assert counts == {"_compton_setup": 4, "_compton_channel": 5}
        # on the stored table: channel 1's guards raise as its row is built, and
        # channel 2's row is served again
        for fn in (compton_pair_A, compton_total):
            with pytest.raises(PoleEncountered, match="channel 1 forward ordering"):
                fn(*copies(vectors))
        assert fields(compton_pair_B(*copies(vectors))) == served
        assert counts == {"_compton_setup": 4, "_compton_channel": 7}
        assert served == fields(fresh(compton_pair_B, vectors))

    def test_index_checks_run_on_a_hit(self):
        # (1, True) == (1, 1), so only a check before the lookup rejects it
        vectors = compton_cm_kinematics(1.0, 1.0)
        for fn in COMPTON_VIEWS:
            fn(*vectors)
            with pytest.raises(ValueError, match="polarization index must be 1 or 2, got True"):
                fn(*vectors, pols=(1, True))
            with pytest.raises(ValueError, match="spin index must be 1 or 2, got 1.0"):
                fn(*vectors, spins=(1.0, 1))
        mvectors = moller_kinematics(4.0, 1.0)
        moller_total(*mvectors)
        with pytest.raises(ValueError, match="spin index must be 1 or 2, got True"):
            moller_total(*mvectors, spins=(True, 1, 1, 1))

    def test_results_never_share_dicts(self):
        vectors = compton_cm_kinematics(1.0, 1.0)
        results = [fn(*vectors) for fn in COMPTON_VIEWS + COMPTON_VIEWS]
        mvectors = moller_kinematics(4.0, 1.0)
        results += [moller_total(*mvectors), moller_total(*mvectors)]
        provenances = [r.provenance for r in results]
        margins = [r.provenance["guard_margins"] for r in results]
        assert len({id(d) for d in provenances}) == len(results)
        assert len({id(d) for d in margins}) == len(results)
        expected = fields(fresh(compton_total, vectors))
        for r in results:
            r.provenance["guard_margins"]["min_denominator"] = -1.0
            r.provenance["extra"] = 1
        assert fields(compton_total(*vectors)) == expected
        assert moller_total(*mvectors).provenance == fresh(moller_total, mvectors).provenance

    def test_frame_recorded_per_call(self):
        vectors = compton_cm_kinematics(1.0, 1.0)
        b = Boost.along_z(0.25)
        assert compton_pair_A(*vectors, frame=None).frame is None
        total = compton_total(*vectors, frame=b)
        assert total.frame is b
        assert total.to_json_dict()["frame"] == {"beta": [0.0, 0.0, 0.25]}
        assert compton_pair_B(*vectors).frame is None
        mvectors = moller_kinematics(4.0, 1.0)
        assert moller_total(*mvectors, frame=b).frame is b
        assert moller_total(*mvectors).frame is None

    def test_the_process_label_is_per_view(self):
        vectors = compton_cm_kinematics(1.0, 1.0)
        labels = [fn(*vectors).process for fn in COMPTON_VIEWS]
        assert labels == ["compton_pair_A", "compton_pair_B", "compton"]

    @pytest.mark.parametrize("frame", MEMO_FRAMES)
    def test_hit_totals_are_in_order_part_sums(self, frame):
        # the memo stores each part's value; every view, hit or miss, sums them
        # in part order, so its total is bit for bit the sum of its parts' values
        def in_order_sum(result):
            return repr(sum(part.value for part in result.parts))

        sets = [compton_cm_kinematics(1.3, 1.1, frame), compton_kinematics(0.7, 2.0, frame)]
        sets += [flipped_zeros(vectors) for vectors in sets]
        for vectors in sets:
            for spins in INDEX_PAIRS:
                for pols in INDEX_PAIRS:
                    for fn in COMPTON_VIEWS + COMPTON_VIEWS:
                        result = fn(*vectors, spins=spins, pols=pols, frame=frame)
                        assert repr(result.total) == in_order_sum(result)
        msets = [moller_kinematics(4.0, 1.1, frame), moller_kinematics(3.0, 0.4, frame)]
        msets += [flipped_zeros(vectors) for vectors in msets]
        for mvectors in msets:
            for spins in itertools.product((1, 2), repeat=4):
                for _ in range(2):
                    result = moller_total(*mvectors, spins=spins, frame=frame)
                    assert repr(result.total) == in_order_sum(result)
                shift = -1e-4 * min(abs(part.denom) for part in result.parts)
                base = corrected_amplitude(*mvectors, pair_shift=shift, spins=spins).base
                assert repr(base.total) == in_order_sum(base)


class TestIndexCounts:
    @pytest.mark.parametrize("fn", COMPTON_VIEWS)
    @pytest.mark.parametrize("kw, message", [
        ({"spins": (1, 2, 1)}, "compton takes 2 spin indices, got (1, 2, 1)"),
        ({"spins": (1,)}, "compton takes 2 spin indices, got (1,)"),
        ({"pols": (1,)}, "compton takes 2 polarization indices, got (1,)"),
        ({"pols": [1, 2, 2]}, "compton takes 2 polarization indices, got (1, 2, 2)"),
    ])
    def test_compton_index_counts(self, fn, kw, message):
        with pytest.raises(ValueError) as caught:
            fn(*compton_cm_kinematics(1.0, 1.0), **kw)
        assert str(caught.value) == message

    def test_lists_are_accepted_and_copied(self):
        # a list key would let a later mutation of the caller's list go unseen
        vectors = compton_cm_kinematics(1.0, 1.0)
        spins = [1, 2]
        first = compton_total(*vectors, spins=spins)
        spins[1] = 1
        assert fields(compton_total(*vectors, spins=spins)) == fields(
            fresh(compton_total, vectors, spins=(1, 1)))
        assert fields(first) == fields(fresh(compton_total, vectors, spins=(1, 2)))


SPIN_POL_SETS = tuple(itertools.product(INDEX_PAIRS, INDEX_PAIRS))
MOLLER_SPIN_SETS = tuple(beam + target for beam in INDEX_PAIRS for target in INDEX_PAIRS)


def compton_spin_sum(vectors):
    """Sum of |total|^2 over the 16 spin and polarization sets."""
    summed = 0.0
    for spins, pols in SPIN_POL_SETS:
        summed += abs(compton_total(*vectors, spins=spins, pols=pols).total) ** 2
    return summed


def moller_spin_sums(vectors):
    """Sums of |total|^2 and of |textbook_total|^2 over the 16 spin sets."""
    summed = textbook = 0.0
    for spins in MOLLER_SPIN_SETS:
        result = moller_total(*vectors, spins=spins)
        summed += abs(result.total) ** 2
        textbook += abs(result.textbook_total) ** 2
    return summed, textbook


def random_rotation(rng):
    """A proper rotation, as rows of Python floats, from a random unit quaternion."""
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]).tolist()


def rotated(vectors, rotation):
    return tuple(FourVector(v.t, *(r0 * v.x + r1 * v.y + r2 * v.z for r0, r1, r2 in rotation))
                 for v in vectors)


class TestRotationInvariance:
    """Spin-summed |M|^2 does not change when all four momenta are rotated together."""

    @pytest.mark.parametrize("frame", [None, Boost((0.3, -0.4, 0.5))],
                             ids=["zero-momentum", "oblique"])
    def test_spin_sums(self, frame):
        compton = compton_cm_kinematics(1.3, 1.1, frame)
        moller = moller_kinematics(4.5, 0.9, frame)
        compton_want = compton_spin_sum(compton)
        moller_want = moller_spin_sums(moller)
        rng = np.random.default_rng(4)
        for _ in range(20):
            rotation = random_rotation(rng)
            assert np.linalg.det(rotation) == pytest.approx(1.0, abs=1e-14)
            got = compton_spin_sum(rotated(compton, rotation))
            assert abs(got - compton_want) <= 1e-13 * compton_want
            for got, want in zip(moller_spin_sums(rotated(moller, rotation)), moller_want):
                assert abs(got - want) <= 1e-13 * want


class TestThomsonLimit:
    """Spin-summed |total|^2 in the electron rest frame tends to the Thomson factor 1 + cos^2.

    With omega' = omega / (1 + (omega/m)(1 - cos theta)), the bracket of Peskin &
    Schroeder (5.87), omega'/omega + omega/omega' - sin^2 theta, is 1 + cos^2 theta
    + O(omega^2), eta and each factor m / E of the box spinors are 1 + O(omega^2),
    and the prefactors f(omega)^2 f(omega')^2 go as 1 / (omega omega'). So over
    the 16 index sets R(theta) = S(theta) / S(pi/2) is
    (1 + cos^2 theta)(1 - (omega/m) cos theta + O(omega^2)).
    """

    @pytest.mark.parametrize("theta", [0.4, 1.0, 2.3, 3.0])
    def test_first_order_coefficient(self, theta):
        cos = math.cos(theta)
        for omega in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            # each sum is 16 calls on one momentum set
            ratio = (compton_spin_sum(compton_kinematics(omega, theta))
                     / compton_spin_sum(compton_kinematics(omega, math.pi / 2.0)))
            coefficient = (ratio / (1.0 + cos * cos) - 1.0) / (omega * cos)
            assert abs(coefficient + 1.0) < 10.0 * omega


class TestSoftPhotonAnchor:
    """The Thomson limit through the pair state, in the electron rest frame.

    As omega -> 0 the crossed orderings (the `b` parts, through v(-q, s))
    carry the whole amplitude and the forward ones vanish as omega / m
    (Sakurai, Advanced Quantum Mechanics, 1967). Over the 16 spin and
    polarization sets at theta = 1 the forward share is about 1.160 omega / m.
    """

    @staticmethod
    def forward_share(omega):
        """sqrt(sum |forward parts|^2 / sum |total|^2) over the 16 sets."""
        vectors = compton_kinematics(omega, 1.0)
        forward = summed = 0.0
        for spins, pols in SPIN_POL_SETS:
            result = compton_total(*vectors, spins=spins, pols=pols)
            forward += abs(sum(part.value for part in result.parts
                               if part.name.startswith(("1a", "2a")))) ** 2
            summed += abs(result.total) ** 2
        return math.sqrt(forward / summed)

    def test_forward_share_falls_tenfold_per_decade(self):
        # omega >= 1e-6: below that the closed-form cross-check loses digits
        shares = [self.forward_share(10.0 ** -n) for n in range(2, 7)]
        for share, next_share in zip(shares, shares[1:]):
            assert share / next_share == pytest.approx(10.0, rel=1e-2)
