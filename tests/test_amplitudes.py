import math

import numpy as np
import pytest

from qlambda.amplitudes import (
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
    ZeroReference,
)
from qlambda.lorentz import (
    NATURAL,
    Boost,
    Constants,
    FourVector,
    compton_cm_kinematics,
    compton_kinematics,
    minkowski_dot,
    moller_kinematics,
    on_shell_energy,
)


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


class TestCouplingFactor:
    def test_value(self):
        f = coupling_factor(0.8, 2.0, NATURAL)
        expected = NATURAL.e * 0.8 * math.sqrt(1.0 / 2.0)
        assert f.value == pytest.approx(expected, rel=1e-14)
        assert f.eta == 0.8 and f.energy == 2.0 and f.volume == 1.0

    def test_eta_range_enforced(self):
        with pytest.raises(OffShellInput):
            coupling_factor(1.5, 1.0, NATURAL)

    def test_prefactor_elementwise_matches_factor(self):
        etas, energies = [0.3, 0.8, 1.0], [0.5, 2.0, 7.0]
        values = coupling_prefactor(np.array(etas), np.array(energies), NATURAL)
        assert values.tolist() == [
            coupling_factor(a, b, NATURAL).value for a, b in zip(etas, energies)
        ]

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
                u_in = u_spinor(p.spatial, spins[0], 1.0, normalization).components
                u_out = u_spinor(p_out.spatial, spins[1], 1.0, normalization)
                ubar_out = ubar(u_out)
                eps_in = polarization_pair(k.spatial)[pols[0] - 1].as_array()
                eps_out = polarization_pair(k_out.spatial)[pols[1] - 1].as_array().conj()
                f_in = coupling_factor(result.eta, k.t, NATURAL).value
                f_out = coupling_factor(result.eta, k_out.t, NATURAL).value
                expected = []
                for tag, q, (eps1, f1), (eps2, f2) in (
                    ("1", p + k, (eps_in, f_in), (eps_out, f_out)),
                    ("2", p - k_out, (eps_out, f_out), (eps_in, f_in)),
                ):
                    e_q = on_shell_energy(q.spatial, 1.0)
                    row = ubar_out @ slash(eps2)
                    col = slash(eps1) @ u_in
                    for s in (1, 2):
                        u_mid = u_spinor(q.spatial, s, 1.0, normalization).components
                        v_mid = np.concatenate([-u_mid[2:], u_mid[:2]])
                        # v_mid has the norm of u_mid
                        scale1 = vertex_scale(f1, u_mid, u_in)
                        scale2 = vertex_scale(f2, u_out.components, u_mid)
                        expected.append((f"{tag}a:s={s}", f1 * complex(ubar(u_mid) @ col), scale1,
                                         f2 * complex(row @ u_mid), scale2, q.t - e_q))
                        expected.append((f"{tag}b:s={s}", -f2 * complex(row @ v_mid), scale2,
                                         f1 * complex(ubar(v_mid) @ col), scale1, -(q.t + e_q)))
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
    def test_corrected_amplitude_pole_reachable(self):
        from qlambda.vacuum import corrected_amplitude

        vectors = moller_kinematics(4.0, 1.0)
        base = moller_total(*vectors, spins=(1, 2, 1, 2))
        denom = min(abs(p.denom) for p in base.parts)
        with pytest.raises(PoleEncountered):
            corrected_amplitude(*vectors, pair_shift=-denom, spins=(1, 2, 1, 2), guard=10.0)
