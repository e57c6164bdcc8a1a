import numpy as np
import pytest

from qlambda.dirac import (
    bar_dot,
    boost_spinor,
    gamma_set,
    pair_spinor,
    polarization_column,
    polarization_pair,
    row_dot,
    sigma_dot,
    slash,
    slash_column,
    slash_row,
    slash_sandwich,
    spin_block,
    spin_column,
    spin_pair,
    spin_sum,
    transverse_basis,
    u_spinor,
    ubar,
    vector_current,
    vertex_bilinear,
)
from qlambda.errors import MasslessAtRest, ZeroWavevector
from qlambda.lorentz import Boost, FourVector, boost_matrix, on_shell_energy

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
I4 = np.eye(4)
PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def rand_momenta(rng, n, scale=2.0):
    return rng.uniform(-scale, scale, size=(n, 3))


class TestGammaAlgebra:
    def test_clifford_exact(self):
        g = gamma_set()
        for mu in range(4):
            for nu in range(4):
                anti = g[mu] @ g[nu] + g[nu] @ g[mu]
                assert np.array_equal(anti, 2.0 * METRIC[mu, nu] * I4)

    def test_squares(self):
        g = gamma_set()
        assert np.array_equal(g[0] @ g[0], I4.astype(complex))
        assert np.array_equal(g[1] @ g[1], -I4.astype(complex))

    def test_hermiticity_identity(self):
        g = gamma_set()
        for mu in range(4):
            assert np.array_equal(g[0] @ g[mu].conj().T @ g[0], g[mu])

    def test_slash_contraction(self):
        v = FourVector(1.0, 0.5, -0.25, 2.0)
        g = gamma_set()
        expected = v.t * g[0] - v.x * g[1] - v.y * g[2] - v.z * g[3]
        assert np.array_equal(slash(v), expected)


class TestUSpinor:
    def test_rest_frame(self):
        u = u_spinor((0, 0, 0), 1, 1.0)
        assert np.allclose(u.components, [1, 0, 0, 0])
        u2 = u_spinor((0, 0, 0), 2, 1.0)
        assert np.allclose(u2.components, [0, 1, 0, 0])

    def test_box_normalization_random(self):
        rng = np.random.default_rng(3)
        for p3 in rand_momenta(rng, 100):
            for s in (1, 2):
                u = u_spinor(p3, s, 1.0)
                assert abs(u.components.conj() @ u.components - 1.0) < 1e-12

    def test_spin_orthogonality(self):
        rng = np.random.default_rng(4)
        for p3 in rand_momenta(rng, 50):
            u1 = u_spinor(p3, 1, 1.0)
            u2 = u_spinor(p3, 2, 1.0)
            assert abs(u1.components.conj() @ u2.components) < 1e-12

    def test_dirac_equation_residual(self):
        rng = np.random.default_rng(5)
        for p3 in rand_momenta(rng, 100):
            u = u_spinor(p3, 1, 1.0)
            residual = (slash(u.on_shell_momentum()) - 1.0 * np.eye(4)) @ u.components
            assert np.linalg.norm(residual) < 1e-12

    def test_ubar_u_is_mass_over_energy(self):
        rng = np.random.default_rng(6)
        for p3 in rand_momenta(rng, 50):
            u = u_spinor(p3, 2, 1.0)
            value = ubar(u) @ u.components
            assert value.real == pytest.approx(1.0 / u.energy, abs=1e-12)
            assert abs(value.imag) < 1e-14

    def test_covariant_normalization(self):
        u = u_spinor((0.4, -0.7, 1.2), 1, 1.0, normalization="covariant")
        assert (ubar(u) @ u.components).real == pytest.approx(1.0, abs=1e-12)

    def test_massless_at_rest_rejected(self):
        with pytest.raises(MasslessAtRest):
            u_spinor((0, 0, 0), 1, 0.0)
        with pytest.raises(MasslessAtRest):
            u_spinor((0, 0, 1.0), 1, 0.0, normalization="covariant")

    def test_massless_moving_ok(self):
        u = u_spinor((0, 0, 1.0), 1, 0.0)
        assert abs(u.components.conj() @ u.components - 1.0) < 1e-12


class TestSpinBlock:
    @staticmethod
    def sigma_construction(p3, s, m, normalization):
        """N (chi_s ; sigma.p chi_s / (E+m)) with explicit Pauli matrices."""
        energy = on_shell_energy(p3, m)
        chi = np.eye(2, dtype=complex)[s - 1]
        sigma_p = sum(p3[i] * PAULI[i] for i in range(3))
        u = np.sqrt((energy + m) / (2.0 * energy)) * np.concatenate(
            [chi, sigma_p @ chi / (energy + m)]
        )
        return u * np.sqrt(energy / m) if normalization == "covariant" else u

    def test_matches_sigma_construction(self):
        rng = np.random.default_rng(31)
        momenta = [np.zeros(3), np.array([0.0, 0.0, -2.0])] + list(rand_momenta(rng, 60))
        for p3 in momenta:
            for normalization in ("box", "covariant"):
                block = spin_block(p3, 1.0, normalization)
                assert block.shape == (4, 2)
                for s in (1, 2):
                    np.testing.assert_allclose(
                        block[:, s - 1], self.sigma_construction(p3, s, 1.0, normalization),
                        rtol=1e-13, atol=0,
                    )
                    u = u_spinor(p3, s, 1.0, normalization)
                    assert np.array_equal(u.components, block[:, s - 1])

    def test_dirac_equation_both_normalizations(self):
        rng = np.random.default_rng(32)
        for p3 in rand_momenta(rng, 60, scale=5.0):
            energy = on_shell_energy(p3, 1.0)
            p_on = FourVector.from_spatial(energy, p3)
            for normalization in ("box", "covariant"):
                block = spin_block(p3, 1.0, normalization)
                residual = (slash(p_on) - np.eye(4)) @ block
                assert np.max(np.abs(residual)) < 1e-13 * energy * np.max(np.abs(block))
                # u^dag u = 1 for box spinors, ubar u = 1 for covariant ones
                gram = ubar(block) @ block if normalization == "covariant" else block.conj().T @ block
                assert np.max(np.abs(gram - np.eye(2))) < 1e-13

    def test_rejections(self):
        with pytest.raises(MasslessAtRest):
            spin_block((0, 0, 0), 0.0)
        with pytest.raises(MasslessAtRest):
            spin_block((0, 0, 1.0), 0.0, normalization="covariant")
        with pytest.raises(ValueError, match="normalization"):
            spin_block((0, 0, 1.0), 1.0, normalization="lattice")


class TestSpinSum:
    def closed_form(self, p3, m):
        energy = on_shell_energy(p3, m)
        q_on = FourVector.from_spatial(energy, p3)
        return (slash(q_on) + m * np.eye(4)) / (2.0 * energy)

    def test_rest_frame(self):
        total = spin_sum((0, 0, 0), 1.0)
        assert np.allclose(total, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-15)

    def test_matches_closed_form_random(self):
        rng = np.random.default_rng(8)
        for p3 in rand_momenta(rng, 200):
            outer = spin_sum(p3, 1.0)
            assert np.max(np.abs(outer - self.closed_form(p3, 1.0))) < 1e-12

    def test_trace(self):
        p3 = np.array([0.3, 1.1, -0.2])
        total = spin_sum(p3, 1.0)
        # independent value: trace of slash vanishes, trace of m I4 is 4m
        expected = 2.0 * 1.0 / on_shell_energy(p3, 1.0)
        assert np.trace(total).real == pytest.approx(expected, abs=1e-13)


class TestPolarization:
    def test_z_axis_convention(self):
        e1, e2 = polarization_pair((0, 0, 1.0))
        assert np.allclose(e1.components, [0, 1, 0, 0])
        assert np.allclose(e2.components, [0, 0, 1, 0])

    def test_transverse_and_orthonormal(self):
        rng = np.random.default_rng(9)
        for k3 in rand_momenta(rng, 100):
            if not np.linalg.norm(k3) > 0:
                continue
            e1, e2 = polarization_pair(k3)
            for e in (e1, e2):
                assert e.components[0] == 0.0
                assert abs(e.components[1:] @ k3) < 1e-12 * np.linalg.norm(k3)
            assert abs(e1.components[1:] @ e2.components[1:]) < 1e-12
            for e in (e1, e2):
                assert abs(e.components[1:] @ e.components[1:] - 1.0) < 1e-12

    @pytest.mark.parametrize("k3", [
        (1.0, 1.0, 1.0),
        (1.0, 1.0, 0.0),
        (0.0, 0.0, -2.0),
        tuple(np.random.default_rng(33).normal(size=3)),
    ])
    def test_matches_gram_schmidt_with_cross(self, k3):
        # the seed axis is the first of the least-aligned ones (np.argmin)
        k3 = np.array(k3)
        khat = k3 / np.linalg.norm(k3)
        seed = np.eye(3)[int(np.argmin(np.abs(khat)))]
        e1 = seed - (seed @ khat) * khat
        e1 = e1 / np.linalg.norm(e1)
        e2 = np.cross(khat, e1)
        pol1, pol2 = polarization_pair(k3)
        np.testing.assert_allclose(pol1.components, np.concatenate([[0.0], e1]), rtol=1e-13, atol=0)
        np.testing.assert_allclose(pol2.components, np.concatenate([[0.0], e2]), rtol=1e-13, atol=0)
        assert (pol1.alpha, pol2.alpha) == (1, 2)
        assert np.array_equal(pol1.wavevector, k3)

    def test_zero_wavevector(self):
        with pytest.raises(ZeroWavevector):
            polarization_pair((0.0, 0.0, 0.0))


class TestVertexBilinear:
    def test_rest_longitudinal_element_vanishes(self):
        u = u_spinor((0, 0, 0), 1, 1.0)
        eps = np.array([0.0, 0.0, 0.0, 1.0])
        assert vertex_bilinear(u, eps, u) == 0.0

    def test_linearity(self):
        ua = u_spinor((0.2, 0.1, -0.5), 1, 1.0)
        ub = u_spinor((1.0, -0.3, 0.4), 2, 1.0)
        eps = polarization_pair((0.3, 0.4, 0.5))[0].as_array()
        assert vertex_bilinear(ub, 2.0 * eps, ua) == pytest.approx(
            2.0 * vertex_bilinear(ub, eps, ua), rel=1e-14
        )

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            ua = u_spinor(rng.uniform(-1, 1, 3), int(rng.integers(1, 3)), 1.0)
            ub = u_spinor(rng.uniform(-1, 1, 3), int(rng.integers(1, 3)), 1.0)
            eps = rng.normal(size=4) + 1j * rng.normal(size=4)
            lhs = vertex_bilinear(ua, eps, ub)
            rhs = np.conj(vertex_bilinear(ub, eps.conj(), ua))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


class TestBoostSpinor:
    def test_identity(self):
        u = u_spinor((0.3, 0.2, -0.1), 1, 1.0)
        assert boost_spinor(Boost(), u) is u

    def test_rest_to_moving_matches_direct(self):
        b = Boost((0.0, 0.0, 0.6))
        u0 = u_spinor((0, 0, 0), 1, 1.0)
        moved = boost_spinor(b, u0)
        direct = u_spinor(moved.momentum, 1, 1.0)
        # proportional up to the normalization rescale; ubar u is preserved
        ratio = moved.components[0] / direct.components[0]
        assert np.allclose(moved.components, ratio * direct.components, atol=1e-13)
        assert (ubar(moved) @ moved.components).real == pytest.approx(1.0, abs=1e-12)

    def test_vector_current_covariance(self):
        rng = np.random.default_rng(12)
        g = gamma_set()
        for _ in range(30):
            p3 = rng.uniform(-1.0, 1.0, 3)
            u = u_spinor(p3, int(rng.integers(1, 3)), 1.0)
            b = Boost(tuple(rng.uniform(-0.45, 0.45, 3)))
            v = boost_spinor(b, u)
            current = np.array([ubar(u) @ g[mu] @ u.components for mu in range(4)])
            boosted_current = np.array([ubar(v) @ g[mu] @ v.components for mu in range(4)])
            expected = boost_matrix(b) @ current
            assert np.max(np.abs(boosted_current - expected)) < 1e-10


class TestScalarBuilders:
    """The array views are the scalar builders' values, bit for bit."""

    MOMENTA = [(0.0, 0.0, 0.0), (0.0, 0.0, -2.0), (1e-300, 0.0, 0.0)] + [
        tuple(p.tolist()) for p in rand_momenta(np.random.default_rng(34), 40, scale=5.0)
    ]

    @pytest.mark.parametrize("normalization", ["box", "covariant"])
    def test_spin_views_equal_spin_pair(self, normalization):
        for p3 in self.MOMENTA:
            u1, u2, energy = spin_pair(*p3, 1.0, normalization)
            px, py, pz = p3
            assert energy == np.sqrt(px * px + py * py + pz * pz + 1.0)
            block = spin_block(p3, 1.0, normalization)
            assert block.dtype == complex and block.shape == (4, 2)
            for s, u in ((1, u1), (2, u2)):
                expected = np.array(u, dtype=complex)
                assert np.array_equal(block[:, s - 1], expected)
                assert np.array_equal(spin_column(p3, s, 1.0, normalization), expected)
                assert np.array_equal(u_spinor(p3, s, 1.0, normalization).components, expected)

    def test_spin_pair_rejections_match_spin_block(self):
        with pytest.raises(MasslessAtRest):
            spin_pair(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(MasslessAtRest):
            spin_pair(0.0, 0.0, 1.0, 0.0, "covariant")
        with pytest.raises(ValueError, match="unknown normalization 'lattice'"):
            spin_pair(0.0, 0.0, 1.0, 1.0, "lattice")

    def test_polarization_views_equal_transverse_basis(self):
        wavevectors = [(1.0, 1.0, 1.0), (1.0, 1.0, 0.0), (0.0, 0.0, -2.0), (0.0, 1e-150, 0.0)] + [
            tuple(k.tolist()) for k in rand_momenta(np.random.default_rng(35), 40)
        ]
        for k3 in wavevectors:
            basis = transverse_basis(*k3)
            pair = polarization_pair(k3)
            for alpha, e in enumerate(basis, start=1):
                assert all(type(c) is float for c in e)
                expected = np.array((0.0,) + e, dtype=complex)
                assert np.array_equal(pair[alpha - 1].components, expected)
                assert np.array_equal(polarization_column(k3, alpha), expected)

    def test_transverse_basis_z_axis_exact(self):
        assert transverse_basis(0.0, 0.0, 1.0) == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))

    def test_transverse_basis_zero_wavevector(self):
        with pytest.raises(ZeroWavevector):
            transverse_basis(0.0, 0.0, 0.0)


def random_spinor(rng):
    return tuple(complex(a, b) for a, b in rng.normal(size=(4, 2)))


class TestPauliBlockHelpers:
    """Each helper against its gamma-matrix form, to 1e-14 of the term scale."""

    @staticmethod
    def close(value, expected, scale):
        assert np.max(np.abs(np.asarray(value) - np.asarray(expected))) <= 1e-14 * scale

    def test_against_gamma_matrices(self):
        rng = np.random.default_rng(36)
        g = gamma_set()
        for _ in range(200):
            ua, ub = random_spinor(rng), random_spinor(rng)
            e = tuple(rng.normal(size=3))
            q = tuple(rng.normal(size=4) * 3.0)
            m = float(rng.uniform(0.1, 2.0))
            a, b = np.array(ua), np.array(ub)
            norm_e = float(np.linalg.norm(e))
            scale = norm_e * np.linalg.norm(a) * np.linalg.norm(b)
            eps_slash = slash(np.concatenate([[0.0], e]))
            sigma_e = sum(e[i] * PAULI[i] for i in range(3))
            self.close(sigma_dot(e, ua[:2]), sigma_e @ a[:2], norm_e * np.linalg.norm(a))
            self.close(slash_column(e, ua), eps_slash @ a, norm_e * np.linalg.norm(a))
            self.close(slash_row(ub, e), ubar(b) @ eps_slash, norm_e * np.linalg.norm(b))
            self.close(bar_dot(ub, a), ubar(b) @ a, np.linalg.norm(a) * np.linalg.norm(b))
            self.close(row_dot(ub, a), b @ a, np.linalg.norm(a) * np.linalg.norm(b))
            assert pair_spinor(ua) == (-ua[2], -ua[3], ua[0], ua[1])
            row, col = slash_row(ub, e), slash_column(e, ua)
            sandwich = np.array(row) @ (slash(q) + m * I4) @ np.array(col)
            self.close(slash_sandwich(row, q, m, col), sandwich,
                       scale * norm_e * (np.sum(np.abs(q)) + m))
            current = [ubar(b) @ g[mu] @ a for mu in range(4)]
            self.close(vector_current(ub, ua), current, np.linalg.norm(a) * np.linalg.norm(b))

    def test_elementwise_over_stacked_arrays(self):
        # the helpers take (n,) arrays in every slot and match a scalar loop to
        # 1e-14 of the largest value at each index
        rng = np.random.default_rng(37)
        n = 64
        ua = tuple(rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(4))
        ub = tuple(rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(4))
        e = tuple(rng.normal(size=n) for _ in range(3))
        q = tuple(rng.normal(size=n) * 3.0 for _ in range(4))
        m = 0.7

        def calls(ua, ub, e, q):
            row, col = slash_row(ub, e), slash_column(e, ua)
            return (sigma_dot(e, ua[:2]), col, row, bar_dot(ub, col), row_dot(row, ua),
                    pair_spinor(ua), slash_sandwich(row, q, m, col), vector_current(ub, ua))

        stacked = calls(ua, ub, e, q)
        flat = [np.broadcast_to(np.asarray(v), (n,)) for group in stacked
                for v in (group if isinstance(group, tuple) else (group,))]
        for i in range(n):
            pick = (lambda arrays: tuple(complex(x[i]) if np.iscomplexobj(x) else float(x[i])
                                         for x in arrays))
            scalar = calls(pick(ua), pick(ub), pick(e), pick(q))
            values = [v for group in scalar for v in (group if isinstance(group, tuple) else (group,))]
            assert len(values) == len(flat)
            # numpy may round a complex product differently from Python
            top = max(abs(value) for value in values)
            for array, value in zip(flat, values):
                assert abs(array[i] - value) <= 1e-14 * top
