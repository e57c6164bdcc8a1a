import math
import re
import sys

import numpy as np
import pytest

from qlambda.errors import (
    BelowThreshold,
    ConfigError,
    NonpositiveEnergy,
    SpacelikeVector,
    SuperluminalBoost,
)
from qlambda.lorentz import (
    Boost,
    Constants,
    FourVector,
    boost,
    boost_matrix,
    cm_boost,
    compton_cm_kinematics,
    compton_kinematics,
    constants_from_mapping,
    eta,
    invariant_mass,
    load_constants,
    minkowski_dot,
    moller_kinematics,
    on_shell_energy,
)


def rand_vectors(rng, n):
    arr = rng.uniform(-3.0, 3.0, size=(n, 4))
    return [FourVector(*row) for row in arr]


class TestMinkowskiDot:
    def test_unit_time(self):
        v = FourVector(1, 0, 0, 0)
        assert minkowski_dot(v, v) == 1.0

    def test_signature(self):
        v = FourVector(5, 3, 0, 0)
        assert minkowski_dot(v, v) == 16.0

    def test_lightlike(self):
        k = FourVector(2, 0, 0, 2)
        assert minkowski_dot(k, k) == 0.0


class TestInvariantMass:
    def test_timelike(self):
        assert invariant_mass(FourVector(5, 3, 0, 0)) == 4.0

    def test_rest(self):
        assert invariant_mass(FourVector(0.7, 0, 0, 0)) == 0.7

    def test_spacelike_rejected(self):
        with pytest.raises(SpacelikeVector):
            invariant_mass(FourVector(1, 0, 0, 2))

    def test_roundoff_null_clamped(self):
        k = boost(Boost.along_z(0.9), FourVector(2, 0, 0, 2))
        assert invariant_mass(k) == pytest.approx(0.0, abs=1e-7)


class TestEta:
    def test_zero_momentum_frame(self):
        assert eta(FourVector(4.2, 0, 0, 0)) == 1.0

    def test_moving(self):
        assert eta(FourVector(5, 3, 0, 0)) == pytest.approx(0.8, abs=1e-15)

    def test_boosted_rest_vector(self):
        p = boost(Boost((0.6, 0.0, 0.0)), FourVector(2.0, 0, 0, 0))
        assert eta(p) == pytest.approx(math.sqrt(1 - 0.36), abs=1e-13)

    def test_nonpositive_energy(self):
        with pytest.raises(NonpositiveEnergy):
            eta(FourVector(-1.0, 0, 0, 0))


class TestBoost:
    def test_identity(self):
        p = FourVector(1.3, 0.2, -0.4, 0.9)
        assert boost(Boost(), p) == p

    def test_rest_vector(self):
        out = boost(Boost((0.6, 0.0, 0.0)), FourVector(1, 0, 0, 0))
        assert out.t == pytest.approx(1.25, abs=1e-15)
        assert out.x == pytest.approx(0.75, abs=1e-15)
        assert out.y == 0.0 and out.z == 0.0

    def test_dot_invariance_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            b = Boost(tuple(direction * rng.uniform(0.0, 0.99)))
            p, q = rand_vectors(rng, 2)
            before = minkowski_dot(p, q)
            after = minkowski_dot(boost(b, p), boost(b, q))
            assert after == pytest.approx(before, rel=1e-12, abs=1e-12)

    def test_inverse_composition(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            b = Boost(tuple(rng.uniform(-0.5, 0.5, size=3)))
            p = rand_vectors(rng, 1)[0]
            back = boost(b.inverse(), boost(b, p))
            assert np.allclose(back.as_array(), p.as_array(), rtol=1e-12, atol=1e-12)

    def test_eta_grid(self):
        for b in np.arange(0.0, 0.95, 0.1):
            p = boost(Boost.along_z(b), FourVector(3.0, 0, 0, 0))
            assert abs(eta(p) - math.sqrt(1.0 - b * b)) < 1e-12

    def test_superluminal(self):
        with pytest.raises(SuperluminalBoost):
            Boost((1.0, 0.0, 0.0))

    @pytest.mark.parametrize("beta", [(math.inf, 0.0, 0.0), (0.0, -math.inf, 0.5)])
    def test_infinite_component_is_superluminal(self, beta):
        with pytest.raises(SuperluminalBoost, match=re.escape("|beta| >= 1")):
            Boost(beta)

    @pytest.mark.parametrize("beta", [(math.nan, 0.0, 0.0), (0.1, math.nan, 0.2),
                                      (math.inf, 0.0, math.nan), (np.float64("nan"), 0.0, 0.0)])
    def test_nan_component_is_a_config_error(self, beta):
        # nan >= 1 is false: a NaN velocity once gave a Boost with gamma NaN,
        # whose kinematics then failed as "kinematics overflowed"
        with pytest.raises(ConfigError, match=r"^beta must not hold NaN, got beta=\("):
            Boost(beta)

    def test_nan_along_z_is_a_config_error(self):
        with pytest.raises(ConfigError, match="beta"):
            Boost.along_z(math.nan)

    def test_matrix_determinant(self):
        L = boost_matrix(Boost((0.3, -0.2, 0.5)))
        assert np.linalg.det(L) == pytest.approx(1.0, rel=1e-12)

    def test_cm_boost_cancels_momentum(self):
        total = FourVector(5.0, 1.0, -0.6, 2.0)
        rest = boost(cm_boost(total), total)
        assert np.allclose(rest.spatial, 0.0, atol=1e-12)
        assert rest.t == pytest.approx(invariant_mass(total), rel=1e-12)


class TestOnShellEnergy:
    def test_rest(self):
        assert on_shell_energy((0, 0, 0), 1.7) == 1.7

    def test_pythagorean(self):
        assert on_shell_energy((0, 3, 0), 4.0) == 5.0

    def test_photon(self):
        assert on_shell_energy((0, 0, 2.5), 0.0) == 2.5


class TestComptonKinematics:
    def test_forward(self):
        p, k, p1, k1 = compton_kinematics(1.0, 0.0)
        assert np.allclose(k1.as_array(), k.as_array(), atol=1e-15)
        assert np.allclose(p1.as_array(), p.as_array(), atol=1e-15)

    def test_conservation(self):
        p, k, p1, k1 = compton_kinematics(1.0, math.pi / 3.0)
        residual = (p + k - p1 - k1).as_array()
        assert np.max(np.abs(residual)) < 1e-12

    @pytest.mark.parametrize("theta", [0.3, 1.2, 2.7])
    def test_on_shell(self, theta):
        p, k, p1, k1 = compton_kinematics(0.8, theta, m=1.0)
        assert minkowski_dot(p1, p1) == pytest.approx(1.0, abs=1e-12)
        assert minkowski_dot(k1, k1) == pytest.approx(0.0, abs=1e-12)

    def test_boost_preserves_invariant(self):
        plain = compton_kinematics(1.0, 1.0)
        boosted = compton_kinematics(1.0, 1.0, Boost.along_z(0.7))
        s_plain = minkowski_dot(plain[0] + plain[1], plain[0] + plain[1])
        s_boost = minkowski_dot(boosted[0] + boosted[1], boosted[0] + boosted[1])
        assert s_boost == pytest.approx(s_plain, rel=1e-12)

    def test_cm_variant_zero_total_momentum(self):
        p, k, p1, k1 = compton_cm_kinematics(1.0, 1.1)
        assert np.allclose((p + k).spatial, 0.0, atol=1e-15)
        assert np.max(np.abs((p + k - p1 - k1).as_array())) < 1e-12


class TestMollerKinematics:
    def test_forward(self):
        p1, q1, p2, q2 = moller_kinematics(4.0, 0.0)
        assert np.allclose(p2.as_array(), p1.as_array(), atol=1e-15)
        assert np.allclose(q2.as_array(), q1.as_array(), atol=1e-15)

    def test_cm_relations(self):
        p1, q1, p2, q2 = moller_kinematics(5.0, 0.9)
        assert np.allclose(p1.spatial, -q1.spatial, atol=1e-15)
        assert np.linalg.norm(p2.spatial) == pytest.approx(
            np.linalg.norm(p1.spatial), rel=1e-14
        )

    def test_spacelike_transfer(self):
        for theta in np.linspace(0.1, math.pi - 0.1, 12):
            p1, _, p2, _ = moller_kinematics(4.0, theta)
            assert minkowski_dot(p1 - p2, p1 - p2) < 0.0

    def test_conservation(self):
        p1, q1, p2, q2 = moller_kinematics(3.5, 1.3, Boost.along_z(0.4))
        residual = (p1 + q1 - p2 - q2).as_array()
        assert np.max(np.abs(residual)) < 1e-12

    def test_below_threshold(self):
        with pytest.raises(BelowThreshold):
            moller_kinematics(1.9, 0.5)


class TestBoostedKinematics:
    """A boosted set applies one matrix to all four momenta; per-vector boost applies the same."""

    def test_matches_per_vector_boost(self):
        # boost applies the float rows of the kinematics generators, so the
        # two agree bit for bit, whatever the direction of the boost
        rng = np.random.default_rng(2024)
        eps = np.finfo(float).eps
        makers = (
            (compton_cm_kinematics, 0.0),
            (compton_kinematics, 0.0),
            (moller_kinematics, 2.2),  # e_cm above the 2m threshold
        )
        for _ in range(50):
            direction = rng.normal(size=3)
            beta = Boost(tuple(direction / np.linalg.norm(direction) * rng.uniform(0.0, 0.99)))
            energy = rng.uniform(0.2, 5.0)
            theta = rng.uniform(0.05, math.pi - 0.05)
            matrix = boost_matrix(beta)
            for maker, offset in makers:
                boosted = maker(energy + offset, theta, beta)
                rest = maker(energy + offset, theta)
                per_vector = [boost(beta, v) for v in rest]
                assert [[c.hex() for c in v] for v in per_vector] == \
                       [[c.hex() for c in v] for v in boosted], (maker.__name__, beta)
                assert all(type(c) is float for v in boosted for c in v)
                for got, v in zip(boosted, rest):
                    # the matrix product is an independent reference; two
                    # summation orders differ by a few ulp of the largest term
                    # of each sum, max_i sum_j |L_ij v_j|, which can be many
                    # times the result when the boost runs against the motion
                    want = matrix @ v.as_array()
                    scale = float(np.max(np.abs(matrix) @ np.abs(v.as_array())))
                    gap = float(np.max(np.abs(got.as_array() - want)))
                    assert gap <= 4.0 * eps * scale, (maker.__name__, beta, gap / scale)

    def test_boost_returns_python_floats(self):
        v = boost(Boost((0.3, -0.2, 0.5)), FourVector(2.0, 0.1, 0.2, 0.3))
        assert all(type(c) is float for c in (v.t, v.x, v.y, v.z))

    def test_identity_boost_returns_its_input(self):
        # no rows to apply: the very vector comes back, ints and the sign of a
        # zero included, as in an unboosted kinematics set
        p = FourVector(2, -0.0, 0.0, 1)
        assert boost(Boost(), p) is p
        assert math.copysign(1.0, boost(Boost(), p).x) == -1.0

    def test_boost_needs_no_numpy(self, monkeypatch):
        beta, p = Boost((0.3, -0.2, 0.5)), FourVector(2.0, 0.1, 0.2, 0.3)
        expected = boost(beta, p)
        # a None entry in sys.modules makes `import numpy` raise ImportError
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(ImportError):
            boost_matrix(beta)
        assert boost(beta, p) == expected


class TestConstants:
    def test_defaults(self):
        c = Constants()
        assert c.hbar == c.c == c.eps0 == c.m_e == c.V == 1.0
        assert c.e == pytest.approx(math.sqrt(4 * math.pi / 137.035999), rel=1e-12)

    def test_positive_required(self):
        with pytest.raises(ConfigError):
            Constants(m_e=-1.0)

    def test_load_file(self, tmp_path):
        path = tmp_path / "constants.json"
        path.write_text('{"m_e": 2.0, "V": 8.0}')
        c = load_constants(str(path))
        assert c.m_e == 2.0 and c.V == 8.0 and c.hbar == 1.0

    # bodies that once ended in OverflowError, ValueError, RecursionError and
    # UnicodeDecodeError: an integer past the float range, one past the digit
    # limit (past the float range where there is no limit), deep nesting and
    # a UTF-16 byte-order mark
    @pytest.mark.parametrize("body", [
        b'{"m_e": 1' + b"0" * 399 + b"}",
        b'{"m_e": 1' + b"0" * 4999 + b"}",
        b"[" * 100000,
        b'\xff\xfe{"m_e": 2.0}',
    ], ids=["400-digits", "5000-digits", "deep", "utf16"])
    def test_unreadable_file_is_a_config_error(self, tmp_path, body):
        path = tmp_path / "constants.json"
        path.write_bytes(body)
        with pytest.raises(ConfigError) as caught:
            load_constants(str(path))
        assert "0" * 300 not in str(caught.value)

    def test_missing_file_named(self, tmp_path):
        path = str(tmp_path / "absent.json")
        with pytest.raises(ConfigError, match=re.escape(f"cannot read constants file {path!r}: ")):
            load_constants(path)

    @pytest.mark.parametrize("value", [True, "1.0", None, [1.0], 10**400])
    def test_value_must_be_a_number(self, value):
        with pytest.raises(ConfigError, match="constants key 'm_e' (must be a number|is an int)"):
            constants_from_mapping({"m_e": value})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            constants_from_mapping({"bogus": 1.0})

    @pytest.mark.parametrize("m_e", [1e-160, 1e-300, 5e-324])
    def test_mass_whose_square_underflows_rejected(self, m_e):
        # every energy is sqrt(|p|^2 + m^2): a zero m^2 leaves zero rest energies
        with pytest.raises(ConfigError, match="m_e\\^2 underflows"):
            Constants(m_e=m_e)

    def test_smallest_masses_with_a_normal_square_accepted(self):
        assert Constants(m_e=1e-150).m_e == 1e-150

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, float("nan")])
    def test_bad_alpha_rejected_before_the_square_root(self, alpha):
        with pytest.raises(ConfigError) as caught:
            constants_from_mapping({"alpha": alpha})
        assert str(caught.value) == f"constant 'alpha' must be strictly positive, got {alpha!r}"

    def test_alpha_derives_charge(self):
        c = constants_from_mapping({"alpha": 0.01})
        assert c.e == pytest.approx(math.sqrt(4 * math.pi * 0.01), rel=1e-14)
