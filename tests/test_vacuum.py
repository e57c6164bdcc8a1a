import io
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from qlambda import vacuum
from qlambda.amplitudes import coupling_prefactor
from qlambda.errors import (
    ConfigError,
    CorrectionTooLarge,
    GridTooCoarse,
    PoleEncountered,
    RealPairThreshold,
    SignMismatch,
    ZeroWavevector,
)
from qlambda.dirac import polarization_column, u_spinor, vertex_bilinear
from qlambda.jsonio import dump_json
from qlambda.lorentz import (
    NATURAL,
    Boost,
    Constants,
    FourVector,
    boost,
    cm_boost,
    eta,
    moller_kinematics,
    on_shell_energy,
)
from qlambda.pauli import bar_dot, slash_column, spin_pair, transverse_basis
from qlambda.vacuum import (
    GridSpec,
    cm_correction_factor,
    corrected_amplitude,
    corrected_pair_coupling,
    correction_factor,
    outgoing_eta,
    pair_coupling,
    shift_density,
    total_shift,
)

K3 = np.array([0.0, 0.0, 0.5])


@pytest.fixture(autouse=True)
def empty_grid_cache():
    # each test starts from an empty total_shift grid cache, so that whether its
    # first call hits does not depend on the test run before it
    vacuum._grid_table.cache_clear()


class TestPairCoupling:
    def test_eta1_matches_four_vector_eta(self):
        # independent path: eta() reconstructs the rest mass from E^2 - |p|^2,
        # so the two evaluations agree to the last ulp rather than bitwise
        rng = np.random.default_rng(31)
        for _ in range(50):
            p3 = rng.uniform(-2.0, 2.0, 3)
            pk = p3 + K3
            four = FourVector.from_spatial(math.sqrt(pk @ pk + 1.0), pk)
            assert outgoing_eta(p3, K3, 1.0) == pytest.approx(eta(four), rel=1e-15)

    def test_outgoing_eta_is_m_over_the_on_shell_energy(self):
        # no BLAS dot: the same bits under every OpenBLAS kernel
        rng = np.random.default_rng(37)
        for _ in range(500):
            p3 = tuple(rng.uniform(-3.0, 3.0, 3).tolist())
            k3 = tuple(rng.uniform(-3.0, 3.0, 3).tolist())
            m = float(rng.uniform(0.1, 5.0))
            pk = tuple(a + b for a, b in zip(p3, k3))
            assert outgoing_eta(p3, k3, m).hex() == (m / on_shell_energy(pk, m)).hex()

    def test_prefactor_and_spinors_share_one_energy(self):
        rng = np.random.default_rng(38)
        constants = Constants(m_e=1.3)
        for _ in range(100):
            p3 = rng.uniform(-3.0, 3.0, 3)
            k3 = rng.uniform(-3.0, 3.0, 3)
            s, s_out, alpha = (int(i) for i in rng.integers(1, 3, 3))
            e_p, e_pk = on_shell_energy(p3, 1.3), on_shell_energy(p3 + k3, 1.3)
            prefactor = coupling_prefactor(1.3 / e_pk, e_pk + e_p, constants)
            u_in = spin_pair(*p3.tolist(), 1.3)[s - 1]
            u_out = spin_pair(*(p3 + k3).tolist(), 1.3)[s_out - 1]
            e = transverse_basis(*k3.tolist())[alpha - 1]
            expected = prefactor * bar_dot(u_out, slash_column(e, u_in))
            assert pair_coupling(p3, k3, s, s_out, alpha, constants) == expected

    def test_matches_the_gamma_matrix_reference(self):
        # second path: the 4x4 gamma matrices of `dirac`, within rounding of
        # the vertex scale f |u_out| |u_in| (box spinors: |u| = 1)
        rng = np.random.default_rng(39)
        constants = Constants(m_e=1.3)
        for i in range(200):
            k3 = rng.uniform(-3.0, 3.0, 3)
            p3 = rng.uniform(-3.0, 3.0, 3)
            if i % 4 == 0:
                # near the k axis, where the upper and lower blocks nearly cancel
                p3 = rng.uniform(-3.0, 3.0) * k3 + 1e-7 * rng.normal(size=3)
            for s in (1, 2):
                for s_out in (1, 2):
                    u_in, u_out = u_spinor(p3, s, 1.3), u_spinor(p3 + k3, s_out, 1.3)
                    f = coupling_prefactor(1.3 / u_out.energy, u_out.energy + u_in.energy,
                                           constants)
                    scale = f * np.linalg.norm(u_out.components) * np.linalg.norm(u_in.components)
                    for alpha in (1, 2):
                        reference = f * vertex_bilinear(u_out, polarization_column(k3, alpha), u_in)
                        value = pair_coupling(p3, k3, s, s_out, alpha, constants)
                        assert abs(value - reference) <= 1e-15 * scale, (p3, k3, s, s_out, alpha)

    def test_linear_in_charge(self):
        p3 = np.array([0.3, -0.2, 0.7])
        base = pair_coupling(p3, K3, 1, 2, 1)
        doubled = pair_coupling(p3, K3, 1, 2, 1, constants=Constants(e=2 * NATURAL.e))
        assert doubled == pytest.approx(2.0 * base, rel=1e-14)

    def test_zero_wavevector(self):
        with pytest.raises(ZeroWavevector):
            pair_coupling((0.1, 0.2, 0.3), (0.0, 0.0, 0.0))

    def test_bad_polarization_index(self):
        with pytest.raises(ValueError, match="polarization index must be 1 or 2, got 0"):
            pair_coupling((0.1, 0.2, 0.3), K3, 1, 1, 0)

    @pytest.mark.parametrize("s, s_out", [(0, 1), (1, 3), (True, 1), (1, 2.0)])
    def test_bad_spin_index(self, s, s_out):
        with pytest.raises(ValueError, match="spin index must be 1 or 2, got "):
            pair_coupling((0.1, 0.2, 0.3), K3, s, s_out, 1)


class TestShiftDensity:
    def test_negative_below_threshold(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            p3 = rng.uniform(-5.0, 5.0, 3)
            assert shift_density(p3, K3) < 0.0

    def test_threshold_raises_with_offshell_energy(self):
        with pytest.raises(RealPairThreshold):
            shift_density((0.1, 0.0, 0.0), K3, photon_energy=5.0)

    def test_negative_energy_threshold(self):
        # the bracket 1/(w - E - E') - 1/(w + E + E') has its second pole at w = -(E + E')
        with pytest.raises(RealPairThreshold):
            shift_density((0.1, 0.0, 0.0), K3, photon_energy=-5.0)
        for energy in (-3.0, -2.5):
            with pytest.raises(RealPairThreshold, match="reaches the pair threshold"):
                total_shift(K3, 1e3, photon_energy=energy)

    def test_negative_energy_inside_window(self):
        assert shift_density((0.1, 0.0, 0.0), K3, photon_energy=-1.0) < 0.0
        shift, _ = total_shift(K3, 1e3, GridSpec(n_radial=48, n_theta=8), photon_energy=-1.0)
        assert shift < 0.0 and math.isfinite(shift)

    def test_zero_photon_energy_allowed(self):
        value = shift_density((0.4, 0.1, -0.2), K3, photon_energy=0.0)
        assert value < 0.0 and math.isfinite(value)

    def test_large_momentum_scaling(self):
        # density * |p|^4 approaches a constant along a fixed direction
        direction = np.array([0.3, 0.5, 0.81])
        direction /= np.linalg.norm(direction)
        values = [
            shift_density(p * direction, K3) * p**4 for p in (1e2, 1e3, 1e4)
        ]
        assert values[1] == pytest.approx(values[2], rel=0.05)

    def test_zero_wavevector(self):
        with pytest.raises(ZeroWavevector):
            shift_density((0.1, 0.2, 0.3), (0.0, 0.0, 0.0))

    def test_sample_fields_consistent(self):
        from qlambda.vacuum import pair_shift_sample

        p3 = np.array([0.3, -0.2, 0.7])
        sample = pair_shift_sample(p3, K3)
        assert sample.eta1 == pytest.approx(outgoing_eta(p3, K3, 1.0), rel=1e-14)
        assert sample.spinor_factor > 0.0
        assert sample.shift_density == shift_density(p3, K3)
        # the closed-form spinor factor agrees with the explicit bilinear sum:
        # divide the squared couplings by their common prefactor
        rng = np.random.default_rng(34)
        for k3 in (K3, np.array([0.3, -0.4, 0.2]), np.array([-1.1, 0.6, 0.9])):
            for i in range(50):
                direction = rng.normal(size=3)
                log_p, rel = rng.uniform(-3.0, 3.0), 1e-12
                if i >= 40:
                    # 1e-4 rad off the k axis, where the direct trace differences
                    # lose ~1e-8 and the spinor reference itself holds ~2e-11
                    direction = k3 / np.linalg.norm(k3) + 1e-4 * direction
                    log_p, rel = rng.uniform(2.0, 3.0), 1e-10
                p3 = 10.0**log_p * direction / np.linalg.norm(direction)
                sample = pair_shift_sample(p3, k3)
                pk = p3 + k3
                combined = math.sqrt(p3 @ p3 + 1) + math.sqrt(pk @ pk + 1)
                prefactor_sq = (NATURAL.e * sample.eta1) ** 2 / combined
                explicit = sum(
                    0.5 * abs(pair_coupling(p3, k3, s, s_out, alpha)) ** 2 / prefactor_sq
                    for alpha in (1, 2)
                    for s in (1, 2)
                    for s_out in (1, 2)
                )
                assert sample.spinor_factor == pytest.approx(explicit, rel=rel, abs=0.0)


class TestNonFiniteSampleInput:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p3, k3, energy, message", [
        ((math.nan, 0.2, 0.7), K3, None, "p must be finite"),
        ((math.inf, 0.0, 0.0), K3, None, "p must be finite"),
        ((0.3, -0.2, 0.7), (0.0, math.nan, 0.5), None, "k must be finite"),
        ((0.3, -0.2, 0.7), K3, math.nan, "photon_energy must be finite"),
        ((0.3, -0.2, 0.7), K3, math.inf, "photon_energy must be finite"),
        ((1e200, 0.0, 0.0), K3, None, "must have a finite square"),
        ((0.3, -0.2, 0.7), (1e200, 0.0, 0.0), None, "must have a finite square"),
    ])
    def test_rejected(self, p3, k3, energy, message):
        for fn in (vacuum.pair_shift_sample, shift_density):
            with pytest.raises(ConfigError, match=message):
                fn(p3, k3, photon_energy=energy)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_finite_momenta_run(self):
        # every kernel product stays in range up to the accepted limit
        for p3, k3 in (((1e150, 0.0, 0.0), K3), ((0.0, 1e150, 0.0), (1e150, 0.0, 0.0)),
                       ((1e150, 1e150, 0.0), (-1e150, 0.0, 1e-300))):
            sample = vacuum.pair_shift_sample(p3, k3)
            assert math.isfinite(sample.spinor_factor) and sample.shift_density <= 0.0


class TestThreeVectorShape:
    @staticmethod
    def entry_points(bad):
        """Every vacuum entry point with `bad` as its k3 or its p3, by argument name."""
        p3 = (0.3, -0.2, 0.7)
        return {
            "k3": (lambda: total_shift(bad, 1e4), lambda: pair_coupling(p3, bad),
                   lambda: outgoing_eta(p3, bad, 1.0), lambda: vacuum.pair_shift_sample(p3, bad),
                   lambda: shift_density(p3, bad), lambda: corrected_pair_coupling(p3, bad)),
            "p3": (lambda: pair_coupling(bad, K3), lambda: outgoing_eta(bad, K3, 1.0),
                   lambda: vacuum.pair_shift_sample(bad, K3), lambda: shift_density(bad, K3),
                   lambda: corrected_pair_coupling(bad, K3)),
        }

    # two components once raised a bare unpacking ValueError, a nested vector a
    # TypeError, and total_shift integrated a four-vector at |k| = 7.02
    @pytest.mark.parametrize("bad", [(0.0, 0.5), (0.0, 0.0, 0.5, 7.0), [[0.0, 0.0, 0.5]]])
    def test_rejected_at_every_entry_point(self, bad):
        message = rf"^{{}} must be 3 numbers, got an array of shape {re.escape(str(np.shape(bad)))}$"
        for name, fns in self.entry_points(bad).items():
            for fn in fns:
                with pytest.raises(ConfigError, match=message.format(name)):
                    fn()

    # each once raised numpy's bare ValueError, TypeError or OverflowError from
    # np.array(..., dtype=float)
    @pytest.mark.parametrize("bad, reason", [
        ([[0, 0], [0.5]], "inhomogeneous shape"),
        ([0.1, [0.2], 0.3], "inhomogeneous shape"),
        ("abc", "could not convert string to float: 'abc'"),
        ((0.1, "x", 0.3), "could not convert string to float: 'x'"),
        ({}, "not 'dict'"),
        ((10**400, 0.0, 0.5), "int too large to convert to float"),
    ])
    def test_unconvertible_rejected_at_every_entry_point(self, bad, reason):
        message = rf"^{{}} must be 3 numbers: .*{re.escape(reason)}"
        for name, fns in self.entry_points(bad).items():
            for fn in fns:
                with pytest.raises(ConfigError, match=message.format(name)):
                    fn()

    def test_both_wrong_names_p3(self):
        with pytest.raises(ConfigError, match="^p3 must be 3 numbers"):
            vacuum.pair_shift_sample((0.3,), (0.0, 0.5))


class TestMassScaling:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m", [1e-150, 1e-80, 1e50])
    def test_shift_is_linear_in_the_mass(self, m):
        # the density is f(p/m, k/m, w/m) / m^2 and d^3p brings m^3; a kernel that
        # folds m^2 into the squared prefactor overflows at m = 1e-80 as 1 / m^4,
        # and a measure that forms r^3 before the profile underflows at m = 1e-150
        reference, _ = total_shift(K3, 1e4, photon_energy=1.3)
        shift, _ = total_shift(m * K3, 1e4 * m, constants=Constants(m_e=m),
                               photon_energy=1.3 * m)
        assert shift == pytest.approx(m * reference, rel=1e-12, abs=0.0)


class TestCrossProductByComponents:
    def test_matches_np_cross(self):
        # the spinor factor reads |p x khat|^2 by components; the reference writes the
        # same trace with np.cross(p, k): |p x k|^2 / |k|^2 + (|p x k|^2 + m^2 |k|^2) / (...)
        rng = np.random.default_rng(35)
        p3s = rng.normal(size=(1000, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(1000, 1))
        for k3 in (K3, np.array([0.3, -0.4, 0.2]), np.array([1.0, 2.0, -0.5])):
            _, spinor_factor, _ = vacuum._density_terms(p3s, k3, NATURAL, float(np.linalg.norm(k3)))
            cross = np.cross(p3s, k3)
            cross_sq = np.einsum("ni,ni->n", cross, cross)
            k_sq = float(k3 @ k3)
            pks = p3s + k3
            e_prod = np.sqrt(np.einsum("ni,ni->n", p3s, p3s) + 1.0) * np.sqrt(
                np.einsum("ni,ni->n", pks, pks) + 1.0)
            dot = np.einsum("ni,ni->n", p3s, pks)
            reference = (cross_sq / k_sq + (cross_sq + k_sq) / (e_prod + dot + 1.0)) / e_prod
            assert np.max(np.abs(spinor_factor - reference) / reference) < 1e-14


class TestTinyWavevector:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_shift_independent_of_tiny_k(self):
        # |k|^2 underflows to zero at 1e-300 and is subnormal at 1e-160
        shifts = [total_shift([size, 0.0, 0.0], 1e4)[0] for size in (1e-300, 1e-160, 1e-100, 1e-8)]
        assert all(math.isfinite(s) and s < 0.0 for s in shifts)
        assert max(shifts) - min(shifts) <= 1e-12 * abs(shifts[-1])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sample_at_tiny_k(self):
        # the factors move by O(|k|) relative, so below 1e-100 they must agree to rounding
        reference = vacuum.pair_shift_sample([0.3, -0.2, 0.7], [1e-100, 0.0, 0.0])
        for size in (1e-300, 1e-160):
            sample = vacuum.pair_shift_sample([0.3, -0.2, 0.7], [size, 0.0, 0.0])
            assert sample.spinor_factor == pytest.approx(reference.spinor_factor, rel=1e-14)
            assert sample.shift_density == pytest.approx(reference.shift_density, rel=1e-14)


class TestTotalShift:
    def test_converged_negative_value(self):
        shift, report = total_shift(K3, 1e3, GridSpec(n_radial=48, n_theta=8, n_phi=4))
        assert shift < 0.0
        assert report.fitted_slope == pytest.approx(-4.0, abs=0.2)

    def test_partial_sums_monotone(self):
        _, report = total_shift(K3, 1e3, GridSpec(n_radial=48, n_theta=8, n_phi=4))
        assert np.all(np.diff(report.partial_sums) < 0.0)

    def test_cutoff_stability(self):
        grid = GridSpec(n_radial=64, n_theta=8, n_phi=4)
        s1, _ = total_shift(K3, 1e3, grid)
        s2, _ = total_shift(K3, 2e3, grid)
        assert abs(s1 - s2) / abs(s2) < 0.02

    def test_tail_halves(self):
        grid = GridSpec(n_radial=64, n_theta=8, n_phi=4)
        _, report_1k = total_shift(K3, 1e3, grid)
        _, report_2k = total_shift(K3, 2e3, grid)
        # the last tail estimate of each report sits exactly at its cutoff
        ratio = report_2k.tail_estimates[-1] / report_1k.tail_estimates[-1]
        assert ratio == pytest.approx(0.5, abs=0.05)

    def test_grid_refinement_self_consistency(self):
        grid = GridSpec(n_radial=48, n_theta=8, n_phi=4)
        coarse, _ = total_shift(K3, 1e3, grid)
        fine, _ = total_shift(K3, 1e3, GridSpec(n_radial=96, n_theta=8, n_phi=4))
        assert abs(coarse - fine) / abs(fine) < 1e-3

    def test_too_coarse_raises(self):
        with pytest.raises(GridTooCoarse):
            total_shift(K3, 1e3, GridSpec(n_radial=4, n_theta=8, n_phi=4))

    def test_cutoff_precondition(self):
        with pytest.raises(ConfigError):
            total_shift(K3, 5.0)

    def test_threads_bitwise_identical(self):
        grid = GridSpec(n_radial=32, n_theta=8, n_phi=4)
        single, _ = total_shift(K3, 1e3, grid, n_threads=1)
        multi, _ = total_shift(K3, 1e3, grid, n_threads=4)
        assert single == multi

    def test_density_scales_as_inverse_volume(self):
        p3 = np.array([0.4, -1.3, 0.7])
        scaled = shift_density(p3, K3, Constants(V=4.0))
        assert 4.0 * scaled == pytest.approx(shift_density(p3, K3), rel=1e-15, abs=0.0)

    def test_mode_volume_cancels(self):
        # the V of the measure cancels the 1/V of the density at any representable V
        shifts = [total_shift(K3, 1e4, constants=Constants(V=v))[0] for v in (1e-300, 1.0, 1e300)]
        for shift in shifts:
            assert shift == pytest.approx(shifts[1], rel=1e-14, abs=0.0)

    def test_report_csv(self):
        _, report = total_shift(K3, 1e3, GridSpec(n_radial=32, n_theta=8, n_phi=4))
        buf = io.StringIO()
        report.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "cutoff,partial_sum,tail_estimate"
        assert len(lines) == len(report.cutoffs) + 1


def product_grid_shift(k3, cutoff, n_radial=96, n_theta=64, n_phi=64, p_min=1e-4):
    """Reference: the same log-radial rule with a theta x phi grid polar on z."""
    k3 = np.asarray(k3, dtype=float)
    cos_t, w_t = np.polynomial.legendre.leggauss(n_theta)
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    sin_t = np.sqrt(1.0 - cos_t * cos_t)
    dirs = np.stack(
        [np.outer(sin_t, np.cos(phis)), np.outer(sin_t, np.sin(phis)),
         np.repeat(cos_t[:, None], n_phi, axis=1)],
        axis=-1,
    ).reshape(-1, 3)
    wts = np.repeat(w_t * 2.0 * math.pi / n_phi, n_phi)
    x, w = np.polynomial.legendre.leggauss(4)
    log_edges = np.linspace(math.log(p_min), math.log(cutoff), n_radial + 1)
    total = 0.0
    for lo, hi in zip(log_edges[:-1], log_edges[1:]):
        radii = np.exp(0.5 * (lo + hi) + 0.5 * (hi - lo) * x)
        points = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
        _, _, dens = vacuum._density_terms(points, k3, NATURAL, float(np.linalg.norm(k3)))
        profile = dens.reshape(radii.size, -1) @ wts
        total += float(0.5 * (hi - lo) * w @ (radii**3 * profile))
    return NATURAL.V / (2.0 * math.pi) ** 3 * total


class TestAlignedAngularRule:
    def test_axis_directions_bit_identical(self):
        shifts = [total_shift(0.5 * axis, 1e4)[0] for axis in np.eye(3)]
        assert shifts[0] == shifts[1] == shifts[2]

    def test_oblique_k_matches_axis(self):
        direction = np.array([0.3, -0.4, 0.2]) / math.sqrt(0.29)
        oblique, _ = total_shift(0.5 * direction, 1e4)
        on_axis, _ = total_shift(K3, 1e4)
        assert oblique == pytest.approx(on_axis, rel=1e-13, abs=0.0)

    def test_n_phi_has_no_effect(self):
        k3 = np.array([0.3, -0.4, 0.2])
        one, report_one = total_shift(k3, 1e3, GridSpec(n_phi=1))
        eight, report_eight = total_shift(k3, 1e3, GridSpec(n_phi=8))
        assert one == eight
        assert np.array_equal(report_one.partial_sums, report_eight.partial_sums)

    @pytest.mark.parametrize("k3, rel", [
        ((0.3, -0.4, 0.2), 1e-12),
        ((1.0, 2.0, -0.5), 1e-5),
    ])
    def test_default_grid_against_product_grid(self, k3, rel):
        shift, _ = total_shift(k3, 1e4)
        reference = product_grid_shift(k3, 1e4)
        assert shift == pytest.approx(reference, rel=rel, abs=0.0)


def cartesian_route(k3, cutoff, photon_energy=None, n_radial=96, n_theta=16):
    """Reference: radii x directions as 3-vectors through `_density_terms`.

    The directions are a Gauss rule in the angle to the actual khat, so an
    oblique k runs through the Cartesian entry by components. Returns the
    partial sums per radial panel.
    """
    k3 = np.asarray(k3, dtype=float)
    k_norm = float(np.linalg.norm(k3))
    omega = k_norm if photon_energy is None else photon_energy
    khat = k3 / k_norm
    seed = np.eye(3)[np.argmin(np.abs(khat))]
    e1 = seed - (seed @ khat) * khat
    e1 /= np.linalg.norm(e1)
    cos_t, w_t = np.polynomial.legendre.leggauss(n_theta)
    dirs = np.sqrt(1.0 - cos_t * cos_t)[:, None] * e1 + cos_t[:, None] * khat
    x, w = np.polynomial.legendre.leggauss(4)
    log_edges = np.linspace(math.log(1e-4), math.log(cutoff), n_radial + 1)
    panels = []
    for lo, hi in zip(log_edges[:-1], log_edges[1:]):
        radii = np.exp(0.5 * (lo + hi) + 0.5 * (hi - lo) * x)
        points = radii[:, None, None] * dirs[None, :, :]
        _, _, dens = vacuum._density_terms(points, k3, NATURAL, omega)
        profile = dens @ (2.0 * math.pi * w_t)
        panels.append(0.5 * (hi - lo) * w @ (radii**3 * profile))
    return NATURAL.V / (2.0 * math.pi) ** 3 * np.cumsum(panels)


class TestCylindricalKernel:
    @pytest.mark.parametrize("k3, energy", [
        ((0.0, 0.0, 0.5), None),
        ((0.3, -0.4, 0.2), None),
        ((1.0, 2.0, -0.5), None),
        ((0.0, 0.0, 0.5), 1.3),
    ])
    def test_total_shift_matches_cartesian_route(self, k3, energy):
        shift, report = total_shift(k3, 1e4, photon_energy=energy)
        reference = cartesian_route(k3, 1e4, photon_energy=energy)
        assert shift == pytest.approx(reference[-1], rel=1e-13, abs=0.0)
        assert np.max(np.abs(report.partial_sums / reference - 1.0)) < 1e-13

    def test_batch_matches_rows(self):
        rng = np.random.default_rng(36)
        p3s = rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(200, 1))
        # odd 27-bit integers times powers of two square to exact ties, which C pow
        # (a float's `**`) rounds differently from x * x in about a quarter of cases
        ties = (2 * rng.integers(2**25, 2**26, size=(40, 3)) + 1) * 2.0 ** rng.integers(
            -40, 0, size=(40, 1))
        p3s = np.concatenate((p3s, ties))
        for k3 in (K3, np.array([0.3, -0.4, 0.2]), np.array([1.0, 2.0, -0.5])):
            # the photon energy pair_shift_sample takes: np.linalg.norm rounds by
            # the BLAS kernel and may differ from it in the last bit
            batch = vacuum._density_terms(p3s, k3, NATURAL, math.hypot(*k3.tolist()))
            for i, p3 in enumerate(p3s):
                sample = vacuum.pair_shift_sample(p3, k3)
                rows = (sample.eta1, sample.spinor_factor, sample.shift_density)
                # squares are products on floats and arrays alike, so bit for bit
                assert [row.hex() for row in rows] == [float(column[i]).hex() for column in batch]

    @pytest.mark.parametrize("m", [1e-150, 1.0, 1e50])
    def test_float_sample_bit_identical_to_arrays(self, m):
        # one kernel: Python floats of one sample and the array path agree bit for
        # bit, element by element, from |p| = 1e150 down to m = 1e-150, signed zeros included
        rng = np.random.default_rng(38)
        p3s = rng.normal(size=(300, 3)) * m * 10.0 ** rng.uniform(-3.0, 3.0, size=(300, 1))
        p3s[:6] = [[1e150, 0.0, 0.0], [0.0, -1e150, 1e149], [-0.0, 0.3 * m, -0.0],
                   [0.0, -0.0, m], [-0.0, -0.0, -2.0 * m], [0.2 * m, -0.0, 0.0]]
        p3s[6:40, rng.integers(0, 3, size=34)] *= -0.0
        for k3 in (m * np.array([0.3, -0.4, 0.2]), m * np.array([-0.0, 0.0, 0.5]),
                   np.array([1e-100 * m, -0.0, 0.0])):
            k_list = k3.tolist()
            k_norm = math.hypot(*k_list)
            p_sq, *cylindrical = vacuum._cylindrical_coordinates(*p3s.T, k_list, k_norm)
            for energy in (k_norm, 0.0, -0.5 * k_norm, 1.5 * m):
                arrays = vacuum._cylindrical_terms(*vacuum._energies(p_sq, m), *cylindrical,
                                                   k_norm, m, energy)
                for i in range(len(p3s)):
                    floats = vacuum._cylindrical_terms(
                        *vacuum._energies(float(p_sq[i]), m),
                        *(float(c[i]) for c in cylindrical), k_norm, m, energy)
                    assert all(type(term) is float for term in floats)
                    assert [term.hex() for term in floats] == [
                        float(array[i]).hex() for array in arrays]

    def test_sample_equals_grid_node(self):
        # along, against and across k = (0, 0, |k|) the Cartesian reduction is exact
        # for radii with exact squares, so a sample is the grid kernel's density
        # at the (r, cos theta) node times -2 P0, bit for bit
        scale = -2.0 * coupling_prefactor(1.0, 1.0, NATURAL) ** 2
        radii = np.array([2.0**-30 * 1.125, 0.375, 1.25, 3.0, 2.0**40 * 1.5])
        cos_t = np.array([-1.0, 0.0, 1.0])
        for k_norm in (0.5, 2.75):
            for energy in (None, 0.0, 1.3):
                w = k_norm if energy is None else energy
                _, _, grid = vacuum._cylindrical_terms(
                    radii * radii + 1.0, np.sqrt(radii * radii + 1.0),
                    np.multiply.outer(1.0 - cos_t * cos_t, radii * radii),
                    np.multiply.outer(cos_t, radii), k_norm, 1.0, w)
                for j, r in enumerate(radii.tolist()):
                    for node, p3 in ((0, (0.0, 0.0, -r)), (1, (r, 0.0, 0.0)),
                                     (1, (0.0, r, 0.0)), (2, (0.0, 0.0, r))):
                        sample = vacuum.pair_shift_sample(p3, (0.0, 0.0, k_norm),
                                                          photon_energy=energy)
                        assert sample.shift_density.hex() == float(grid[node, j] * scale).hex()

    def test_sample_runs_without_numpy_math(self, monkeypatch):
        # a sample builds its two read-only arrays and nothing else from numpy
        import types

        expected = vacuum.pair_shift_sample([0.3, -0.2, 0.7], K3, photon_energy=0.4)
        monkeypatch.setattr(vacuum, "np", types.SimpleNamespace(array=np.array))
        sample = vacuum.pair_shift_sample([0.3, -0.2, 0.7], K3, photon_energy=0.4)
        assert all(type(field) is float for field in sample[2:])
        assert not sample.p3.flags.writeable and not sample.k3.flags.writeable
        assert repr(tuple(sample)) == repr(tuple(expected))

    def test_inputs_read_only_and_unchanged(self):
        # the augmented assignments may write only to the kernel's own temporaries
        rng = np.random.default_rng(37)
        cos_t, _ = np.polynomial.legendre.leggauss(16)
        radii = np.exp(np.linspace(math.log(1e-4), math.log(1e4), 40))
        p3s = rng.normal(size=(64, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(64, 1))
        k3 = np.array([0.3, -0.4, 0.2])
        k_norm = float(np.linalg.norm(k3))
        grid = (radii * radii + 1.0, np.sqrt(radii * radii + 1.0),
                np.multiply.outer(1.0 - cos_t * cos_t, radii * radii),
                np.multiply.outer(cos_t, radii))

        def two_sets(*arrays):
            return vacuum._radial_profile((arrays[:4], arrays[4:]), k_norm, GridSpec(), 1.0, 1.3)

        _, panel_radii, panel_half, *_, (coarse, fine, _) = vacuum._grid_table(1.0, 1e4, 8)
        calls = [
            (vacuum._cylindrical_terms, grid, (k_norm, 1.0, 1.3)),
            (vacuum._density_terms, (p3s, k3), (NATURAL, 1.3)),
            (two_sets, (*radius_set(radii, 1.0), *radius_set(2.0 * radii, 1.0)), ()),
            (vacuum._panel_sums, (panel_radii, panel_half),
             ((coarse, fine), k_norm, GridSpec(), 1.0, 1.3)),
        ]
        for fn, arrays, rest in calls:
            copies = [array.copy() for array in arrays]
            expected = fn(*copies, *rest)
            for array in arrays:
                array.setflags(write=False)
            got = fn(*arrays, *rest)
            for array, copy in zip(arrays, copies):
                assert np.array_equal(array, copy)
            for out, want in zip(got if isinstance(got, tuple) else (got,),
                                 expected if isinstance(expected, tuple) else (expected,)):
                assert np.array_equal(out, want)
                assert not any(np.shares_memory(out, array) for array in arrays)

    def test_rules_read_only(self):
        for n in (4, 16):
            for array in vacuum._gauss_rule(n):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0.0

    def test_rules_built_once_per_node_count(self, monkeypatch):
        built = []
        leggauss = np.polynomial.legendre.leggauss

        def counted(n):
            built.append(n)
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        # the angle columns are cached from the rule, so both caches start empty
        vacuum._gauss_rule.cache_clear()
        vacuum._angular_rule.cache_clear()
        for n_theta in (8, 16, 8, 16):
            total_shift(K3, 1e3, GridSpec(n_radial=48, n_theta=n_theta))
        assert sorted(built) == [4, 8, 16]


def radius_set(radii, m):
    """(r, r^2, E^2, E) of `radii`, flat: a `_radius_set` formed here, apart from the grid cache."""
    r = np.ravel(radii)
    return r, r * r, r * r + m * m, np.sqrt(r * r + m * m)


def oracle_profile(radius, k_norm, photon_energy):
    """2 pi times the mpmath integral over cos(theta) of the textbook point density.

    The density is e^2 eta1^2 / (E + E') times the direct trace
    [p.p'_perp + E E' - p.p' - m^2] / (E E') times 1/(w - C) - 1/(w + C), at
    50 digits: at |p| = 1e8 the trace difference cancels 16 of them.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        r, k, w = mp.mpf(radius), mp.mpf(k_norm), mp.mpf(photon_energy)
        e_sq = mp.mpf(NATURAL.e) ** 2
        e_p = mp.sqrt(r * r + 1)

        def density(c):
            p_par, p_perp2 = r * c, r * r * (1 - c * c)
            e_pk = mp.sqrt(p_perp2 + (p_par + k) ** 2 + 1)
            combined = e_p + e_pk
            trace = (p_perp2 + e_p * e_pk - (r * r + k * p_par) - 1) / (e_p * e_pk)
            bracket = 1 / (w - combined) - 1 / (w + combined)
            return e_sq / (e_pk * e_pk * combined) * trace * bracket

        return float(2 * mp.pi * mp.quad(density, [-1, 0, 1]))


class TestRadialProfile:
    # Radii stay a decade away from |k|: for |k| > m the branch point of E' at
    # cos(theta) = -1 - ((r - |k|)^2 + m^2) / (2 r |k|) comes close to the
    # interval there, and the 16-node rule is off by 5e-12 at r = 1 and 5e-6
    # at r = 3 for |k| = 2.29.
    RADII = np.array([1e-4, 1e-2, 0.3, 10.0, 1e2, 1e4, 1e6, 1e8])

    @pytest.mark.parametrize("k_norm", [0.5, 2.29])
    @pytest.mark.parametrize("energy", [None, 1.3, -1.0])
    def test_matches_mpmath_oracle(self, k_norm, energy):
        omega = k_norm if energy is None else energy
        # the sweep runs at unit coupling; the oracle carries P0 = e^2
        profile = vacuum._radial_profile((radius_set(self.RADII, 1.0),), k_norm, GridSpec(),
                                         1.0, omega)
        profile *= coupling_prefactor(1.0, 1.0, NATURAL) ** 2
        for radius, value in zip(self.RADII, profile):
            reference = oracle_profile(radius, k_norm, omega)
            assert value == pytest.approx(reference, rel=1e-13, abs=0.0), radius

    @pytest.mark.parametrize("block_points", [10**9, 1])
    def test_block_size_does_not_change_the_result(self, monkeypatch, block_points):
        # one block for the whole default grid, then one radius per block
        cases = [(K3, None), (np.array([1.0, 2.0, -0.5]), None), (K3, 1.3)]
        blocked = [total_shift(k3, 1e4, photon_energy=w) for k3, w in cases]
        monkeypatch.setattr(vacuum, "_BLOCK_POINTS", block_points)
        for (k3, w), (shift, report) in zip(cases, blocked):
            other, other_report = total_shift(k3, 1e4, photon_energy=w)
            assert other == pytest.approx(shift, rel=1e-15, abs=0.0)
            for field in ("partial_sums", "tail_estimates"):
                got, want = getattr(other_report, field), getattr(report, field)
                assert np.max(np.abs(got / want - 1.0)) <= 1e-15
            assert other_report.fitted_slope == pytest.approx(report.fitted_slope, rel=1e-15)


def three_pass_reference(k3, cutoff, grid, constants, photon_energy):
    """total_shift composed of three separate passes, each its own _radial_profile call.

    The coarse panels, the panels of the doubled grid and the cutoff edges run
    one after another at unit coupling, each grid blocked alone, and P0 is
    applied once to each result; the report is assembled as total_shift
    documents it. Each pass forms its own radii, r^2, E^2 and E, so the
    reference does not read the grid cache. Returns (total, report fields by
    name).
    """
    k_norm = math.hypot(*k3)
    m = constants.m_e
    w = k_norm if photon_energy is None else photon_energy
    p0 = coupling_prefactor(1.0, 1.0, constants.with_volume(1.0)) ** 2
    log_range = (math.log(1e-4 * m), math.log(cutoff))
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(4)

    def integrate(n_radial):
        edges = np.exp(np.linspace(*log_range, n_radial + 1))
        log_edges = np.log(edges)
        lo, hi = log_edges[:-1], log_edges[1:]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        radii = np.exp(mid[:, None] + half[:, None] * gl_nodes)
        profile = vacuum._radial_profile((radius_set(radii, m),), k_norm, grid, m, w)
        integrand = vacuum._cubed_measure(profile.reshape(radii.shape), radii)
        panel_sums = np.einsum("pi,pi->p", half[:, None] * gl_weights, integrand)
        return edges, float(panel_sums.sum()), panel_sums

    edges, unit_total, panel_sums = integrate(grid.n_radial)
    _, unit_refined, _ = integrate(2 * grid.n_radial)
    total = unit_total * p0
    cutoffs = edges[1:]
    shape = vacuum._radial_profile((radius_set(cutoffs, m),), k_norm, grid, m, w)
    window = cutoffs >= cutoff / 100.0 * (1.0 - 1e-9)
    log_p, log_f = np.log(cutoffs[window]), np.log(np.abs(shape[window]))
    log_p -= log_p.sum() / log_p.size
    log_f -= log_f.sum() / log_f.size
    return total, {
        "cutoffs": cutoffs,
        "partial_sums": np.cumsum(panel_sums) * p0,
        "tail_estimates": vacuum._cubed_measure(shape, cutoffs) * p0,
        "fitted_slope": float(log_p @ log_f) / float(log_p @ log_p),
        "refine_delta": abs(unit_total - unit_refined) / abs(unit_refined),
    }


def hex_values(values):
    return [float(v).hex() for v in np.ravel(values)]


class TestOneSweep:
    # total_shift runs the Gauss nodes of both radial grids through one
    # _radial_profile sweep; every report field must be bit for bit the three
    # separate passes it replaces, whatever the block size. n_theta = 96 and 24
    # give 42 and 170 radii per block, not multiples of the BLAS row group: a
    # block that straddled the two grids moves refine_delta in the last bits
    # in both of those cases.
    CASES = [
        ((0.0, 0.0, 0.5), 1e4, GridSpec(), 1.0, None),
        ((0.3, -0.4, 0.2), 1e4, GridSpec(), 1.0, None),
        ((1.0, 2.0, -0.5), 1e4, GridSpec(), 1.0, None),
        ((0.0, 0.0, 0.5), 1e4, GridSpec(), 1.0, 1.3),
        ((0.3, -0.4, 0.2), 1e3, GridSpec(), 1.0, -1.0),
        ((0.0, 0.0, 0.5), 1e4, GridSpec(), 1e-150, 1.3),
        ((0.3, -0.4, 0.2), 1e4, GridSpec(), 1e50, None),
        ((0.0, 0.0, 0.5), 1e4, GridSpec(n_radial=5, n_theta=96), 1.0, None),
        ((0.3, -0.4, 0.2), 1e4, GridSpec(n_radial=97, n_theta=24), 1.0, None),
        ((0.0, 0.0, 0.5), 1e4, GridSpec(n_radial=48, n_theta=1024), 1.0, 1.3),
    ]

    @pytest.mark.parametrize("block_points", [vacuum._BLOCK_POINTS, 1, 10**9])
    @pytest.mark.parametrize("k3, cutoff, grid, m, energy", CASES)
    def test_matches_three_passes(self, monkeypatch, block_points, k3, cutoff, grid, m, energy):
        monkeypatch.setattr(vacuum, "_BLOCK_POINTS", block_points)
        constants = Constants(m_e=m)
        k3 = tuple(m * c for c in k3)
        energy = None if energy is None else m * energy
        shift, report = total_shift(k3, m * cutoff, grid, constants, photon_energy=energy,
                                    refine_tol=100.0)
        reference, fields = three_pass_reference(k3, m * cutoff, grid, constants, energy)
        assert shift.hex() == reference.hex()
        for name, want in fields.items():
            assert hex_values(getattr(report, name)) == hex_values(want), name


def exact_slope(x, y):
    """Least-squares slope of y on x in rational arithmetic on the float inputs."""
    xs, ys = [Fraction(float(v)) for v in x], [Fraction(float(v)) for v in y]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return float(sum((a - mx) * (b - my) for a, b in zip(xs, ys))
                 / sum((a - mx) ** 2 for a in xs))


class TestFittedSlope:
    @pytest.mark.parametrize("k3, energy", [
        ((0.0, 0.0, 0.5), None),
        ((0.3, -0.4, 0.2), None),
        ((0.0, 0.0, 0.5), 1.3),
    ])
    @pytest.mark.parametrize("cutoff", [1e3, 1e4, 1e10, 1e30, 1e60])
    def test_closed_form_matches_polyfit(self, monkeypatch, k3, energy, cutoff):
        # the same points as total_shift's fit: the edge sweep is its last profile,
        # copied as returned (the tail estimates then scale that array in place)
        profiles = []
        radial_profile = vacuum._radial_profile

        def recorded(*args):
            profile = radial_profile(*args)
            profiles.append(profile.copy())
            return profile

        monkeypatch.setattr(vacuum, "_radial_profile", recorded)
        _, report = total_shift(np.array(k3), cutoff, photon_energy=energy)
        window = report.cutoffs >= cutoff / 100.0
        log_p, log_f = np.log(report.cutoffs[window]), np.log(np.abs(profiles[-1][window]))
        assert window.sum() >= 3  # 96 panels: 28 radii at 1e3, 4 at 1e60
        reference = np.polyfit(log_p, log_f, 1)[0]
        assert report.fitted_slope == pytest.approx(reference, rel=1e-13, abs=0.0)
        # the centred closed form keeps the digits that the uncentred fit loses
        # at large log p (polyfit: 1e-14 relative at 1e60)
        assert report.fitted_slope == pytest.approx(exact_slope(log_p, log_f), rel=1e-15, abs=0.0)

    @pytest.mark.filterwarnings("error")
    def test_slope_of_an_underflowing_profile(self):
        # at e = 1e-150 the edge profile, about e^2 p^-4, underflows at a cutoff of
        # 1e60; the fit reads the coupling-free profile, so the slope does not
        # depend on the coupling at all
        _, report = total_shift(K3, 1e60, constants=Constants(e=1e-150))
        _, reference = total_shift(K3, 1e60)
        assert report.fitted_slope == reference.fitted_slope
        assert -4.2 < report.fitted_slope < -3.8
        assert np.all(report.tail_estimates <= 0.0)

    @pytest.mark.filterwarnings("error")
    def test_underflowed_window_has_no_slope(self, monkeypatch):
        # at m = 1e-150 and a cutoff of 1e30 the top edges' unit-coupling profile,
        # about m^2 / r^4 = 1e-420, underflows to zero: the slope is NaN, written null,
        # and no log of a zero is taken
        profiles = []
        radial_profile = vacuum._radial_profile

        def recorded(*args):
            profile = radial_profile(*args)
            profiles.append(profile.copy())
            return profile

        monkeypatch.setattr(vacuum, "_radial_profile", recorded)
        shift, report = total_shift((0.0, 0.0, 5e-151), 1e30, constants=Constants(m_e=1e-150))
        window = report.cutoffs >= 1e28 * (1.0 - 1e-9)
        assert np.any(profiles[-1][window] == 0.0)
        assert math.isnan(report.fitted_slope)
        assert shift < 0.0 and np.all(report.tail_estimates <= 0.0)
        assert '"fitted_slope": null' in dump_json(report.to_json_dict())

    @pytest.mark.filterwarnings("error")
    def test_one_point_window_has_no_slope(self):
        # 4 panels over 10 decades: only the cutoff itself lies in the top two
        _, report = total_shift(K3, 1e6, GridSpec(n_radial=4, n_theta=8), refine_tol=100.0)
        assert np.sum(report.cutoffs >= 1e4) == 1
        assert math.isnan(report.fitted_slope)


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_window_does_not_depend_on_the_mass(self):
        # 96 panels over 8 decades put an edge on cutoff / 100, a few ulps either
        # side of it depending on the mass; it enters the window at every mass
        slopes = {}
        for m in (1e-150, 1e-80, 1.0, 1e50):
            _, report = total_shift(m * K3, 1e4 * m, constants=Constants(m_e=m),
                                    photon_energy=1.3 * m)
            scaled = report.cutoffs / m
            assert np.sum(scaled >= 1e2 * (1.0 - 1e-9)) == 25
            assert np.min(np.abs(scaled / 1e2 - 1.0)) < 1e-12
            slopes[m] = report.fitted_slope
        for m, slope in slopes.items():
            assert slope == pytest.approx(slopes[1.0], rel=1e-13, abs=0.0), m


class TestTotalShiftBounds:
    @pytest.fixture
    def no_quadrature(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("built a quadrature rule past the cap")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_allocation)

    @pytest.mark.parametrize("cutoff", [1e95, 1e103])
    def test_cutoff_cap(self, no_quadrature, cutoff):
        with pytest.raises(ConfigError, match="exceeds"):
            total_shift(K3, cutoff)

    def test_cutoff_at_cap_runs(self):
        shift, report = total_shift(K3, vacuum._MAX_CUTOFF)
        assert shift < 0.0 and math.isfinite(shift)
        assert report.fitted_slope == pytest.approx(-4.0, abs=1e-6)
        assert np.all(np.isfinite(report.tail_estimates))

    @pytest.mark.parametrize("n_radial, n_theta", [
        (96, vacuum._MAX_N_THETA + 1),
        (4, 100_000),
        (10_000_000, 16),
        (vacuum._MAX_GRID_NODES // 16 + 1, 16),
    ])
    def test_grid_cap(self, no_quadrature, n_radial, n_theta):
        with pytest.raises(ConfigError, match="too large"):
            GridSpec(n_radial=n_radial, n_theta=n_theta)

    def test_grid_at_cap_accepted(self):
        GridSpec(n_radial=vacuum._MAX_GRID_NODES // vacuum._MAX_N_THETA,
                 n_theta=vacuum._MAX_N_THETA)
        GridSpec(n_radial=vacuum._MAX_GRID_NODES // 2, n_theta=2)

    @pytest.mark.parametrize("refine_tol", [-1.0, -5e-324, -math.inf])
    def test_negative_refine_tol_rejected_before_integration(self, monkeypatch, refine_tol):
        def no_integral(*args, **kwargs):
            raise AssertionError("integrated with a negative refine_tol")

        monkeypatch.setattr(vacuum, "_radial_profile", no_integral)
        with pytest.raises(ConfigError, match="refine_tol"):
            total_shift(K3, 1e3, GridSpec(n_radial=48, n_theta=8), refine_tol=refine_tol)

    def test_zero_refine_tol_is_valid(self):
        # 0 is a valid tolerance: any nonzero grid-refinement move trips the guard
        with pytest.raises(GridTooCoarse):
            total_shift(K3, 1e3, GridSpec(n_radial=48, n_theta=8), refine_tol=0.0)

    def test_refine_delta_is_the_guarded_move(self):
        # the move of the totals at unit coupling, P0 = 1 at e = 1
        _, report = total_shift(K3, 1e3, GridSpec(n_radial=48, n_theta=8))
        unit = Constants(e=1.0)
        coarse, _ = total_shift(K3, 1e3, GridSpec(n_radial=48, n_theta=8), unit)
        fine, _ = total_shift(K3, 1e3, GridSpec(n_radial=96, n_theta=8), unit)
        assert report.refine_delta == abs(coarse - fine) / abs(fine)
        assert 0.0 < report.refine_delta < 1e-3
        assert report.to_json_dict()["refine_delta"] == report.refine_delta
        total_shift(K3, 1e3, GridSpec(n_radial=48, n_theta=8),
                    refine_tol=report.refine_delta)
        with pytest.raises(GridTooCoarse):
            total_shift(K3, 1e3, GridSpec(n_radial=48, n_theta=8),
                        refine_tol=0.5 * report.refine_delta)


    @pytest.mark.parametrize("refine_tol, error", [
        (0.0, GridTooCoarse), (100.0, RealPairThreshold),
    ])
    def test_edge_threshold_after_grid_guard(self, refine_tol, error):
        # only the cutoff edges reach the threshold here: the node sweep runs clean,
        # so GridTooCoarse comes first and the edge sweep raises only past it
        with pytest.raises(error):
            total_shift((0.0, 0.0, 0.5), 549.9583650285313, GridSpec(n_radial=4),
                        photon_energy=2.0631, refine_tol=refine_tol)

    def test_node_threshold_before_grid_guard(self):
        with pytest.raises(RealPairThreshold, match="reaches the pair threshold"):
            total_shift(K3, 1e3, GridSpec(n_radial=4, n_theta=8), photon_energy=2.5,
                        refine_tol=0.0)

    def test_coupling_scale_checked_before_the_threshold(self):
        # e^2 = 1e-320 is subnormal: a ConfigError before any density is evaluated,
        # also where the photon energy reaches the threshold
        constants = Constants(e=1e-160)
        with pytest.raises(ConfigError, match="coupling scale"):
            total_shift(K3, 1e4, constants=constants, photon_energy=5.0)
        with pytest.raises(ConfigError, match="coupling scale"):
            vacuum.pair_shift_sample((0.1, 0.0, 0.0), K3, constants, photon_energy=5.0)


def report_fields(result):
    shift, report = result
    return [shift.hex(), *(hex_values(getattr(report, name))
                           for name in ("cutoffs", "partial_sums", "tail_estimates")),
            report.fitted_slope.hex(), report.refine_delta.hex()]


class TestGridMemo:
    """total_shift keeps the k-independent half of its grid, one read-only table per
    (m, cutoff, n_radial), in the one-entry lru_cache of _grid_table."""

    OTHER = GridSpec(n_radial=48)
    VECTORS = moller_kinematics(4.0, 1.0, Boost((0.3, -0.2, 0.4)))

    def k_scan(self):
        p1, q1, p2, _ = self.VECTORS
        to_cm = cm_boost(p1 + q1)
        k_cm = (boost(to_cm, p1) - boost(to_cm, p2)).spatial
        return [((0.0, 0.0, 0.5), None), ((0.3, -0.4, 0.2), None), ((1.0, 2.0, -0.5), None),
                ((0.0, 0.0, 0.5), 1.3), ((0.3, -0.4, 0.2), -1.0), (k_cm, None)]

    def test_hits_are_bit_for_bit_misses(self):
        info = vacuum._grid_table.cache_info
        total_shift(K3, 1e4, self.OTHER)
        hits = [report_fields(total_shift(k3, 1e4, photon_energy=w)) for k3, w in self.k_scan()]
        factor = cm_correction_factor(*self.VECTORS, cutoff=1e4)
        # one build per grid: the k-scan and the CM correction hit the default grid's table
        assert (info().misses, info().hits) == (2, len(hits))
        for (k3, w), hit in zip(self.k_scan(), hits):
            total_shift(K3, 1e4, self.OTHER)
            assert report_fields(total_shift(k3, 1e4, photon_energy=w)) == hit
        total_shift(K3, 1e4, self.OTHER)
        assert cm_correction_factor(*self.VECTORS, cutoff=1e4).hex() == factor.hex()
        assert (info().misses, info().hits) == (2 + 2 * len(hits) + 2, len(hits))

    @pytest.mark.parametrize("k3, cutoff, grid, m, energy", TestOneSweep.CASES)
    def test_hit_and_miss_match_three_passes(self, k3, cutoff, grid, m, energy):
        constants = Constants(m_e=m)
        k3 = tuple(m * c for c in k3)
        energy = None if energy is None else m * energy
        reference, fields = three_pass_reference(k3, m * cutoff, grid, constants, energy)
        expected = report_fields((reference, vacuum.ConvergenceReport(**fields)))
        for _ in range(2):  # a miss, then a hit
            result = total_shift(k3, m * cutoff, grid, constants, photon_energy=energy,
                                 refine_tol=100.0)
            assert report_fields(result) == expected

    @pytest.mark.parametrize("m, cutoff, n_radial", [
        (1.0, 1e3, 4), (1.0, 1e4, 96), (1e-150, 1e-140, 48), (1e50, 1e60, 192),
        (1.0, 1e4, vacuum._MAX_GRID_NODES // 2),
    ])
    def test_half_widths_give_the_node_weights_bit_for_bit(self, m, cutoff, n_radial):
        # the table keeps one half-width per panel, and _panel_sums forms the node
        # weights as a rank-1 product: the same floats as the broadcast product
        _, radii, half, *_ = vacuum._grid_table(m, cutoff, n_radial)
        assert half.shape == (3 * n_radial,) and radii.shape == (3 * n_radial, 4)
        w4 = vacuum._gauss_rule(4)[1]
        rank_one = np.dot(half[:, None], w4[None])
        assert rank_one.tobytes() == (half[:, None] * w4).tobytes()

    def test_the_call_after_a_raising_call_matches_a_fresh_build(self):
        # a call that raises leaves the table it built in the cache; the table is a
        # pure function of its key, so the next call reads what a fresh build gives
        info = vacuum._grid_table.cache_info
        for args, kwargs, error in (
            ((K3, 1e3, GridSpec(n_radial=48, n_theta=8)), {"refine_tol": 0.0}, GridTooCoarse),
            ((K3, 1e3, GridSpec(n_radial=4, n_theta=8)), {"photon_energy": 2.5}, RealPairThreshold),
            ((K3, 1e4), {"photon_energy": 2.5}, RealPairThreshold),
        ):
            vacuum._grid_table.cache_clear()
            fresh = report_fields(total_shift(*args, refine_tol=100.0))
            vacuum._grid_table.cache_clear()
            for _ in range(2):
                with pytest.raises(error):
                    total_shift(*args, **{"refine_tol": 100.0, **kwargs})
                hits = info().hits
                assert report_fields(total_shift(*args, refine_tol=100.0)) == fresh
                assert (info().misses, info().hits) == (1, hits + 1)

    def test_report_arrays_do_not_reach_the_memo(self):
        first = total_shift(K3, 1e4)
        expected = report_fields(first)
        report = first[1]
        for name in ("cutoffs", "partial_sums", "tail_estimates"):
            getattr(report, name)[:] = np.nan
        assert report_fields(total_shift(K3, 1e4)) == expected
        assert vacuum._grid_table.cache_info().misses == 1

    @pytest.mark.parametrize("m, cutoff, n_radial", [
        (1.0, 1e4, 96), (1e-150, 1e-140, 48), (1e50, 1e60, 7),
    ])
    def test_every_table_array_is_read_only(self, m, cutoff, n_radial):
        def arrays(entry):
            if isinstance(entry, tuple):
                for item in entry:
                    yield from arrays(item)
            elif isinstance(entry, np.ndarray):
                yield entry

        table = vacuum._grid_table(m, cutoff, n_radial)
        found = list(arrays(table))
        # cutoffs, radii, half, window, log_p and (r, r^2, E^2, E) of three radius sets
        assert len(found) == 5 + 3 * 4
        for array in found:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 0.0

    @pytest.mark.parametrize("m", [1e-150, 1.0, 1e50])
    @pytest.mark.parametrize("n_theta", [16, 96, 1024])
    def test_cached_radius_terms_are_the_per_block_values(self, m, n_theta):
        # each block once formed r^2 = r * r, E^2 = r^2 + m^2 and E = sqrt(E^2) of its own
        # radii; the table's sets must hold those floats, sliced at any block boundary
        cutoffs, radii, _, _, _, _, radius_sets = vacuum._grid_table(m, 1e4 * m, 48)
        assert [radius_set[0].tobytes() for radius_set in radius_sets] == [
            radii[:48].tobytes(), radii[48:].tobytes(), cutoffs.tobytes()]
        cols = max(1, vacuum._BLOCK_POINTS // n_theta)
        for r, r_sq, e_sq, e in radius_sets:
            for start in range(0, r.size, cols):
                block = r[start:start + cols].copy()
                fresh_sq = block * block
                fresh_e_sq = fresh_sq + m * m
                for cached, fresh in ((r_sq, fresh_sq), (e_sq, fresh_e_sq),
                                      (e, np.sqrt(fresh_e_sq))):
                    assert hex_values(cached[start:start + cols]) == hex_values(fresh)

    def test_angle_columns_read_only_and_built_once_per_node_count(self, monkeypatch):
        built = []
        gauss_rule = vacuum._gauss_rule

        def counted(n):
            built.append(n)
            return gauss_rule(n)

        monkeypatch.setattr(vacuum, "_gauss_rule", counted)
        vacuum._angular_rule.cache_clear()
        for n_theta in (8, 16, 8, 16):
            total_shift(K3, 1e3, GridSpec(n_radial=48, n_theta=n_theta))
        assert sorted(n for n in built if n != 4) == [8, 16]
        for n_theta in (8, 16):
            cos_t, weights = gauss_rule(n_theta)
            columns = vacuum._angular_rule(n_theta)
            # the columns the sweep once formed, and the weights times the kernel's -2
            assert [column.tobytes() for column in columns] == [
                cos_t[:, None].tobytes(), (1.0 - cos_t * cos_t)[:, None].tobytes(),
                (-2.0 * (2.0 * math.pi * weights)).tobytes()]
            for column in columns:
                assert not column.flags.writeable
                with pytest.raises(ValueError):
                    column.flat[0] = 0.0

    def test_three_pass_reference_does_not_read_the_cache(self, monkeypatch):
        # the reference forms its own radii, r^2, E^2 and E, so a table bug cannot
        # carry into the reference that the table's results are compared with
        k3, cutoff, grid, m, energy = TestOneSweep.CASES[3]
        shift, report = total_shift(k3, cutoff, grid, Constants(m_e=m), photon_energy=energy,
                                    refine_tol=100.0)

        def no_table(*args):
            raise AssertionError("the reference read the grid table")

        monkeypatch.setattr(vacuum, "_grid_table", no_table)
        reference, fields = three_pass_reference(k3, cutoff, grid, Constants(m_e=m), energy)
        assert report_fields((shift, report)) == report_fields(
            (reference, vacuum.ConvergenceReport(**fields)))

    @pytest.mark.parametrize("k3", [(0.0, 0.0, 0.5), (1.0, 2.0, -0.5)])
    def test_threshold_bound(self, k3):
        grid, cutoff = GridSpec(n_radial=24, n_theta=8), 1e3
        k_norm = math.hypot(*k3)
        bound = math.hypot(k_norm, 2.0) * (1.0 - 1e-10)
        # below sqrt(|k|^2 + 4 m^2), the least E + E' over all momenta, no grid point
        # can reach the threshold
        shift, _ = total_shift(k3, cutoff, grid, photon_energy=math.nextafter(bound, 0.0),
                               refine_tol=1e300)
        assert math.isfinite(shift)
        # the grid's own smallest E + E', over the Gauss nodes of both radial grids and
        # the cutoff edges; just above it the threshold is reached
        cutoffs, radii, *_ = vacuum._grid_table(1.0, cutoff, grid.n_radial)
        r = np.concatenate((radii.ravel(), cutoffs))
        cos_t, _ = np.polynomial.legendre.leggauss(grid.n_theta)
        p_par, p_perp2 = np.multiply.outer(cos_t, r), np.multiply.outer(1.0 - cos_t * cos_t, r * r)
        combined = np.sqrt(r * r + 1.0) + np.sqrt(p_perp2 + (p_par + k_norm) ** 2 + 1.0)
        smallest = float(combined.min())
        assert smallest > bound
        for energy in (smallest * (1.0 + 1e-13), -smallest * (1.0 + 1e-13)):
            with pytest.raises(RealPairThreshold):
                total_shift(k3, cutoff, grid, photon_energy=energy, refine_tol=1e300)


class TestCorrectedAmplitude:
    def setup_method(self):
        self.vectors = moller_kinematics(4.0, 1.0)
        self.spins = (1, 2, 1, 2)

    def test_zero_shift_trivial(self):
        corr = corrected_amplitude(*self.vectors, pair_shift=0.0, spins=self.spins)
        assert corr.first_order == 0.0
        assert corr.exact == pytest.approx(corr.base.total, rel=1e-14)

    def test_factor_structure(self):
        p1, _, p2, _ = self.vectors
        shift = 1e-4
        corr = corrected_amplitude(*self.vectors, pair_shift=shift, spins=self.spins)
        delta_e = p1.t - p2.t
        e_k = float(np.linalg.norm((p1 - p2).spatial))
        expected = (shift / e_k) * (delta_e**2 + e_k**2) / (delta_e**2 - e_k**2)
        assert corr.factor == pytest.approx(expected, rel=1e-14)
        assert corr.first_order == pytest.approx(corr.base.total * expected, rel=1e-14)

    def test_taylor_remainder_quadratic(self):
        base = corrected_amplitude(*self.vectors, pair_shift=0.0, spins=self.spins).base
        min_denom = min(abs(p.denom) for p in base.parts)
        shifts = np.array([1e-5, 3e-5, 1e-4, 3e-4, 1e-3]) * min_denom
        remainders = []
        for s in shifts:
            corr = corrected_amplitude(*self.vectors, pair_shift=float(s), spins=self.spins)
            remainders.append(abs(corr.exact - (corr.base.total + corr.first_order)))
        slope = np.polyfit(np.log(shifts), np.log(remainders), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_guard(self):
        base = corrected_amplitude(*self.vectors, pair_shift=0.0, spins=self.spins).base
        min_denom = min(abs(p.denom) for p in base.parts)
        with pytest.raises(CorrectionTooLarge):
            corrected_amplitude(*self.vectors, pair_shift=0.5 * min_denom, spins=self.spins)

    def test_first_order_linear_in_shift(self):
        one = corrected_amplitude(*self.vectors, pair_shift=1e-5, spins=self.spins)
        three = corrected_amplitude(*self.vectors, pair_shift=3e-5, spins=self.spins)
        assert three.first_order == pytest.approx(3.0 * one.first_order, rel=1e-12)


class TestCorrectionFactorFrames:
    def test_cm_factor_matches_direct_evaluation(self):
        vectors = moller_kinematics(4.0, 1.0)
        grid = GridSpec(n_radial=32, n_theta=8, n_phi=4)
        p1, _, p2, _ = vectors
        k = p1 - p2
        shift, _ = total_shift(k.spatial, 1e3, grid)
        direct = correction_factor(k.t, float(np.linalg.norm(k.spatial)), shift)
        via_boost = cm_correction_factor(*vectors, cutoff=1e3, grid=grid)
        assert via_boost == pytest.approx(direct, rel=1e-10)

    def test_modified_coupling_makes_factor_frame_fixed(self):
        # rescaling the coupling by sqrt(f_cm / f_here) scales the shift by
        # f_cm / f_here, so the re-evaluated factor equals the cm one exactly
        delta_e, e_k = 0.3, 1.2
        shift_here = -2e-4
        f_here = correction_factor(delta_e, e_k, shift_here)
        f_cm = -5e-5
        rescaled_shift = shift_here * (f_cm / f_here)
        assert correction_factor(delta_e, e_k, rescaled_shift) == pytest.approx(
            f_cm, rel=1e-14
        )


class TestCorrectedPairCoupling:
    def test_identity_in_cm(self):
        p3 = (0.2, -0.4, 0.6)
        plain = pair_coupling(p3, K3, 1, 2, 1)
        assert corrected_pair_coupling(p3, K3, 1, 2, 1, -1e-4, -1e-4) == plain

    def test_rescale_value(self):
        p3 = (0.2, -0.4, 0.6)
        plain = pair_coupling(p3, K3, 1, 2, 1)
        out = corrected_pair_coupling(p3, K3, 1, 2, 1, factor_cm=-4e-4, factor_here=-1e-4)
        assert out == pytest.approx(2.0 * plain, rel=1e-14)

    def test_sign_mismatch(self):
        with pytest.raises(SignMismatch):
            corrected_pair_coupling((0.1, 0.2, 0.3), K3, 1, 1, 1, 1e-4, -1e-4)
        with pytest.raises(SignMismatch):
            corrected_pair_coupling((0.1, 0.2, 0.3), K3, 1, 1, 1, 0.0, 1e-4)

    @pytest.mark.parametrize("factor_cm, factor_here, ratio", [
        (math.inf, 1.0, "inf"),
        (1.0, math.inf, "0.0"),
        (-math.inf, -1e-4, "inf"),
        (1e300, 1e-300, "inf"),
        (1e-300, 1e300, "0.0"),
    ])
    def test_ratio_out_of_range(self, factor_cm, factor_here, ratio):
        # each once gave a NaN or zero coupling without an error
        with pytest.raises(ConfigError, match=f"cm / here = {ratio} is not a positive finite"):
            corrected_pair_coupling((0.1, 0.2, 0.3), K3, 1, 1, 1, factor_cm, factor_here)

    @pytest.mark.parametrize("factor_cm, factor_here", [
        (math.nan, 1.0),
        (1.0, math.nan),
        (-1e-4, math.nan),
        (math.nan, math.nan),
        (math.nan, math.inf),
    ])
    def test_nan_factor(self, factor_cm, factor_here):
        # a NaN factor once passed for a sign mismatch, a physics-domain error
        with pytest.raises(ConfigError, match="a correction factor is NaN"):
            corrected_pair_coupling((0.1, 0.2, 0.3), K3, 1, 1, 1, factor_cm, factor_here)


class TestCorrectionFactorDomain:
    def test_zero_photon_energy(self):
        # once a bare ZeroDivisionError
        with pytest.raises(ZeroWavevector, match="undefined for E_k = 0"):
            correction_factor(1.0, 0.0, 1e-3)

    def test_pole_comes_first(self):
        with pytest.raises(PoleEncountered, match="pole at"):
            correction_factor(0.0, 0.0, 1e-3)

    @pytest.mark.parametrize("args", [
        (1e200, 1.0, 1e-3),  # once nan: inf / inf
        (1.0, 1e200, 1e-3),  # once an OverflowError from E_k**2
        (math.nan, 1.0, 1e-3),
        (2.0, 1.0, math.inf),
        (2.0, 1e-300, 1e300),  # the factor itself overflows
    ])
    def test_not_finite(self, args):
        with pytest.raises(ConfigError, match="correction factor is not a finite float"):
            correction_factor(*args)

    def test_finite_values_keep_their_bits(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            delta_e, e_k, shift = (float(x) for x in rng.uniform(-3.0, 3.0, 3))
            expected = (shift / e_k) * (delta_e * delta_e + e_k**2) / (delta_e * delta_e
                                                                       - e_k * e_k)
            assert correction_factor(delta_e, e_k, shift).hex() == expected.hex()


class TestOverflowingCoupling:
    """A coupling whose -2 P0, integral or tail estimates overflow is a ConfigError."""

    @pytest.mark.parametrize("constants", [Constants(eps0=6e-310), Constants(e=1.2e154)])
    def test_density_scale(self, monkeypatch, constants):
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept with an overflowing density scale")

        monkeypatch.setattr(vacuum, "_radial_profile", no_sweep)
        message = r"density scale -2 \(e c hbar\)\^2 / \(V eps0\) is not a finite float"
        for call in (lambda: vacuum._density_scale(constants),
                     lambda: total_shift(K3, 1e4, constants=constants),
                     lambda: vacuum.pair_shift_sample((0.1, 0.2, 0.3), K3, constants)):
            with pytest.raises(ConfigError, match=message):
                call()

    def test_scale_is_the_old_product(self):
        for constants in (NATURAL, Constants(e=1e150), Constants(eps0=1e-300, V=3.0)):
            expected = -2.0 * coupling_prefactor(1.0, 1.0, constants) ** 2
            assert vacuum._density_scale(constants).hex() == expected.hex()
            assert (-0.5 * expected).hex() == (coupling_prefactor(1.0, 1.0, constants) ** 2).hex()

    def test_integral(self):
        # at e = 1e130 the shift is -1.1e308, a finite float; at 1e131 it overflows
        with pytest.raises(ConfigError, match=r"the pair shift overflows: "
                                              r"-2 P0 = -1\.9999999999999997e\+262"):
            total_shift((0.0, 0.0, 1e50), 1e52, constants=Constants(m_e=1e50, e=1e131))

    def test_sample(self):
        # the unit density is finite just below the threshold; times P0 = 1e300 it
        # overflows, where the sample once returned -inf
        args = ((0.0, 0.0, -0.25), (0.0, 0.0, 0.5), Constants(e=1e150))
        energy = 2.0 * math.sqrt(1.0625) * (1.0 - 1e-11)
        message = r"the shift density overflows: -2 P0 = -1\.9999999999999998e\+300 is too "
        for call in (vacuum.pair_shift_sample, shift_density):
            with pytest.raises(ConfigError, match=message):
                call(*args, photon_energy=energy)
        finite = vacuum.pair_shift_sample(*args[:2], Constants(e=1e140), photon_energy=energy)
        assert math.isfinite(finite.shift_density) and finite.shift_density < 0.0

    def test_tail_estimates(self, monkeypatch):
        # the edge sweep runs at unit coupling; a shape this large overflows once
        # scaled by P0, which no reported number may do
        radial_profile = vacuum._radial_profile

        def large_edges(radius_sets, *args):
            profile = radial_profile(radius_sets, *args)
            if len(radius_sets) == 1:
                profile *= 1e307
            return profile

        monkeypatch.setattr(vacuum, "_radial_profile", large_edges)
        with pytest.raises(ConfigError, match="a tail estimate overflows"):
            total_shift(K3, 1e4, constants=Constants(e=1e10))


class TestCouplingScalingLaw:
    """The shift is P0 = coupling_prefactor(1, 1)^2 times a coupling-free integral.

    Every sweep runs at unit coupling and P0 is applied once per result, so the
    fields at charge e are the e = 1 fields times P0 bit for bit, from the
    couplings whose per-point densities would be subnormal floats up to a
    shift next to the largest float; refine_delta, formed from the unit
    coupling sums, keeps its bits at every charge.
    """

    @staticmethod
    def check(k3, cutoff, m, e):
        unit, unit_report = total_shift(k3, cutoff, constants=Constants(m_e=m, e=1.0))
        constants = Constants(m_e=m, e=e)
        p0 = coupling_prefactor(1.0, 1.0, constants) ** 2
        shift, report = total_shift(k3, cutoff, constants=constants)
        assert shift.hex() == (unit * p0).hex()
        for name in ("partial_sums", "tail_estimates"):
            assert hex_values(getattr(report, name)) == hex_values(
                getattr(unit_report, name) * p0), name
        assert report.fitted_slope.hex() == unit_report.fitted_slope.hex()
        return report.refine_delta, unit_report.refine_delta

    @pytest.mark.parametrize("e", [1e-153, 1e-150, 1e-140, 1e-100, 1e-10, 1e10, 1e100])
    def test_fields_are_the_unit_run_times_p0(self, e):
        refine_delta, unit = self.check(K3, 1e60, 1.0, e)
        assert refine_delta.hex() == unit.hex()

    def test_largest_finite_shift(self):
        # the shift is -1.1e308 here; refine_delta sits at the rounding floor
        refine_delta, unit = self.check((0.0, 0.0, 1e50), 1e52, 1e50, 1e130)
        assert refine_delta.hex() == unit.hex()
        with pytest.raises(ConfigError, match="the pair shift overflows"):
            total_shift((0.0, 0.0, 1e50), 1e52, constants=Constants(m_e=1e50, e=1e131))
