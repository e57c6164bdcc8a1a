import io
import math
from fractions import Fraction

import numpy as np
import pytest

from qlambda import vacuum
from qlambda.amplitudes import coupling_prefactor
from qlambda.errors import (
    ConfigError,
    CorrectionTooLarge,
    GridTooCoarse,
    RealPairThreshold,
    SignMismatch,
    ZeroWavevector,
)
from qlambda.lorentz import NATURAL, Constants, FourVector, eta, moller_kinematics
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

    def test_linear_in_charge(self):
        p3 = np.array([0.3, -0.2, 0.7])
        base = pair_coupling(p3, K3, 1, 2, 1)
        doubled = pair_coupling(p3, K3, 1, 2, 1, constants=Constants(e=2 * NATURAL.e))
        assert doubled == pytest.approx(2.0 * base, rel=1e-14)

    def test_conjugate_process_same_magnitude(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            p3 = rng.uniform(-1.5, 1.5, 3)
            for alpha in (1, 2):
                forward = pair_coupling(p3, K3, 1, 2, alpha)
                reverse = pair_coupling(p3, K3, 1, 2, alpha, conjugate=True)
                assert abs(forward) == pytest.approx(abs(reverse), rel=1e-12)

    def test_zero_wavevector(self):
        with pytest.raises(ZeroWavevector):
            pair_coupling((0.1, 0.2, 0.3), (0.0, 0.0, 0.0))

    def test_bad_polarization_index(self):
        with pytest.raises(ValueError, match="polarization index must be 1 or 2, got 0"):
            pair_coupling((0.1, 0.2, 0.3), K3, 1, 1, 0)


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
            batch = vacuum._density_terms(p3s, k3, NATURAL, float(np.linalg.norm(k3)))
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
        constants = Constants(m_e=m)
        p3s = rng.normal(size=(300, 3)) * m * 10.0 ** rng.uniform(-3.0, 3.0, size=(300, 1))
        p3s[:6] = [[1e150, 0.0, 0.0], [0.0, -1e150, 1e149], [-0.0, 0.3 * m, -0.0],
                   [0.0, -0.0, m], [-0.0, -0.0, -2.0 * m], [0.2 * m, -0.0, 0.0]]
        p3s[6:40, rng.integers(0, 3, size=34)] *= -0.0
        for k3 in (m * np.array([0.3, -0.4, 0.2]), m * np.array([-0.0, 0.0, 0.5]),
                   np.array([1e-100 * m, -0.0, 0.0])):
            k_list = k3.tolist()
            k_norm = math.hypot(*k_list)
            coordinates = vacuum._cylindrical_coordinates(*p3s.T, k_list, k_norm)
            scale = vacuum._density_scale(constants)
            for energy in (k_norm, 0.0, -0.5 * k_norm, 1.5 * m):
                arrays = vacuum._cylindrical_terms(*coordinates, k_norm, m, energy, scale)
                for i in range(len(p3s)):
                    floats = vacuum._cylindrical_terms(
                        *(float(c[i]) for c in coordinates), k_norm, m, energy, scale)
                    assert all(type(term) is float for term in floats)
                    assert [term.hex() for term in floats] == [
                        float(array[i]).hex() for array in arrays]

    def test_sample_equals_grid_node(self):
        # along, against and across k = (0, 0, |k|) the Cartesian reduction is exact
        # for radii with exact squares, so a sample is the grid kernel's density
        # at the (r, cos theta) node, bit for bit
        radii = np.array([2.0**-30 * 1.125, 0.375, 1.25, 3.0, 2.0**40 * 1.5])
        cos_t = np.array([-1.0, 0.0, 1.0])
        for k_norm in (0.5, 2.75):
            for energy in (None, 0.0, 1.3):
                w = k_norm if energy is None else energy
                _, _, grid = vacuum._cylindrical_terms(
                    radii * radii, np.multiply.outer(1.0 - cos_t * cos_t, radii * radii),
                    np.multiply.outer(cos_t, radii), k_norm, 1.0, w,
                    vacuum._density_scale(NATURAL))
                for j, r in enumerate(radii.tolist()):
                    for node, p3 in ((0, (0.0, 0.0, -r)), (1, (r, 0.0, 0.0)),
                                     (1, (0.0, r, 0.0)), (2, (0.0, 0.0, r))):
                        sample = vacuum.pair_shift_sample(p3, (0.0, 0.0, k_norm),
                                                          photon_energy=energy)
                        assert sample.shift_density.hex() == float(grid[node, j]).hex()

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
        grid = (radii * radii, np.multiply.outer(1.0 - cos_t * cos_t, radii * radii),
                np.multiply.outer(cos_t, radii))
        scale = vacuum._density_scale(NATURAL)

        def two_sets(radii, other, *rest):
            return vacuum._radial_profile((radii, other), *rest)

        edges = np.exp(np.linspace(math.log(1e-4), math.log(1e4), 9))
        fine_edges = np.exp(np.linspace(math.log(1e-4), math.log(1e4), 17))
        calls = [
            (vacuum._cylindrical_terms, grid, (k_norm, 1.0, 1.3, scale)),
            (vacuum._density_terms, (p3s, k3), (NATURAL, 1.3)),
            (two_sets, (radii, 2.0 * radii), (k_norm, GridSpec(), 1.0, 1.3, scale)),
            (vacuum._panel_sums, (edges, fine_edges), (k_norm, GridSpec(), 1.0, 1.3, scale)),
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
        vacuum._gauss_rule.cache_clear()
        for n_theta in (8, 16, 8, 16):
            total_shift(K3, 1e3, GridSpec(n_radial=48, n_theta=n_theta))
        assert sorted(built) == [4, 8, 16]


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
        profile = vacuum._radial_profile(
            (self.RADII,), k_norm, GridSpec(), 1.0, omega, vacuum._density_scale(NATURAL)
        )
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
    one after another, each grid blocked alone; the report is assembled as
    total_shift documents it. Returns (total, report fields by name).
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
        profile = vacuum._radial_profile((radii,), k_norm, grid, m, w, -2.0 * p0)
        integrand = vacuum._cubed_measure(profile.reshape(radii.shape), radii)
        panel_sums = np.einsum("pi,pi->p", half[:, None] * gl_weights, integrand)
        return edges, float(panel_sums.sum()), panel_sums

    edges, total, panel_sums = integrate(grid.n_radial)
    _, refined, _ = integrate(2 * grid.n_radial)
    cutoffs = edges[1:]
    shape = vacuum._radial_profile((cutoffs,), k_norm, grid, m, w, -2.0)
    window = cutoffs >= cutoff / 100.0 * (1.0 - 1e-9)
    log_p, log_f = np.log(cutoffs[window]), np.log(np.abs(shape[window]))
    log_p -= log_p.sum() / log_p.size
    log_f -= log_f.sum() / log_f.size
    return total, {
        "cutoffs": cutoffs,
        "partial_sums": np.cumsum(panel_sums),
        "tail_estimates": vacuum._cubed_measure(shape, cutoffs) * p0,
        "fitted_slope": float(log_p @ log_f) / float(log_p @ log_p),
        "refine_delta": abs(total - refined) / abs(refined),
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
        coarse, report = total_shift(K3, 1e3, GridSpec(n_radial=48, n_theta=8))
        fine, _ = total_shift(K3, 1e3, GridSpec(n_radial=96, n_theta=8))
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
