import math

import numpy as np
import pytest

from qlambda.dynamics import (
    LevelSystem,
    base_period,
    effective_coupling,
    eliminate_pair_level,
    evolve,
    interaction_frame,
    magnus_second_order,
    two_level_transfer,
)
from qlambda.errors import (
    ConfigError,
    DegenerateLevels,
    IncommensurateGaps,
    PoleEncountered,
)


def lambda_system(omega1=0.1, omega2=0.1, e_ground=0.0, e_excited=10.0):
    couplings = np.zeros((3, 3), dtype=complex)
    couplings[1, 0] = omega1
    couplings[0, 1] = np.conj(omega1)
    couplings[1, 2] = np.conj(omega2)
    couplings[2, 1] = omega2
    return LevelSystem([e_ground, e_excited, e_ground], couplings)


def four_level(omega=0.1, pair=0.1, e_excited=10.0, e_pair=5.0):
    couplings = np.zeros((4, 4), dtype=complex)
    couplings[1, 0] = couplings[0, 1] = omega
    couplings[1, 2] = couplings[2, 1] = omega
    couplings[1, 3] = couplings[3, 1] = pair
    return LevelSystem([0.0, e_excited, 0.0, e_pair], couplings)


class TestLevelSystem:
    def test_validation(self):
        with pytest.raises(ConfigError):
            LevelSystem([0.0, 1.0], [[0, 1.0], [2.0, 0]])  # not Hermitian
        with pytest.raises(ConfigError):
            LevelSystem([0.0, 1.0], [[0.5, 0], [0, 0]])  # diagonal coupling
        with pytest.raises(ConfigError):
            LevelSystem([0.0] * 5, np.zeros((5, 5)))  # too many levels
        with pytest.raises(ConfigError, match="energies"):
            LevelSystem(5.0, np.zeros((1, 1)))
        with pytest.raises(ConfigError, match="finite"):
            LevelSystem([0.0, math.nan], np.zeros((2, 2)))
        with pytest.raises(ConfigError, match="finite"):
            LevelSystem([0.0, math.inf, 0.0], np.zeros((3, 3)))
        with pytest.raises(ConfigError, match="finite"):
            LevelSystem([0.0, 1.0], [[0, math.nan], [math.nan, 0]])  # NaN passes the Hermitian test

    def test_json_round_trip(self):
        sys3 = lambda_system(omega1=0.1 + 0.05j)
        clone = LevelSystem.from_json(sys3.to_json())
        assert np.array_equal(clone.energies, sys3.energies)
        assert np.array_equal(clone.couplings, sys3.couplings)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="mystery"):
            LevelSystem.from_json('{"energies": [0,1], "couplings": [], "mystery": 1}')

    def test_malformed_key_named(self):
        with pytest.raises(ConfigError, match="couplings"):
            LevelSystem.from_json('{"energies": [0, 1], "couplings": "oops"}')


class TestEvolve:
    def test_zero_couplings_flat_populations(self):
        sys2 = LevelSystem([0.0, 3.0], np.zeros((2, 2)))
        psi0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
        traj = evolve(sys2, psi0, 10.0, 0.1)
        pops = traj.populations()
        assert np.max(np.abs(pops - pops[0])) < 1e-12

    def test_resonant_rabi_oracle(self):
        omega = 0.3
        sys2 = LevelSystem([1.0, 1.0], [[0, omega], [omega, 0]])
        traj = evolve(sys2, [1.0, 0.0], 20.0, 0.01)
        expected = np.sin(omega * traj.times) ** 2
        assert np.max(np.abs(traj.populations()[:, 1] - expected)) < 1e-8

    def test_norm_preserved_many_steps(self):
        rng = np.random.default_rng(21)
        couplings = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        couplings = couplings + couplings.conj().T
        np.fill_diagonal(couplings, 0.0)
        sys3 = LevelSystem(rng.normal(size=3), couplings)
        psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi0 /= np.linalg.norm(psi0)
        traj = evolve(sys3, psi0, 1000.0, 0.01)  # 1e5 steps
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_input_validation(self):
        sys2 = LevelSystem([0.0, 1.0], [[0, 0.1], [0.1, 0]])
        with pytest.raises(ConfigError):
            evolve(sys2, [1.0, 1.0], 1.0, 0.1)  # not normalized
        with pytest.raises(ConfigError):
            evolve(sys2, [1.0, 0.0], -1.0, 0.1)

    def test_csv_emission(self, tmp_path):
        sys2 = LevelSystem([0.0, 1.0], [[0, 0.1], [0.1, 0]])
        traj = evolve(sys2, [1.0, 0.0], 1.0, 0.5)
        path = tmp_path / "traj.csv"
        with open(path, "w") as fh:
            traj.write_csv(fh)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,re_0,im_0,re_1,im_1"
        assert len(lines) == len(traj.times) + 1


class TestInteractionFrame:
    def test_t_zero_is_bare_couplings(self):
        sys3 = lambda_system()
        assert np.array_equal(interaction_frame(sys3, 0.0), sys3.couplings)

    def test_periodicity(self):
        sys3 = lambda_system()
        period = base_period(sys3)
        h0 = interaction_frame(sys3, 0.0)
        h1 = interaction_frame(sys3, period)
        assert np.max(np.abs(h1 - h0)) < 1e-12

    def test_lambda_phase_entry(self):
        omega1 = 0.1 + 0.02j
        sys3 = lambda_system(omega1=omega1)
        t = 0.37
        gap = sys3.energies[1] - sys3.energies[0]
        expected = omega1 * np.exp(1j * gap * t)
        assert interaction_frame(sys3, t)[1, 0] == pytest.approx(expected, rel=1e-14)


class TestBasePeriod:
    def test_single_gap(self):
        assert base_period(lambda_system()) == pytest.approx(2 * math.pi / 10.0, rel=1e-14)

    def test_commensurate_pair(self):
        assert base_period(four_level()) == pytest.approx(2 * math.pi / 5.0, rel=1e-12)

    def test_incommensurate_rejected(self):
        couplings = np.zeros((3, 3), dtype=complex)
        couplings[0, 1] = couplings[1, 0] = 0.1
        couplings[1, 2] = couplings[2, 1] = 0.1
        bad = LevelSystem([0.0, 1.0, 1.0 - math.sqrt(2.0)], couplings)
        with pytest.raises(IncommensurateGaps):
            base_period(bad)

    def test_degenerate_rejected(self):
        couplings = np.zeros((2, 2), dtype=complex)
        couplings[0, 1] = couplings[1, 0] = 0.1
        with pytest.raises(DegenerateLevels):
            base_period(LevelSystem([1.0, 1.0], couplings))

    def test_uncoupled_has_no_period(self):
        assert base_period(LevelSystem([0.0, 1.0], np.zeros((2, 2)))) == math.inf


class TestMagnus:
    @pytest.mark.parametrize(
        "system",
        [
            lambda_system(),
            lambda_system(omega1=0.2 + 0.1j, omega2=0.05 - 0.15j),
            LevelSystem([0.0, 10.0], [[0, 0.1], [0.1, 0]]),
            four_level(),
        ],
    )
    def test_analytic_matches_numeric(self, system):
        eff = magnus_second_order(system)
        scale = np.max(np.abs(eff.matrix))
        assert np.max(np.abs(eff.matrix - eff.numeric_matrix)) < 1e-10 * scale

    def test_hermitian(self):
        eff = magnus_second_order(lambda_system(omega1=0.2 + 0.1j))
        for mat in (eff.matrix, eff.numeric_matrix):
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-12

    def test_lambda_transfer_entry(self):
        eff = magnus_second_order(lambda_system())
        assert eff.matrix[2, 0] == pytest.approx(0.01 / (0.0 - 10.0), rel=1e-14)

    def test_one_arm_off_gives_no_transfer(self):
        eff = magnus_second_order(lambda_system(omega2=0.0))
        assert eff.matrix[2, 0] == 0.0
        assert eff.matrix[0, 0] != 0.0  # level shift survives

    def test_two_level_shifts(self):
        sys2 = LevelSystem([0.0, 10.0], [[0, 0.1], [0.1, 0]])
        eff = magnus_second_order(sys2)
        assert eff.matrix[0, 0] == pytest.approx(0.01 / (0.0 - 10.0), rel=1e-14)
        assert eff.matrix[1, 1] == pytest.approx(0.01 / (10.0 - 0.0), rel=1e-14)

    def test_degenerate_rejected(self):
        couplings = np.zeros((2, 2), dtype=complex)
        couplings[0, 1] = couplings[1, 0] = 0.1
        with pytest.raises(DegenerateLevels):
            magnus_second_order(LevelSystem([2.0, 2.0], couplings))


class TestEffectiveCoupling:
    def test_reference_value(self):
        assert effective_coupling(0.1, 0.1, 0.0, 10.0) == pytest.approx(-1e-3, rel=1e-14)

    def test_zero_arm(self):
        assert effective_coupling(0.3, 0.0, 0.0, 10.0) == 0.0

    def test_antisymmetry(self):
        a = effective_coupling(0.1, 0.2, 1.0, 4.0)
        b = effective_coupling(0.1, 0.2, 4.0, 1.0)
        assert a == -b

    def test_pole(self):
        with pytest.raises(PoleEncountered):
            effective_coupling(0.1, 0.1, 2.0, 2.0)


class TestEliminatePairLevel:
    def test_no_coupling_unchanged(self):
        reduced = eliminate_pair_level(four_level(pair=0.0))
        assert np.array_equal(reduced.energies, [0.0, 10.0, 0.0])

    def test_shift_value(self):
        reduced = eliminate_pair_level(four_level(pair=0.1, e_excited=10.0, e_pair=5.0))
        assert reduced.energies[1] == pytest.approx(10.0 + 0.01 / 5.0, rel=1e-14)

    def test_degenerate_pair_rejected(self):
        with pytest.raises(PoleEncountered):
            eliminate_pair_level(four_level(e_pair=10.0))

    def test_couplings_preserved(self):
        sys4 = four_level()
        reduced = eliminate_pair_level(sys4)
        assert np.array_equal(reduced.couplings, sys4.couplings[:3, :3])

    def test_reduced_tracks_full_dynamics(self):
        devs = []
        for ratio in (1e-1, 1e-2):
            sys4 = four_level(omega=0.5, pair=ratio * 5.0)
            reduced = eliminate_pair_level(sys4)
            coupling = effective_coupling(0.5, 0.5, 0.0, reduced.energies[1])
            t_final = math.pi / (2.0 * abs(coupling))
            dt = base_period(sys4)
            dt *= max(1, int(math.ceil(t_final / dt / 2000)))
            full = evolve(sys4, [1, 0, 0, 0], t_final, dt)
            small = evolve(reduced, [1, 0, 0], t_final, dt)
            devs.append(
                float(np.max(np.abs(full.populations()[:, 2] - small.populations()[:, 2])))
            )
        assert devs[0] / devs[1] >= 5.0


class TestOracleEquivalence:
    def test_transfer_matches_two_level_model(self):
        devs = []
        for ratio in (1e-1, 1e-2):
            omega = ratio * 10.0
            sys3 = lambda_system(omega1=omega, omega2=omega)
            coupling = effective_coupling(omega, omega, 0.0, 10.0)
            t_final = math.pi / (2.0 * abs(coupling))
            dt = base_period(sys3)
            dt *= max(1, int(math.ceil(t_final / dt / 2500)))
            traj = evolve(sys3, [1, 0, 0], t_final, dt)
            predicted = two_level_transfer(coupling, traj.times)
            devs.append(float(np.max(np.abs(traj.populations()[:, 2] - predicted))))
        assert devs[0] / devs[1] >= 5.0
