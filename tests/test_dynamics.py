import io
import math

import numpy as np
import pytest

from qlambda import dynamics
from qlambda.amplitudes import DiagramAmplitude
from qlambda.dynamics import (
    LevelSystem,
    Trajectory,
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
    StepTooLarge,
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


def complex_four_level(omega=0.3 * np.exp(0.4j), pair=0.05 * np.exp(-1.1j)):
    """Pair system with complex couplings, stored as lower triangle plus its adjoint."""
    couplings = np.zeros((4, 4), dtype=complex)
    couplings[1, 0] = couplings[1, 2] = omega
    couplings[3, 1] = pair
    return LevelSystem([0.0, 10.0, 0.0, 5.0], couplings + couplings.conj().T)


def chain_four_level():
    """Chain 0 - 1 - 2 - 3 with complex couplings: second-order paths run through 1 and 2."""
    couplings = np.zeros((4, 4), dtype=complex)
    couplings[1, 0] = 0.2 * np.exp(0.3j)
    couplings[2, 1] = 0.15 * np.exp(-1.2j)
    couplings[3, 2] = 0.1 * np.exp(2.1j)
    return LevelSystem([0.0, 10.0, 2.0, 7.0], couplings + couplings.conj().T)


def fully_coupled_four_level():
    """Every pair coupled, complex couplings, commensurate gaps."""
    rng = np.random.default_rng(17)
    couplings = np.tril(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)), -1)
    return LevelSystem([0.0, 10.0, 3.0, 5.0], 0.1 * (couplings + couplings.conj().T))


def random_system(n, seed):
    """Complex Hermitian zero-diagonal couplings on random level energies."""
    rng = np.random.default_rng(seed)
    couplings = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    couplings = couplings + couplings.conj().T
    np.fill_diagonal(couplings, 0.0)
    return LevelSystem(rng.normal(size=n), couplings)


def loop_paths(system):
    """j, l and k of every path j -> l -> k of two nonzero couplings, ascending in (j, l, k)."""
    coupled = system.couplings != 0
    return [axis.tolist() for axis in np.nonzero(coupled[:, :, None] & coupled[None, :, :])]


def loop_secular(system):
    """The secular matrix as a loop over all (j, l, k), skipping zero couplings."""
    energies = system.energies.tolist()
    couplings = system.couplings.tolist()
    n = len(energies)
    tol = dynamics._match_tol(energies)
    out = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            if not abs(energies[j] - energies[k]) <= tol:
                continue
            acc = 0.0 + 0.0j
            for l in range(n):
                if couplings[j][l] == 0.0 or couplings[l][k] == 0.0:
                    continue
                acc += couplings[j][l] * couplings[l][k] / (energies[k] - energies[l])
            out[j, k] = acc
    return out


def loop_evolve(system, psi0, t_final, dt, hbar=1.0):
    """Oracle: apply the one-step propagator expm(-i H dt / hbar) step by step."""
    n_steps = max(1, int(round(t_final / dt)))
    evals, evecs = np.linalg.eigh(system.hamiltonian())
    step = (evecs * np.exp(-1j * evals * dt / hbar)) @ evecs.conj().T
    psi = np.asarray(psi0, dtype=complex)
    states = np.empty((n_steps + 1, system.n_levels), dtype=complex)
    states[0] = psi
    for i in range(1, n_steps + 1):
        psi = step @ psi
        states[i] = psi
    return states


def gauss_double_commutator(system, hbar=1.0, n_nodes=96):
    """Oracle: the averaged half double-commutator with both integrals by Gauss rule."""
    period = base_period(system, hbar)
    gaps = (system.energies[:, None] - system.energies[None, :]) / hbar
    couplings = system.couplings
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    outer_t = 0.5 * period * (nodes + 1.0)
    outer_w = 0.5 * period * weights
    k_outer = couplings * np.exp(1j * gaps * outer_t[:, None, None])
    inner_t = 0.5 * outer_t[:, None] * (nodes[None, :] + 1.0)
    inner_w = 0.5 * outer_t[:, None] * weights[None, :]
    k_inner = couplings * np.exp(1j * gaps * inner_t[:, :, None, None])
    inner_int = np.einsum("oi,oijk->ojk", inner_w, k_inner)
    comm = k_outer @ inner_int - inner_int @ k_outer
    double = 0.5 * np.einsum("o,ojk->jk", outer_w, comm)
    return -1j * double / (hbar * period)


def direct_phase_states(system, psi0, times, hbar):
    """Oracle: psi(t) = V exp(-i lambda t / hbar) V^dagger psi0, one sample at a time."""
    evals, evecs = np.linalg.eigh(system.hamiltonian())
    coeffs = evecs.conj().T @ np.asarray(psi0, dtype=complex)
    return np.array([evecs @ (np.exp(-1j / hbar * (t * evals)) * coeffs) for t in times])


def node_loop_commutator(system, hbar=1.0):
    """Oracle: the averaged half double-commutator node by node, each entry summed exactly.

    Same exact inner integral and Gauss outer rule as magnus_second_order, but
    every term w_o (K_o I_o - I_o K_o)[j, k] goes into one math.fsum per entry.
    A system without couplings has no period and a zero commutator.
    """
    period = base_period(system, hbar)
    if math.isinf(period):
        return np.zeros((system.n_levels,) * 2, dtype=complex)
    nodes, weights = dynamics._unit_gauss_rule()
    gaps = (system.energies[:, None] - system.energies[None, :]) / hbar
    couplings = system.couplings
    sigma = (period * nodes)[:, None, None]
    k_outer = couplings * np.exp(1j * gaps * sigma)
    inner_int = couplings * sigma * np.exp(0.5j * gaps * sigma) * np.sinc(
        gaps * sigma / (2.0 * math.pi)
    )
    w = weights[:, None]
    n = system.n_levels
    total = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            terms = np.concatenate([
                (w * k_outer[:, j, :] * inner_int[:, :, k]).ravel(),
                (-w * inner_int[:, j, :] * k_outer[:, :, k]).ravel(),
            ])
            total[j, k] = complex(math.fsum(terms.real), math.fsum(terms.imag))
    return -0.5j / hbar * total


def split_phase_evolve(system, psi0, t_final, dt, hbar=1.0):
    """Reference: evolve's closed form with the fine and the coarse phases from two exp calls.

    Returns the sample times, the states and the largest norm drift taken
    over the whole drift array.
    """
    n = system.n_levels
    rows = max(1, int(round(t_final / dt))) + 1
    block = math.isqrt(rows)
    evals, evecs = np.linalg.eigh(system.hamiltonian())
    psi = np.asarray(psi0, dtype=complex)
    fine = np.exp(-1j / hbar * np.outer(np.arange(block) * dt, evals))
    coarse = np.exp(-1j / hbar * np.outer(np.arange(0, rows, block) * dt, evals))
    weighted = evecs * (evecs.conj().T @ psi)
    folded = fine.T[:, :, None] * weighted.T[:, None, :]
    states = (coarse @ folded.reshape(n, -1)).reshape(-1, n)[:rows]
    states[0] = psi
    flat = states[1:].view(float)
    drift = np.abs(np.sqrt(np.einsum("ij,ij->i", flat, flat)) - 1.0)
    return np.arange(rows) * dt, states, float(drift.max())


def benchmark_systems():
    """The six seed-1 systems of the lambda-dynamics benchmark and the README system, by name.

    As perfbench/workloads.py lambda_documents builds them from its seed-1
    draws: a Lambda and a 4-level pair family at coupling ratios 1e-1, 1e-2, 1e-3.
    """
    gap, scale = 12.5, 0.9155350650396977
    phases = np.exp(1j * np.array([2.7073113732669194, 2.63893235882524]))
    e1 = 10.0 * scale
    systems = {}
    for ratio in (1e-1, 1e-2, 1e-3):
        c = np.zeros((3, 3), dtype=complex)
        c[1, 0], c[1, 2] = ratio * gap * phases
        systems[f"lambda-{ratio:g}"] = LevelSystem([0.0, gap, 0.0], c + c.conj().T)
        c = np.zeros((4, 4), dtype=complex)
        c[1, 0] = c[1, 2] = 0.3 * scale
        c[1, 3] = ratio * 0.5 * e1
        systems[f"pair-{ratio:g}"] = LevelSystem([0.0, e1, 0.0, 0.5 * e1], c + c.conj().T)
    systems["readme"] = lambda_system()
    return systems


def cellwise_csv(trajectory):
    """Oracle: format the trajectory one cell at a time."""
    fh = io.StringIO()
    n = trajectory.states.shape[1]
    header = ["t"]
    for i in range(n):
        header += [f"re_{i}", f"im_{i}"]
    fh.write(",".join(header) + "\n")
    for t, state in zip(trajectory.times, trajectory.states):
        row = [f"{t:.17g}"]
        for c in state:
            row += [f"{c.real:.17g}", f"{c.imag:.17g}"]
        fh.write(",".join(row) + "\n")
    return fh.getvalue()


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

    @pytest.mark.parametrize("z, z_t, message", [
        # finite parts whose moduli overflow: Python abs of such a complex raises
        (complex(1.5e308, 1.5e308), complex(1.5e308, -1.5e308), None),
        # Hermitian part in range, residual z - conj(z_t) = 1.3e308 (1 + i) overflows
        (complex(6.5e307, 6.5e307), complex(-6.5e307, 6.5e307), "couplings must be Hermitian"),
        # one side overflows, the other is small: far from Hermitian
        (complex(1.5e308, 1.5e308), 0.1, "couplings must be Hermitian"),
    ])
    def test_overflowing_coupling_modulus(self, z, z_t, message):
        couplings = [[0.0, z], [z_t, 0.0]]
        if message is None:
            assert LevelSystem([0.0, 1.0], couplings).couplings[0, 1] == z
        else:
            with pytest.raises(ConfigError, match=message):
                LevelSystem([0.0, 1.0], couplings)

    def test_energy_spread_must_be_finite(self):
        with pytest.raises(ConfigError, match=r"energy spread max - min = inf is not a finite"):
            LevelSystem([0.0, 1e308, -1e308], np.zeros((3, 3)))
        # the largest finite spread is accepted
        wide = LevelSystem([-1e308, 0.0, 7e307], np.zeros((3, 3)))
        assert wide.energies.max() - wide.energies.min() == 1.7e308

    @pytest.mark.parametrize("doc, key", [
        ({"energies": [0, 10**400], "couplings": [[[0, 0]] * 2] * 2}, "energies"),
        ({"energies": [0, 1], "couplings": [[[0, 0], [10**400, 0]], [[0, 0], [0, 0]]]},
         "couplings"),
        ({"energies": [0, 1], "couplings": [[{}, [0, 0]], [[0, 0], [0, 0]]]}, "couplings"),
        ({"energies": [0, 1], "couplings": [[{"re": 0}, [0, 0]], [[0, 0], [0, 0]]]}, "couplings"),
        # energies under the number rule: strings, booleans and nulls are not numbers
        ({"energies": ["0", "10", "0"], "couplings": [[[0, 0]] * 3] * 3}, "energies"),
        ({"energies": [False, 10, 0], "couplings": [[[0, 0]] * 3] * 3}, "energies"),
        ({"energies": [None, 10, 0], "couplings": [[[0, 0]] * 3] * 3}, "energies"),
        ({"energies": None, "couplings": [[[0, 0]] * 3] * 3}, "energies"),
        ({"energies": [0, 1], "couplings": [[[0, 0]], [[0, 0], [0, 0], [0, 0]]]}, "couplings"),
    ])
    def test_malformed_json_values_are_config_errors(self, doc, key):
        # integers too large for a float, values that are not numbers, mappings in
        # place of [re, im] pairs and rows of unequal lengths
        with pytest.raises(ConfigError, match=f"malformed key '{key}'"):
            LevelSystem.from_json_dict(doc)

    @pytest.mark.parametrize("entry", [[0.1, 0, 7], [0.1], [], "ab", 0.1, None])
    def test_coupling_entry_must_be_a_number_pair(self, entry):
        # complex(c[0], c[1]) used to drop a third number
        couplings = [[[0, 0], [0.1, 0]], [[0.1, 0], [0, 0]]]
        couplings[0][1] = entry
        with pytest.raises(ConfigError, match="malformed key 'couplings': entry .* is not an "
                                              r"\[re, im\] pair of numbers"):
            LevelSystem.from_json_dict({"energies": [0, 1], "couplings": couplings})

    @pytest.mark.parametrize("entry, part", [
        ([True, 0], "True"), ([0.1, False], "False"), ([None, 0], "None"),
        (["0.1", "0"], "'0.1'"), ([[0.1], [0]], r"\[0.1\]"),
    ])
    def test_coupling_part_must_be_a_number(self, entry, part):
        # the number rule of every JSON input: complex(c[0], c[1]) accepted booleans
        couplings = [[[0, 0], [0.1, 0]], [[0.1, 0], [0, 0]]]
        couplings[0][1] = entry
        with pytest.raises(ConfigError, match="malformed key 'couplings': each part must be "
                                              f"a number, got {part}$"):
            LevelSystem.from_json_dict({"energies": [0, 1], "couplings": couplings})

    def test_coupling_pairs_of_ints_and_floats_accepted(self):
        system = LevelSystem.from_json_dict(
            {"energies": [0, 1], "couplings": [[[0, 0], [1, -0.5]], [(1, 0.5), [0.0, 0]]]})
        assert system.couplings[0, 1] == 1 - 0.5j and system.couplings[1, 0] == 1 + 0.5j

    def test_caller_arrays_stay_writable_and_unshared(self):
        # float64 and complex128 inputs are the dtypes np.asarray would alias
        e = np.array([0.0, 10.0, 0.0])
        c = np.zeros((3, 3), dtype=complex)
        c[0, 1] = c[1, 0] = 0.1
        system = LevelSystem(e, c)
        e[0] = 5.0
        c[1, 2] = 7.0
        assert system.energies.tolist() == [0.0, 10.0, 0.0]
        assert system.couplings[1, 2] == 0.0
        assert not system.energies.flags.writeable
        assert not system.couplings.flags.writeable

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

    @pytest.mark.parametrize("text", [
        # an integer literal past the digit limit, or, without a limit, past the float range
        '{"energies": [0, 1%s], "couplings": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}' % ("0" * 4999),
        "[" * 100000,
    ], ids=["5000-digits", "deep"])
    def test_unparseable_text_is_a_config_error(self, text):
        with pytest.raises(ConfigError) as caught:
            LevelSystem.from_json(text)
        assert "0" * 400 not in str(caught.value)

    def test_bytes_are_a_config_error(self):
        # json.loads would read UTF-16 bytes that the CLI rejects from a file
        doc = lambda_system().to_json()
        with pytest.raises(ConfigError, match="^a JSON document must be text, got bytes$"):
            LevelSystem.from_json(doc.encode("utf-16"))


class TestEvolve:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_phase_is_a_step_guard(self):
        # |lambda| t / hbar = 10 x 1e308 used to become NaN phases with warnings
        with pytest.raises(StepTooLarge, match="phase lambda t / hbar overflows"):
            evolve(lambda_system(), [1.0, 0.0, 0.0], 1e308, 1e308)
        with pytest.raises(StepTooLarge, match="phase lambda t / hbar overflows"):
            evolve(lambda_system(), [1.0, 0.0, 0.0], 1.0, 1.0, hbar=5e-324)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_sample_time_rejected(self):
        # t_final / dt = 1.7 rounds to two steps, and 2 x 1e308 overflows
        with pytest.raises(ConfigError, match="last sample time 2 x dt overflows"):
            evolve(lambda_system(), [1.0, 0.0, 0.0], 1.7e308, 1e308)

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
        # non-finite input is rejected before stepping
        bad_calls = [
            ([1.0, 0.0], math.inf, 0.1, {}),
            ([1.0, 0.0], math.nan, 0.1, {}),
            ([1.0, 0.0], 1.0, math.inf, {}),
            ([1.0, 0.0], 1.0, math.nan, {}),
            ([1.0, 0.0], 1.0, 0.1, {"hbar": 0.0}),
            ([1.0, 0.0], 1.0, 0.1, {"hbar": -1.0}),
            ([1.0, 0.0], 1.0, 0.1, {"hbar": math.nan}),
            ([1.0, 0.0], 1.0, 0.1, {"hbar": math.inf}),
            ([math.nan, 0.0], 1.0, 0.1, {}),
            ([1.0, complex(0.0, math.inf)], 1.0, 0.1, {}),
            # finite parts whose modulus overflows
            ([complex(1.7e308, 1.7e308), 0.0], 1.0, 0.1, {}),
        ]
        for psi0, t_final, dt, kwargs in bad_calls:
            with pytest.raises(ConfigError):
                evolve(sys2, psi0, t_final, dt, **kwargs)

    @pytest.mark.parametrize("n, seed", [(2, 3), (3, 4), (4, 5)])
    def test_closed_form_matches_step_loop(self, n, seed):
        system = random_system(n, seed)
        rng = np.random.default_rng(seed + 100)
        psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi0 /= np.linalg.norm(psi0)
        hbar, dt = 0.7, 0.013
        traj = evolve(system, psi0, 1e4 * dt, dt, hbar=hbar)
        expected = loop_evolve(system, psi0, 1e4 * dt, dt, hbar=hbar)
        assert traj.states.shape == (10001, n)
        assert np.array_equal(traj.states[0], psi0)
        assert np.max(np.abs(traj.states - expected)) < 1e-11

    # B = isqrt(n_steps + 1) = 31: one block, two, a whole square of
    # samples, one and two past it, and a prime
    @pytest.mark.parametrize("n_steps", [1, 2, 31**2 - 1, 31**2, 31**2 + 1, 2003])
    def test_factored_phases_match_direct_exponentials(self, n_steps):
        system = random_system(4, 7)
        rng = np.random.default_rng(n_steps)
        psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi0 /= np.linalg.norm(psi0)
        hbar, t_final = 0.7, 900.0
        traj = evolve(system, psi0, t_final, t_final / n_steps, hbar=hbar)
        expected = direct_phase_states(system, psi0, traj.times, hbar)
        evals = np.linalg.eigvalsh(system.hamiltonian())
        peak = float(np.max(np.abs(evals))) * traj.times[-1] / hbar
        assert traj.states.shape == (n_steps + 1, 4)
        assert np.array_equal(traj.times, np.arange(n_steps + 1) * (t_final / n_steps))
        assert np.array_equal(traj.states[0], psi0)
        # each phase is good to about one ulp of the largest |lambda| t / hbar
        assert np.max(np.abs(traj.states - expected)) <= 4 * math.ulp(peak)

    def test_max_norm_drift_is_the_guarded_figure(self):
        system = random_system(3, 11)
        traj = evolve(system, [0.0, 1.0, 0.0], 50.0, 0.01)
        flat = traj.states[1:].view(float)
        drift = np.abs(np.sqrt(np.einsum("ij,ij->i", flat, flat)) - 1.0)
        # | sqrt(x) - 1 | peaks at the smallest or the largest squared norm x,
        # so the extreme-norm form is the largest drift exactly
        assert traj.max_norm_drift == float(np.max(drift))
        # np.linalg.norm sums the squares in another order
        norm_drift = np.abs(np.linalg.norm(traj.states[1:], axis=1) - 1.0)
        assert traj.max_norm_drift == pytest.approx(float(np.max(norm_drift)),
                                                    abs=2 * math.ulp(1.0))
        assert 0.0 < traj.max_norm_drift < 1e-13
        assert Trajectory(traj.times, traj.states).max_norm_drift == 0.0

    @pytest.mark.parametrize("name", sorted(benchmark_systems()))
    def test_one_phase_table_is_bit_identical_to_split_phases(self, name):
        system = benchmark_systems()[name]
        n = system.n_levels
        psi0 = np.eye(n)[0]
        coupling = abs(magnus_second_order(system).matrix[2, 0])
        t_final = 1.05 * math.pi / (2.0 * coupling)
        for dt in (base_period(system), t_final / 4096, t_final / 977):
            traj = evolve(system, psi0, t_final, dt)
            times, states, max_drift = split_phase_evolve(system, psi0, t_final, dt)
            assert np.array_equal(traj.times, times)
            assert np.array_equal(traj.states, states)
            assert traj.max_norm_drift == max_drift

    def test_drift_guard_names_first_step(self, monkeypatch):
        sys2 = LevelSystem([0.0, 1.0], [[0, 0.1], [0.1, 0]])
        monkeypatch.setattr(dynamics, "DRIFT_TOL", -1.0)
        with pytest.raises(StepTooLarge, match="at step 1 "):
            evolve(sys2, [1.0, 0.0], 1.0, 0.1)

    @pytest.mark.parametrize(
        "t_final, dt",
        [(1e300, 1e-10), (float(dynamics._MAX_STEPS + 1), 1.0)],
    )
    def test_step_cap(self, monkeypatch, t_final, dt):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated a step table past the cap")

        monkeypatch.setattr(np, "arange", no_allocation)
        sys2 = LevelSystem([0.0, 1.0], [[0, 0.1], [0.1, 0]])
        with pytest.raises(ConfigError, match="cap"):
            evolve(sys2, [1.0, 0.0], t_final, dt)

    def test_csv_matches_cellwise_formatter(self):
        times = np.array([0.0, 1.0, 2.0, 1e300])
        states = np.array(
            [
                [1.0 + 0.0j, complex(-0.0, -0.0)],
                [complex(5e-324, -5e-324), 0.1 + 0.2j],
                [complex(1e300, -1e-300), complex(-1.0 / 3.0, 2.0)],
                [complex(-0.0, 1.0), complex(3.0, -0.0)],
            ]
        )
        traj = Trajectory(times, states)
        fh = io.StringIO()
        traj.write_csv(fh)
        text = fh.getvalue()
        assert text == cellwise_csv(traj)
        assert "-0," in text and "4.9406564584124654e-324" in text

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

    def test_gap_ratio_below_the_fraction_grid_rejected(self):
        # 0.0015 / 2e6 = 7.5e-10 rounds to the fraction 0/1 within the match
        # tolerance, but a gap must complete a nonzero number of cycles
        couplings = np.zeros((3, 3), dtype=complex)
        couplings[0, 1] = couplings[1, 0] = 0.1
        couplings[1, 2] = couplings[2, 1] = 0.1
        system = LevelSystem([-1e6, 1e6, 1e6 + 0.0015], couplings)
        with pytest.raises(IncommensurateGaps, match="is not a small rational"):
            base_period(system)
        with pytest.raises(IncommensurateGaps):
            magnus_second_order(system)

    def test_degenerate_rejected(self):
        couplings = np.zeros((2, 2), dtype=complex)
        couplings[0, 1] = couplings[1, 0] = 0.1
        with pytest.raises(DegenerateLevels):
            base_period(LevelSystem([1.0, 1.0], couplings))

    def test_uncoupled_has_no_period(self):
        assert base_period(LevelSystem([0.0, 1.0], np.zeros((2, 2)))) == math.inf
        assert base_period(LevelSystem([0.0, 1.0], np.zeros((2, 2))), hbar=1e308) == math.inf

    @pytest.mark.parametrize("hbar", [1.0, 0.37, 3e5, 1e-200, 1e200])
    def test_period_bits_are_the_direct_product(self, hbar):
        assert base_period(lambda_system(), hbar=hbar) == 2.0 * math.pi * hbar / 10.0

    @pytest.mark.parametrize("gap, hbar", [(10.0, 1e308), (1e-5, 1e-310)])
    def test_period_in_range_though_2_pi_hbar_is_not(self, gap, hbar):
        # 2 pi hbar overflows or is subnormal, 2 pi hbar / gap is a normal float
        system = LevelSystem([0.0, gap, 0.0], [[0, 0.1, 0], [0.1, 0, 0.1], [0, 0.1, 0]])
        assert base_period(system, hbar=hbar) == pytest.approx(2.0 * math.pi * (hbar / gap), rel=1e-15)

    def test_magnus_at_a_period_past_2_pi_hbar(self):
        system = LevelSystem([0.0, 10.0, 0.0], [[0, 0.1, 0], [0.1, 0, 0.1], [0, 0.1, 0]])
        eff = magnus_second_order(system, hbar=1e308)
        assert math.isfinite(eff.period)
        assert np.allclose(eff.numeric_matrix, eff.matrix, rtol=0.0, atol=1e-12 * np.abs(eff.matrix).max())

    @pytest.mark.parametrize("gap, hbar", [(1.0, 1e308), (1e10, 1e-320)])
    def test_unrepresentable_period_rejected(self, gap, hbar):
        # 2 pi hbar / gap overflows or underflows; neither may read as "uncoupled"
        system = LevelSystem([0.0, gap, 0.0], [[0, 0.1, 0], [0.1, 0, 0.1], [0, 0.1, 0]])
        with pytest.raises(ConfigError, match="common period"):
            base_period(system, hbar=hbar)
        with pytest.raises(ConfigError, match="common period"):
            magnus_second_order(system, hbar=hbar)


class TestMagnus:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("hbar", [5e-324, 3e-308])
    def test_overflowing_gap_over_hbar_rejected(self, hbar):
        with pytest.raises(ConfigError, match="level gaps / hbar overflow"):
            magnus_second_order(lambda_system(), hbar=hbar)

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

    @pytest.mark.parametrize(
        "system, hbar",
        [
            (lambda_system(), 1.0),
            (lambda_system(omega1=0.2 + 0.1j, omega2=0.05 - 0.15j), 0.7),
            (LevelSystem([0.0, 10.0], [[0, 0.1 - 0.3j], [0.1 + 0.3j, 0]]), 1.0),
            (complex_four_level(), 1.3),
        ],
    )
    def test_numeric_matches_double_gauss_rule(self, system, hbar):
        eff = magnus_second_order(system, hbar=hbar)
        expected = gauss_double_commutator(system, hbar=hbar)
        scale = np.max(np.abs(eff.matrix))
        assert np.max(np.abs(eff.numeric_matrix - expected)) < 1e-13 * scale

    @pytest.mark.parametrize(
        "system, hbar",
        [
            (lambda_system(), 1.0),
            (lambda_system(omega1=0.2 + 0.1j, omega2=0.05 - 0.15j), 0.7),
            (LevelSystem([0.0, 10.0], [[0, 0.1 - 0.3j], [0.1 + 0.3j, 0]]), 1.0),
            (four_level(), 1.0),
            (complex_four_level(), 1.3),
            (chain_four_level(), 1.0),
            (fully_coupled_four_level(), 0.8),
            (LevelSystem([0.0, 4.0, 1.0], [[0, 0.2j, 0], [-0.2j, 0, 0], [0, 0, 0]]), 1.0),
            (LevelSystem([0.0, 10.0, 0.0], np.zeros((3, 3))), 1.0),
        ],
    )
    def test_commutator_products_match_node_loop(self, system, hbar):
        # the Gram product over the coupled edges, its scatter onto the paths
        # j -> l -> k, the squared half-angle phases and the sinc from their
        # imaginary part change rounding only
        eff = magnus_second_order(system, hbar=hbar)
        expected = node_loop_commutator(system, hbar=hbar)
        scale = np.max(np.abs(eff.matrix))
        assert np.max(np.abs(eff.numeric_matrix - expected)) <= 1e-15 * scale

    @pytest.mark.parametrize(
        "system, analytic_finite",
        [
            # |G[e, f] - G[f, e]| reaches 2 coupling^2 / gap while coupling^2 / gap is finite
            (LevelSystem([0.0, 1.0], [[0, 1e154], [1e154, 0]]), True),
            (lambda_system(omega1=1e200, omega2=1e200), False),
        ],
    )
    def test_overflow_is_a_config_error(self, system, analytic_finite):
        analytic = dynamics._secular_matrix(system, *loop_paths(system))
        assert np.isfinite(analytic).all() == analytic_finite
        with pytest.raises(ConfigError, match="second-order couplings overflow"):
            magnus_second_order(system)

    def test_edges_built_once_per_call(self, monkeypatch):
        built = []
        coupled_edges = dynamics._coupled_edges

        def counted(system):
            built.append(system)
            return coupled_edges(system)

        monkeypatch.setattr(dynamics, "_coupled_edges", counted)
        for system in (lambda_system(), complex_four_level(), chain_four_level(),
                       LevelSystem([0.0, 10.0, 0.0], np.zeros((3, 3)))):
            built.clear()
            magnus_second_order(system, hbar=0.7)
            assert built == [system]

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("hbar", [1.0, 0.7])
    def test_secular_paths_match_loop_over_all_triples(self, seed, hbar):
        # integer levels with repeats and no coupling between equal levels: every
        # gap is commensurate and nonzero, and the resonant entries off the
        # diagonal collect paths through more than one level
        rng = np.random.default_rng(seed)
        n = 2 + seed % 3
        energies = rng.integers(-3, 4, size=n).astype(float)
        couplings = np.tril(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), -1)
        couplings *= (rng.random((n, n)) < 0.7) & (energies[:, None] != energies[None, :])
        system = LevelSystem(energies, couplings + couplings.conj().T)
        analytic = magnus_second_order(system, hbar=hbar).matrix
        assert analytic.tobytes() == loop_secular(system).tobytes()

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

    @pytest.mark.parametrize(
        "system",
        [
            LevelSystem([2.0, 2.0], [[0, 0.1], [0.1, 0]]),
            # Hermitian within tolerance: the one-sided entry couples the
            # degenerate levels 0 and 1 all the same
            LevelSystem([0.0, 0.0, 1.0], [[0, 0, 0.1], [1e-16, 0, 0], [0.1, 0, 0]]),
        ],
    )
    def test_degenerate_rejected(self, system):
        with pytest.raises(DegenerateLevels):
            magnus_second_order(system)


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

    def test_near_degenerate_levels_follow_the_level_match_rule(self):
        # a gap of 1e-10 matches under 1e-9 max(1, max |E|), as in magnus and elimination
        with pytest.raises(PoleEncountered, match="e1 = 0.0, e2 = 1e-10"):
            effective_coupling(0.1, 0.1, 0.0, 1e-10)
        with pytest.raises(DegenerateLevels):
            magnus_second_order(LevelSystem([0.0, 1e-10], [[0, 0.1], [0.1, 0]]))
        with pytest.raises(PoleEncountered):
            eliminate_pair_level(four_level(e_excited=0.0, e_pair=1e-10))
        # just outside the rule the rate is returned
        assert effective_coupling(0.1, 0.1, 0.0, 2e-9) == pytest.approx(-0.01 / 2e-9, rel=1e-14)

    @pytest.mark.parametrize("e1, e2", [(math.inf, 1.0), (1.0, -math.inf), (math.inf, math.inf),
                                        (math.nan, 1.0), (0.0, math.nan), (1e308, -1e308)],
                             ids=["e1-inf", "e2-minus-inf", "both-inf", "e1-nan", "e2-nan",
                                  "gap-overflows"])
    def test_non_finite_energy_or_gap_is_config_error(self, e1, e2):
        with pytest.raises(ConfigError, match="must be finite"):
            effective_coupling(0.1, 0.1, e1, e2)

    @pytest.mark.parametrize("omega1, omega2", [(math.inf, 0.1), (0.1, complex(0.0, -math.inf)),
                                                (complex(math.nan, 0.1), 0.1), (0.1, math.nan)],
                             ids=["omega1-inf", "omega2-inf-imag", "omega1-nan-real", "omega2-nan"])
    def test_non_finite_coupling_is_config_error(self, omega1, omega2):
        with pytest.raises(ConfigError, match="must be finite"):
            effective_coupling(omega1, omega2, 0.0, 10.0)


def lambda_with_arms(omega1, omega2, e_outer, e_middle):
    """Levels (e_outer, e_middle, e_outer) with omega1 at (0, 1) and omega2 at (1, 2)."""
    rows = [[0j, omega1, 0j], [omega1.conjugate(), 0j, omega2], [0j, omega2.conjugate(), 0j]]
    return LevelSystem([e_outer, e_middle, e_outer], rows)


class TestOneSecondOrderTerm:
    """The paper's term omega1 omega2 / (E1 - E2): the same bits in its three views."""

    @staticmethod
    def bits(z):
        z = complex(z)
        return z.real.hex(), z.imag.hex()

    def test_amplitude_rate_and_secular_entry_agree_bit_for_bit(self):
        rng = np.random.default_rng(27)
        checked = 0
        while checked < 200:
            # nonzero parts, so no signed zero rides on a 0 + z
            omega1, omega2 = (complex(*(rng.choice([-1.0, 1.0], 2) * rng.uniform(0.01, 1.0, 2)))
                              for _ in range(2))
            e1, e2 = rng.uniform(-10.0, 10.0, 2).tolist()
            if abs(e1 - e2) < 0.1:
                continue
            rate = effective_coupling(omega1, omega2, e1, e2)
            ordering = DiagramAmplitude("x", omega1, omega2, e1 - e2).value
            entry = magnus_second_order(lambda_with_arms(omega1, omega2, e1, e2)).matrix[0, 2]
            assert self.bits(rate) == self.bits(ordering) == self.bits(entry)
            checked += 1

    @pytest.mark.parametrize("scale", [1.0, 0.1, 0.01, 1e-3])
    def test_asymmetric_ci_document(self, scale):
        omega1, omega2 = complex(0.1 * scale), complex(0.3 * scale)
        rate = effective_coupling(omega1, omega2, 0.0, 10.0)
        ordering = DiagramAmplitude("x", omega1, omega2, 0.0 - 10.0).value
        entry = magnus_second_order(lambda_with_arms(omega1, omega2, 0.0, 10.0)).matrix[0, 2]
        # real arms: the imaginary parts are zeros, and the secular entry, summed
        # onto a zero matrix, has +0.0 where the term itself has -0.0
        assert self.bits(rate)[0] == self.bits(ordering)[0] == self.bits(entry)[0]
        assert rate.imag == ordering.imag == entry.imag == 0.0


class TestExactLambdaRate:
    """Energies (0, D, 0), arms 0.1 l and 0.3 l: the exact transfer rate and its second order.

    The bright combination of levels 1 and 3 couples to level 2 by sqrt(s),
    s = |O1|^2 + |O2|^2, and the dark one not at all, so the two eigenvalues
    that lie mostly on levels 1 and 3 are 0 and (D - sqrt(D^2 + 4s)) / 2; half
    their splitting is s / (|D| + sqrt(D^2 + 4s)). Second order predicts
    hypot(|M|, (S3 - S1) / 2) = s / (2 |D|), short of it by the fourth-order
    relative term x (1 - x), x = s / D^2, up to O(x^3).
    """

    GAP = 10.0

    def exact_rate(self, scale):
        s = (0.1 * scale) ** 2 + (0.3 * scale) ** 2
        return s / (abs(self.GAP) + math.sqrt(self.GAP * self.GAP + 4.0 * s)), s

    @pytest.mark.parametrize("scale", [1.0, 0.1])
    def test_closed_form_matches_eigh(self, scale):
        system = lambda_with_arms(complex(0.1 * scale), complex(0.3 * scale), 0.0, self.GAP)
        evals = np.linalg.eigh(system.hamiltonian())[0]
        # the dark state at 0 and the bright lower state below it; level 2 lies near GAP
        numeric = 0.5 * float(evals[1] - evals[0])
        exact, _ = self.exact_rate(scale)
        # eigh's floor: a few eps of the largest eigenvalue, over the rate
        assert abs(numeric - exact) / exact <= 4.0 * np.finfo(float).eps * self.GAP / exact

    @pytest.mark.parametrize("scale", [1.0, 0.1, 0.01])
    def test_second_order_is_the_leading_term(self, scale):
        matrix = magnus_second_order(
            lambda_with_arms(complex(0.1 * scale), complex(0.3 * scale), 0.0, self.GAP)).matrix
        s1, s3 = matrix[0, 0].real, matrix[2, 2].real
        predicted = math.hypot(abs(matrix[0, 2]), 0.5 * (s3 - s1))
        exact, s = self.exact_rate(scale)
        x = s / (self.GAP * self.GAP)
        remainder = abs(exact - predicted) / exact
        # the next term is 2 x^3; the remainder carries a few eps of rounding
        assert abs(remainder - x * (1.0 - x)) <= 3.0 * x**3 + 64.0 * np.finfo(float).eps


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
