"""Print the Python-float results of qlambda over a seeded corpus, one line per case.

    python tests/corpus.py [SRC_DIR] > corpus.txt

SRC_DIR is the directory that holds the `qlambda` package, by default the
`src` next to this script. To check that a change keeps every bit, run the
script twice, once on the parent's sources (a `git worktree` or
`git archive` copy of the parent commit) and once on the change, and diff
the two outputs:

    python tests/corpus.py PARENT/src > parent.txt
    python tests/corpus.py > head.txt
    diff parent.txt head.txt

The cases cover the kinematics generators, `boost` and the four-vector
algebra of `lorentz`; the Compton views and `moller_total` over energies,
angles, frames, spins, polarizations, constants and both normalizations, on
a last-call memo miss, on a hit with the very objects and on one with equal
copies; a spin sweep, all 16 index sets of each process in a row on fresh
equal copies of one momentum set and then of its flipped-zero copies;
a momentum set with one Compton channel on its pole, each view in both
orders on misses and on equal copies; `corrected_amplitude`,
`pair_shift_sample` and `boost_scan`; the analytic fields of `dynamics` on
seeded 2-4-level systems at two values of hbar, some with signed-zero
coupling parts: `magnus_second_order`'s `matrix` and `period`,
`base_period`, `eliminate_pair_level` and `effective_coupling`; and the
guards, each as the class and message of the exception it raises. Leaving
out `numeric_matrix` and `evolve`, which run through BLAS, every case is
computed on Python floats or elementwise numpy, so its bytes do not depend
on the BLAS kernel (`tests/cross_host.py` checks the BLAS-bound fields at
tolerance instead). Each line is a label and the case's
fields: a float as `float.hex`, a complex number as its real and imaginary
parts apart, so that -0.0 and NaN show, a record under its type name and a
numpy scalar or array under its dtype. The case count goes to stderr.
"""
from __future__ import annotations

import io
import itertools
import math
import random
import sys
from pathlib import Path

SRC = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from qlambda import (  # noqa: E402
    Boost,
    Constants,
    FourVector,
    LevelSystem,
    base_period,
    boost,
    boost_matrix,
    boost_scan,
    cm_boost,
    compton_cm_kinematics,
    compton_kinematics,
    compton_pair_A,
    compton_pair_B,
    compton_total,
    corrected_amplitude,
    effective_coupling,
    eliminate_pair_level,
    eta,
    invariant_mass,
    magnus_second_order,
    minkowski_dot,
    moller_kinematics,
    moller_total,
    pair_shift_sample,
)
from qlambda.errors import QLambdaError  # noqa: E402

SEED = 20260
INDEX_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))
SPIN_QUADS = tuple((a, b, c, d) for a, b in INDEX_PAIRS for c, d in INDEX_PAIRS)
NORMALIZATIONS = ("box", "covariant")
HBARS = (1.0, 0.7)
CONSTANTS = (Constants(), Constants(hbar=0.7, V=2.5, m_e=1.3))


def render(value) -> str:
    """The fields of a value as text that tells every bit apart."""
    if type(value) is float:
        return value.hex()
    if type(value) is complex:
        return f"{value.real.hex()},{value.imag.hex()}j"
    if value is None or type(value) in (bool, int, str):
        return repr(value)
    if isinstance(value, dict):
        return "{" + " ".join(f"{key}={render(item)}" for key, item in value.items()) + "}"
    if isinstance(value, (tuple, list)):
        name = "" if type(value) in (tuple, list) else type(value).__name__
        return f"{name}(" + " ".join(map(render, value)) + ")"
    if isinstance(value, np.ndarray):
        flag = "" if value.flags.writeable else " read-only"
        return f"array[{value.dtype}{flag}]{render(value.tolist())}"
    if isinstance(value, np.generic):
        return f"{value.dtype}:{render(value.item())}"
    raise TypeError(f"cannot render {type(value).__name__}")


class Corpus:
    def __init__(self):
        self.count = 0

    def case(self, label: str, fn, *args, **kwargs):
        """Print fn(*args, **kwargs), or the exception it raises; return the result or None."""
        self.count += 1
        try:
            result = fn(*args, **kwargs)
        except (QLambdaError, ValueError) as exc:  # the guards' classes: a case of its own
            print(f"{label} ! {type(exc).__name__}: {exc}")
            return None
        print(f"{label} = {render(result)}")
        return result


def copies(vectors):
    """Fresh objects of equal values and bits: a call on them hits the last-call memo."""
    return tuple(FourVector(*v) for v in vectors)


UNRELATED = (compton_cm_kinematics(0.37, 0.53), moller_kinematics(3.7, 0.53))


def miss() -> None:
    """Evaluate an unrelated momentum set in both process families, so the next call misses."""
    compton_total(*UNRELATED[0])
    moller_total(*UNRELATED[1])


def with_flipped_zeros(vectors):
    """The momenta, then the same momenta with every zero component negated.

    The sign of a zero component reaches the signs of spinor zeros and of
    zero parts of the vertex factors.
    """
    return vectors, tuple(FourVector(*(-c if c == 0.0 else c for c in v)) for v in vectors)


def frames(rng: random.Random):
    """No frame, boosts along z, a zero boost, oblique boosts (one of numpy float64s)."""
    fixed = [None, Boost.along_z(0.6), Boost.along_z(-0.93), Boost((0.0, 0.0, 0.0)),
             Boost((0.3, -0.4, 0.5)), Boost(tuple(np.float64(b) for b in (-0.2, 0.45, 0.1)))]
    for _ in range(3):
        direction = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.hypot(*direction)
        speed = rng.uniform(0.05, 0.95)
        fixed.append(Boost(tuple(speed * d / norm for d in direction)))
    return fixed


def lorentz_cases(out: Corpus, rng: random.Random, boosts) -> None:
    vectors = [FourVector(rng.uniform(1.0, 3.0), *(rng.uniform(-1.0, 1.0) for _ in range(3)))
               for _ in range(12)]
    vectors += [FourVector(1.0, -0.0, 0.0, -0.0), FourVector(2, 1, 0, -1),
                FourVector(5.0, 3.0, 4.0, 0.0), FourVector(1.0, 2.0, 0.0, 0.0),
                FourVector(-1.0, 0.0, 0.0, 0.0), FourVector(1.0, 1.0 + 1e-12, 0.0, 0.0)]
    for i, a in enumerate(vectors):
        b = vectors[(7 * i + 3) % len(vectors)]
        out.case(f"fourvector[{i}] add", a.__add__, b)
        out.case(f"fourvector[{i}] sub", a.__sub__, b)
        out.case(f"fourvector[{i}] neg", a.__neg__)
        out.case(f"fourvector[{i}] mul", a.__mul__, rng.uniform(-2.0, 2.0))
        out.case(f"fourvector[{i}] rmul", lambda v: -0.5 * v, a)
        out.case(f"fourvector[{i}] int mul", a.__mul__, 3)
        out.case(f"fourvector[{i}] dot", minkowski_dot, a, b)
        out.case(f"fourvector[{i}] invariant_mass", invariant_mass, a)
        out.case(f"fourvector[{i}] eta", eta, a)
        out.case(f"fourvector[{i}] cm_boost", cm_boost, a)
    for j, frame in enumerate(boosts):
        if frame is None:
            continue
        out.case(f"boost[{j}] record", lambda f: (f, f.beta2, f.gamma, f.inverse()), frame)
        out.case(f"boost[{j}] matrix", boost_matrix, frame)
        for i, v in enumerate(vectors):
            out.case(f"boost[{j}] vector[{i}]", boost, frame, v)
        out.case(f"boost[{j}] returns its input",
                 lambda f: boost(f, vectors[0]) is vectors[0], frame)


def kinematics_cases(out: Corpus, rng: random.Random, boosts) -> None:
    energies = (0.05, 1.3, *(rng.uniform(0.1, 5.0) for _ in range(3)))
    e_cms = (2.01, 4.0, *(rng.uniform(2.1, 12.0) for _ in range(3)))
    thetas = (0.0, 1.1, math.pi, *(rng.uniform(0.05, 3.1) for _ in range(2)))
    for j, frame in enumerate(boosts):
        for i, (energy, e_cm) in enumerate(zip(energies, e_cms)):
            for n, theta in enumerate(thetas):
                for maker, scale in ((compton_kinematics, energy),
                                     (compton_cm_kinematics, energy), (moller_kinematics, e_cm)):
                    out.case(f"{maker.__name__} frame[{j}] energy[{i}] theta[{n}]", maker,
                             scale, theta, frame)
    for m in (0.7, 1.0e-3):
        out.case(f"compton_kinematics m={m}", compton_kinematics, 1.3, 1.1, boosts[4], m)
        out.case(f"compton_cm_kinematics m={m}", compton_cm_kinematics, 1.3, 1.1, boosts[4], m)
        out.case(f"moller_kinematics m={m}", moller_kinematics, 4.0, 1.1, boosts[4], m)


def compton_views(out: Corpus, label: str, vectors, spins, pols, constants, normalization, frame):
    """A miss on pair A, hits on pair B and the total, a hit on equal copies, then a miss."""
    vectors = copies(vectors)
    kwargs = {"spins": spins, "pols": pols, "constants": constants,
              "normalization": normalization, "frame": frame}
    miss()
    for view in (compton_pair_A, compton_pair_B, compton_total):
        out.case(f"{view.__name__} {label}", view, *vectors, **kwargs)
    out.case(f"compton_total copy {label}", compton_total, *copies(vectors), **kwargs)
    miss()
    out.case(f"compton_total fresh {label}", compton_total, *copies(vectors), **kwargs)


def amplitude_cases(out: Corpus, rng: random.Random, boosts) -> None:
    grid_frames = (None, boosts[1], boosts[4], boosts[5])
    for j, frame in enumerate(grid_frames):
        for generator in (compton_kinematics, compton_cm_kinematics):
            for energy, theta in ((0.4, 0.7), (2.2, 2.5), (1.3, 0.0), (0.6, math.pi)):
                for z, vectors in enumerate(with_flipped_zeros(generator(energy, theta, frame))):
                    for spins, pols in itertools.product(INDEX_PAIRS, INDEX_PAIRS):
                        for normalization in NORMALIZATIONS:
                            label = (f"{generator.__name__}({energy}, {theta}) frame[{j}] "
                                     f"zeros[{z}] spins={spins} pols={pols} {normalization}")
                            compton_views(out, label, vectors, spins, pols, CONSTANTS[0],
                                          normalization, frame)
        for e_cm, theta in ((2.3, 0.4), (4.0, 1.1), (9.0, 2.8), (3.1, math.pi)):
            for z, vectors in enumerate(with_flipped_zeros(moller_kinematics(e_cm, theta, frame))):
                for spins in SPIN_QUADS:
                    for normalization in NORMALIZATIONS:
                        label = (f"({e_cm}, {theta}) frame[{j}] zeros[{z}] spins={spins} "
                                 f"{normalization}")
                        miss()
                        out.case(f"moller_total {label}", moller_total, *copies(vectors),
                                 spins=spins, normalization=normalization, frame=frame)
    for i in range(120):
        frame = rng.choice(boosts)
        constants = rng.choice(CONSTANTS)
        normalization = rng.choice(NORMALIZATIONS)
        m = constants.m_e
        generator = rng.choice((compton_kinematics, compton_cm_kinematics))
        vectors = generator(rng.uniform(0.02, 6.0), rng.uniform(0.02, 3.12), frame, m)
        spins, pols = rng.choice(INDEX_PAIRS), rng.choice(INDEX_PAIRS)
        compton_views(out, f"seeded[{i}]", vectors, spins, pols, constants, normalization, frame)
        vectors = moller_kinematics(2.0 * m + rng.uniform(0.01, 10.0), rng.uniform(0.05, 3.1),
                                    frame, m)
        out.case(f"moller_total seeded[{i}]", moller_total, *vectors, spins=rng.choice(SPIN_QUADS),
                 constants=constants, normalization=normalization, frame=frame)


def spin_sweep_cases(out: Corpus, boosts) -> None:
    """Every index set of each process in a row on fresh equal copies of one momentum set.

    The first call on a momentum set misses and the other calls hit its
    index-free table; the flipped-zero copies that follow miss once, then hit.
    """
    for j, frame in enumerate((None, boosts[1], boosts[4])):
        for c, constants in enumerate(CONSTANTS):
            m = constants.m_e
            sets = ((compton_kinematics(0.9, 1.3, frame, m),
                     moller_kinematics(2.0 * m + 1.7, 1.3, frame, m)),
                    (compton_cm_kinematics(2.1, 0.6, frame, m),
                     moller_kinematics(2.0 * m + 5.0, 2.4, frame, m)))
            for n, (compton, moller) in enumerate(sets):
                for normalization in NORMALIZATIONS:
                    kwargs = {"normalization": normalization, "frame": frame}
                    label = f"sweep[{n}] frame[{j}] constants[{c}] {normalization}"
                    miss()
                    for z, vectors in enumerate(with_flipped_zeros(compton)):
                        for spins, pols in itertools.product(INDEX_PAIRS, INDEX_PAIRS):
                            for view in (compton_pair_A, compton_pair_B, compton_total):
                                out.case(f"{view.__name__} {label} zeros[{z}] spins={spins} "
                                         f"pols={pols}", view, *copies(vectors), spins=spins,
                                         pols=pols, constants=Constants(*constants), **kwargs)
                    for z, vectors in enumerate(with_flipped_zeros(moller)):
                        for spins in SPIN_QUADS:
                            out.case(f"moller_total {label} zeros[{z}] spins={spins}",
                                     moller_total, *copies(vectors), spins=spins,
                                     constants=Constants(*constants), **kwargs)


def one_pole_cases(out: Corpus) -> None:
    """The views on a momentum set whose channel 1 sits on its pole and channel 2 does not.

    compton_pair_B is served and the other two views raise. Each order of the
    views runs on misses, an unrelated set before every call, and on fresh
    equal copies, where each call after the first finds the table a served
    call left.
    """
    vectors = compton_kinematics(1.0, math.pi / 3.0, Boost.along_z(0.999999999999999))
    views = (compton_pair_A, compton_pair_B, compton_total)
    for order in (views, views[::-1]):
        label = ",".join(view.__name__ for view in order)
        for normalization in NORMALIZATIONS:
            for spins, pols in itertools.product(INDEX_PAIRS, INDEX_PAIRS):
                kwargs = {"spins": spins, "pols": pols, "normalization": normalization}
                for mode in ("miss", "copies"):
                    miss()
                    for view in order:
                        if mode == "miss":
                            miss()
                        out.case(f"one pole [{label}] {mode} {view.__name__} spins={spins} "
                                 f"pols={pols} {normalization}", view, *copies(vectors), **kwargs)


def vacuum_cases(out: Corpus, rng: random.Random, boosts) -> None:
    for j, frame in enumerate((None, boosts[1], boosts[4], boosts[5])):
        for e_cm, theta in ((2.3, 0.4), (4.0, 1.1), (9.0, 2.8)):
            vectors = moller_kinematics(e_cm, theta, frame)
            for spins in ((1, 1, 1, 1), (1, 2, 1, 2), (2, 1, 1, 2)):
                for normalization in NORMALIZATIONS:
                    base = moller_total(*vectors, spins=spins, normalization=normalization)
                    smallest = min(abs(part.denom) for part in base.parts)
                    for scale in (-1e-4, 1e-3, 0.05):
                        # the first call on these objects is a memo hit on moller_total
                        out.case(f"corrected_amplitude ({e_cm}, {theta}) frame[{j}] "
                                 f"spins={spins} {normalization} shift={scale}",
                                 corrected_amplitude, *vectors, pair_shift=scale * smallest,
                                 spins=spins, normalization=normalization)
    for i in range(40):
        p3 = [rng.uniform(-3.0, 3.0) for _ in range(3)]
        k3 = [rng.uniform(-2.0, 2.0) for _ in range(3)]
        photon_energy = (None, math.hypot(*k3) * rng.uniform(0.1, 4.0), 3.0)[i % 3]
        constants = CONSTANTS[i % 2]
        args = (p3, k3) if i % 4 else (np.array(p3), np.array(k3))
        out.case(f"pair_shift_sample[{i}]", pair_shift_sample, *args, constants=constants,
                 photon_energy=photon_energy)


def boost_scan_cases(out: Corpus, rng: random.Random) -> None:
    grids = ((0.0, 0.1, 0.5, 0.9, 0.99), (-0.7, -0.0, 0.3),
             tuple(np.float64(rng.uniform(-0.95, 0.95)) for _ in range(6)))
    for process in ("compton", "moller"):
        for normalization in NORMALIZATIONS:
            for g, grid in enumerate(grids):
                table = out.case(f"boost_scan {process} {normalization} grid[{g}]", boost_scan,
                                 process, grid, normalization)
                if table is not None:
                    text = io.StringIO()
                    table.write_csv(text)
                    out.case(f"boost_scan {process} {normalization} grid[{g}] csv",
                             text.getvalue)
    out.case("boost_scan compton seeded", boost_scan, "compton", grids[0], constants=CONSTANTS[1],
             photon_energy=rng.uniform(0.5, 2.0), theta=rng.uniform(0.3, 2.8), spins=(1, 2),
             pols=(2, 1))
    out.case("boost_scan moller seeded", boost_scan, "moller", grids[0], constants=CONSTANTS[1],
             e_cm=rng.uniform(2.7, 6.0), theta=rng.uniform(0.3, 2.8), spins=(1, 2, 1, 2))


def signed_zero(rng: random.Random) -> float:
    return rng.choice((0.0, -0.0))


def coupling(rng: random.Random) -> complex:
    """A nonzero coupling; one in three has a signed-zero real or imaginary part."""
    size, phase = rng.uniform(0.01, 0.5), rng.uniform(-math.pi, math.pi)
    kind = rng.randrange(6)
    if kind == 0:
        return complex(signed_zero(rng), size * math.copysign(1.0, phase))
    if kind == 1:
        return complex(size * math.copysign(1.0, phase), signed_zero(rng))
    return complex(size * math.cos(phase), size * math.sin(phase))


def level_system(rng: random.Random, n: int, single_partner: bool) -> LevelSystem:
    """n levels at integer multiples of one unit, so the gaps are commensurate.

    Each pair is coupled or not at random; an uncoupled entry is a zero with
    signed-zero parts. With single_partner, the last level couples to exactly
    one other level, as eliminate_pair_level asks.
    """
    unit = rng.uniform(0.5, 3.0)
    energies = [unit * rng.randint(-4, 4) for _ in range(n)]
    partner = rng.randrange(n - 1)
    rows = [[0j] * n for _ in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            if single_partner and k == n - 1:
                coupled = j == partner
            else:
                coupled = rng.random() < 0.7
            entry = coupling(rng) if coupled else complex(signed_zero(rng), signed_zero(rng))
            rows[j][k], rows[k][j] = entry, entry.conjugate()
    return LevelSystem(energies, rows)


def analytic_fields(system: LevelSystem, hbar: float):
    """magnus_second_order's fields that run on Python floats: matrix and period."""
    effective = magnus_second_order(system, hbar)
    return effective.matrix, effective.period


def dynamics_cases(out: Corpus, rng: random.Random) -> None:
    for i in range(300):
        n = (2, 3, 4)[i % 3]
        system = level_system(rng, n, single_partner=i % 2 == 0)
        out.case(f"level_system[{i}]", system.to_json)
        for hbar in HBARS:
            out.case(f"magnus_second_order[{i}] hbar={hbar}", analytic_fields, system, hbar)
            out.case(f"base_period[{i}] hbar={hbar}", base_period, system, hbar)
        if n == 4:
            out.case(f"eliminate_pair_level[{i}]", lambda: eliminate_pair_level(system).energies)
        energies, rows = system.energies.tolist(), system.couplings.tolist()
        for j, l, k in itertools.permutations(range(n), 3):
            if rows[j][l] and rows[l][k]:
                out.case(f"effective_coupling[{i}] path {j}-{l}-{k}", effective_coupling,
                         rows[j][l], rows[l][k], energies[k], energies[l])


def guard_cases(out: Corpus) -> None:
    c = compton_cm_kinematics(1.3, 1.1)
    m = moller_kinematics(4.0, 1.1)
    moved = FourVector(c[0].t + 1e-3, *c[0][1:])
    cases = [
        ("Boost superluminal", Boost, (0.6, 0.0, 0.8)),
        ("Boost infinite", Boost, (math.inf, 0.0, 0.0)),
        ("invariant_mass spacelike", invariant_mass, FourVector(1.0, 2.0, 0.0, 0.0)),
        ("eta zero energy", eta, FourVector(0.0, 0.0, 0.0, 0.0)),
        ("cm_boost negative energy", cm_boost, FourVector(-1.0, 0.0, 0.0, 0.0)),
        ("compton_kinematics zero energy", compton_kinematics, 0.0, 1.0),
        ("compton_cm_kinematics negative energy", compton_cm_kinematics, -1.0, 1.0),
        ("moller_kinematics threshold", moller_kinematics, 2.0, 1.0),
        ("compton_total off shell", compton_total, moved, *c[1:]),
        ("compton_total overflow", compton_total, *compton_kinematics(1e300, 1.0)),
        ("compton_total pole", compton_total, *compton_cm_kinematics(1e-300, 1.0)),
        ("compton_total soft pole", compton_total, *compton_cm_kinematics(1e-9, 1.0)),
        ("compton_total spin count", lambda: compton_total(*c, spins=(1, 1, 1))),
        ("compton_total spin index", lambda: compton_total(*c, spins=(1, 3))),
        ("compton_total bool index", lambda: compton_total(*c, pols=(True, 1))),
        ("compton_total coupling scale",
         lambda: compton_total(*c, constants=Constants(e=1e200))),
        ("moller_total forward", moller_total, *moller_kinematics(4.0, 0.0)),
        ("moller_total off shell", moller_total, m[0], m[1], m[2], FourVector(*m[3][:3], 0.5)),
        ("moller_total spin count", lambda: moller_total(*m, spins=(1, 1))),
        ("corrected_amplitude too large", lambda: corrected_amplitude(*m, pair_shift=10.0)),
        ("pair_shift_sample zero k", pair_shift_sample, (0.1, 0.2, 0.3), (0.0, 0.0, 0.0)),
        ("pair_shift_sample nan p", pair_shift_sample, (math.nan, 0.0, 0.0), (0.0, 0.0, 1.0)),
        ("pair_shift_sample overflow", pair_shift_sample, (1e200, 0.0, 0.0), (0.0, 0.0, 1e200)),
        ("boost_scan process", boost_scan, "bhabha", (0.0,)),
        ("boost_scan zero reference",
         lambda: boost_scan("compton", (0.0, 0.5), theta=0.0, spins=(1, 2), pols=(1, 1))),
        ("boost_scan superluminal", boost_scan, "compton", (0.5, 1.0)),
        ("boost_scan beta -1", boost_scan, "moller", (0.5, -1.0)),
        ("boost_scan beta 1.5", boost_scan, "compton", (0.5, 1.5)),
        ("boost_scan beta inf", boost_scan, "compton", (0.5, math.inf)),
        ("boost_scan beta -inf", boost_scan, "moller", (0.5, -math.inf)),
        ("boost_scan beta nan", boost_scan, "compton", (0.5, math.nan)),
        ("magnus_second_order degenerate",
         lambda: magnus_second_order(LevelSystem([0.0, 1e-10], [[0, 0.1], [0.1, 0]]))),
        ("magnus_second_order incommensurate",
         lambda: magnus_second_order(LevelSystem([0.0, 1.0, 1.0 + math.sqrt(2.0)],
                                                 [[0, 0.1, 0], [0.1, 0, 0.1], [0, 0.1, 0]]))),
        ("base_period degenerate",
         lambda: base_period(LevelSystem([2.0, 2.0, 5.0], [[0, 0.1, 0], [0.1, 0, 0], [0, 0, 0]]))),
        ("eliminate_pair_level degenerate",
         lambda: eliminate_pair_level(LevelSystem(
             [0.0, 10.0, 0.0, 10.0],
             [[0, 0.1, 0, 0], [0.1, 0, 0.1, 0.2], [0, 0.1, 0, 0], [0, 0.2, 0, 0]]))),
        ("eliminate_pair_level two partners",
         lambda: eliminate_pair_level(LevelSystem(
             [0.0, 10.0, 0.0, 5.0],
             [[0, 0.1, 0, 0.2], [0.1, 0, 0.1, 0.2], [0, 0.1, 0, 0], [0.2, 0.2, 0, 0]]))),
        ("effective_coupling degenerate", effective_coupling, 0.1, 0.1, 2.0, 2.0),
        ("effective_coupling near-degenerate", effective_coupling, 0.1, 0.1, 0.0, 1e-10),
        ("effective_coupling e1 inf", effective_coupling, 0.1, 0.1, math.inf, 1.0),
        ("effective_coupling e2 -inf", effective_coupling, 0.1, 0.1, 1.0, -math.inf),
        ("effective_coupling e1 nan", effective_coupling, 0.1, 0.1, math.nan, 1.0),
        ("effective_coupling gap overflow", effective_coupling, 0.1, 0.1, 1e308, -1e308),
        ("effective_coupling omega nan", effective_coupling, complex(0.1, math.nan), 0.1, 0.0, 1.0),
        ("effective_coupling omega inf", effective_coupling, 0.1, math.inf, 0.0, 1.0),
    ]
    for label, fn, *args in cases:
        out.case(label, fn, *args)


def main() -> int:
    rng = random.Random(SEED)
    out = Corpus()
    boosts = frames(rng)
    lorentz_cases(out, rng, boosts)
    kinematics_cases(out, rng, boosts)
    amplitude_cases(out, rng, boosts)
    spin_sweep_cases(out, boosts)
    one_pole_cases(out)
    vacuum_cases(out, rng, boosts)
    boost_scan_cases(out, rng)
    dynamics_cases(out, rng)
    guard_cases(out)
    print(f"{out.count} cases", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
