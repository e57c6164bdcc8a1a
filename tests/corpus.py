"""Print the amplitude path's results over a seeded corpus, one line per case.

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
algebra of `lorentz`; the Compton views on a memo miss and on a hit, and
`moller_total`, over energies, angles, frames, spins, polarizations,
constants and both normalizations; `corrected_amplitude`,
`pair_shift_sample` and `boost_scan`; and the guards, each as the class and
message of the exception it raises. Each line is a label and the case's
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
    eta,
    invariant_mass,
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
    """Fresh objects of equal values: a call on them misses the last-call memo."""
    return tuple(FourVector(*v) for v in vectors)


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
    """A miss on pair A, hits on pair B and the total, then a miss on the total."""
    vectors = copies(vectors)
    kwargs = {"spins": spins, "pols": pols, "constants": constants,
              "normalization": normalization, "frame": frame}
    for view in (compton_pair_A, compton_pair_B, compton_total):
        out.case(f"{view.__name__} {label}", view, *vectors, **kwargs)
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
    vacuum_cases(out, rng, boosts)
    boost_scan_cases(out, rng)
    guard_cases(out)
    print(f"{out.count} cases", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
