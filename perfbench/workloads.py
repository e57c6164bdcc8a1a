"""The four benchmark workloads: seeded inputs, items and their cross-checks.

An item is one user-level request: one amplitude point, one `total_shift`,
one level-system run or one CLI invocation. The two boost-scan tables of
amplitude-scan are checked and counted like items but kept out of item
latencies. Each item makes its calls into qlambda through a tracer (a
pass-through in untraced runs), checks its result against an independent
value at a stated tolerance and raises CheckFailed when the check misses.
The value an item returns must be bit-identical on every pass of a run.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from qlambda import (  # noqa: E402
    Boost,
    LevelSystem,
    base_period,
    boost_scan,
    cm_correction_factor,
    compton_cm_kinematics,
    compton_pair_A,
    compton_pair_B,
    compton_total,
    corrected_amplitude,
    effective_coupling,
    eliminate_pair_level,
    evolve,
    magnus_second_order,
    moller_kinematics,
    moller_total,
    pair_shift_sample,
    total_shift,
    two_level_transfer,
)

BETAS = tuple(round(0.1 * i, 1) for i in range(10))
K_AXIS = (0.0, 0.0, 0.5)
RATIOS = (1e-1, 1e-2, 1e-3)
# smallest relative-error denominator, as in the acceptance criteria
TINY = 1e-30
CHILD_TIMEOUT_S = 120


class CheckFailed(Exception):
    """An item's result missed its stated tolerance."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def rel_err(value, reference) -> float:
    return abs(value - reference) / max(abs(reference), TINY)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Workload:
    name: str
    items: list  # (label, fn(tracer, state) -> comparable value)
    counters: dict = field(default_factory=dict)  # work per pass, named by layer
    info: dict = field(default_factory=dict)  # recorded, never gated
    # checked work of a pass that is not a user-level item, kept out of item latencies
    untimed: frozenset = frozenset()


def _rng(seed: int, name: str, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng((seed, list(BUILDERS).index(name), stream))


def _direction(rng) -> np.ndarray:
    d = rng.normal(size=3)
    return d / np.linalg.norm(d)


# ---------------------------------------------------------------- amplitude-scan


@dataclass(frozen=True)
class ScanPoint:
    energy: float  # photon energy, and the electron momentum of the Moller pair
    theta: float
    beta: tuple | None  # None: zero-momentum frame
    spins: tuple
    pols: tuple
    moller_spins: tuple

    @property
    def beta_abs(self) -> float:
        return 0.0 if self.beta is None else math.sqrt(sum(b * b for b in self.beta))

    @property
    def e_cm(self) -> float:
        return 2.0 * math.sqrt(self.energy**2 + 1.0)


def scan_points(seed: int) -> list[ScanPoint]:
    """Energy x theta x {zero-momentum, boosted} x spins x pols grid."""
    rng = _rng(seed, "amplitude-scan")
    energies = rng.uniform(0.2, 3.0, size=3)
    thetas = rng.uniform(0.15, math.pi - 0.15, size=4)
    points = []
    grid = itertools.product(
        energies, thetas, (False, True),
        itertools.product((1, 2), repeat=2), itertools.product((1, 2), repeat=2),
    )
    for energy, theta, boosted, spins, pols in grid:
        beta = tuple(_direction(rng) * rng.uniform(0.05, 0.85)) if boosted else None
        moller_spins = tuple(int(s) for s in rng.integers(1, 3, size=4))
        points.append(ScanPoint(float(energy), float(theta), beta, spins, pols, moller_spins))
    return points


def _trace_identity(p3, k3, m: float = 1.0) -> float:
    """Spin-summed, polarization-averaged |ubar(p+k) eps-slash u(p)|^2, closed form.

    Tr[(p'-slash + m) eps-slash (p-slash + m) eps-slash] / (4 E E') summed over
    the transverse pair with delta_ij - khat_i khat_j, then halved.
    """
    pk = p3 + k3
    e_p = math.sqrt(p3 @ p3 + m * m)
    e_pk = math.sqrt(pk @ pk + m * m)
    khat = k3 / np.linalg.norm(k3)
    transverse = p3 @ pk - (p3 @ khat) * (pk @ khat)
    dot = e_p * e_pk - p3 @ pk
    return (transverse + dot - m * m) / (e_p * e_pk)


def _point_item(pt: ScanPoint, counters: dict, ratios: dict):
    def run(tr, state):
        frame = None if pt.beta is None else Boost(pt.beta)
        vectors = tr.call(compton_cm_kinematics, pt.energy, pt.theta, frame)
        mvectors = tr.call(moller_kinematics, pt.e_cm, pt.theta, frame)
        totals = []
        for fn in (compton_pair_A, compton_pair_B, compton_total):
            result = tr.call(fn, *vectors, spins=pt.spins, pols=pt.pols)
            err = rel_err(result.total, result.closed_form)
            check(err < 1e-10, f"{fn.__name__} two-path rel err {err:.2e}")
            totals.append(result.total)
        eta_err = abs(result.eta - math.sqrt(1.0 - pt.beta_abs**2))
        check(eta_err < 1e-12, f"eta off sqrt(1-beta^2) by {eta_err:.2e}")
        if pt.beta is None and pt.spins == (1, 1) and pt.pols == (1, 1):
            ratios[pt.energy, pt.theta] = result.textbook_ratio

        moller = tr.call(moller_total, *mvectors, spins=pt.moller_spins)
        k = mvectors[0] - mvectors[2]
        e_k = float(np.linalg.norm(k.spatial))
        for first, second in zip(moller.parts[::2], moller.parts[1::2]):
            closed = e_k * first.omega1 * first.omega2 / (k.t**2 - e_k**2)
            err = rel_err(first.value + second.value, closed)
            check(err < 1e-10, f"moller per-polarization sum rel err {err:.2e}")
        err = rel_err(moller.total, moller.closed_form)
        check(err < 1e-10, f"moller two-path rel err {err:.2e}")

        shift = -1e-4 * min(abs(part.denom) for part in moller.parts)
        corrected = tr.call(corrected_amplitude, *mvectors, pair_shift=shift,
                            spins=pt.moller_spins)
        remainder = abs(corrected.exact - corrected.base.total - corrected.first_order)
        # second order in shift / denominator = 1e-4
        check(remainder <= 1e-3 * abs(corrected.first_order),
              f"first-order correction remainder {remainder:.2e}")

        p3, k3 = vectors[0].spatial, vectors[1].spatial
        sample = tr.call(pair_shift_sample, p3, k3)
        err = rel_err(sample.spinor_factor, _trace_identity(p3, k3))
        check(err < 1e-9, f"shift density off the trace identity by {err:.2e}")
        check(sample.shift_density < 0.0, "shift density not negative below threshold")
        counters["amplitudes.points"] += 1
        return tuple(totals) + (moller.total, corrected.exact, sample.shift_density)

    return run


def _boost_scan_item(process: str, kwargs: dict):
    def run(tr, state):
        table = tr.call(boost_scan, process, BETAS, **kwargs)
        for row in table.rows:
            err = abs(row.eta - math.sqrt(1.0 - row.beta**2))
            check(err < 1e-12, f"{process} boost scan eta off by {err:.2e} at beta={row.beta}")
        return tuple(row.as_tuple() for row in table.rows)

    return run


def boost_scan_args(seed: int) -> dict:
    rng = _rng(seed, "amplitude-scan", 1)
    theta = float(rng.uniform(0.3, 2.8))
    return {
        "compton": {"photon_energy": float(rng.uniform(0.5, 2.0)), "theta": theta},
        "moller": {"e_cm": float(rng.uniform(2.5, 6.0)), "theta": theta, "spins": (1, 2, 1, 2)},
    }


def amplitude_scan(seed: int, workdir: Path) -> Workload:
    counters = {"amplitudes.points": 0}
    ratios: dict = {}
    items = [(f"point-{i}", _point_item(pt, counters, ratios))
             for i, pt in enumerate(scan_points(seed))]
    tables = [(f"boost-scan-{process}", _boost_scan_item(process, kwargs))
              for process, kwargs in boost_scan_args(seed).items()]
    # a table costs several points; as items, the two tables alone would fill
    # the ten samples beyond the latency tail
    return Workload("amplitude-scan", items + tables, counters, {"textbook_ratios": ratios},
                    frozenset(label for label, _ in tables))


def textbook_spread(ratios) -> float:
    """Criterion 06's proportionality spread over the recorded ratios."""
    ratios = np.array(list(ratios.values()))
    mean = ratios.mean()
    return float(np.max(np.abs(ratios - mean)) / abs(mean))


# ----------------------------------------------------------- vacpol-convergence


def _shift_item(k3, cutoff: float, **kwargs):
    def run(tr, state):
        shift, report = tr.call(total_shift, np.array(k3), cutoff, **kwargs)
        check(shift < 0.0, f"pair shift {shift!r} not negative")
        slope = report.fitted_slope
        check(abs(slope + 4.0) < 0.2, f"fitted slope {slope:.3f} not -4 +/- 0.2")
        return shift, slope, float(report.tail_estimates[-1])

    return run


def _tail_item(run_2k):
    def run(tr, state):
        out = run_2k(tr, state)
        shift_1k, _, tail_1k = state["cutoff-1e3"]
        ratio = out[2] / tail_1k
        check(abs(ratio - 0.5) < 0.05, f"tail ratio {ratio:.3f} not 0.5 +/- 0.05")
        stability = abs(shift_1k - out[0]) / abs(out[0])
        check(stability < 0.02, f"cutoff stability {stability:.4f} not < 0.02")
        return out

    return run


def _threaded_item(run_threaded):
    def run(tr, state):
        out = run_threaded(tr, state)
        check(out == state["cutoff-1e4"], "threaded total_shift differs from serial")
        return out

    return run


def _cm_item(vectors):
    def run(tr, state):
        factor = tr.call(cm_correction_factor, *vectors, cutoff=1e4)
        check(math.isfinite(factor) and factor > 0.0,
              f"zero-momentum-frame correction factor {factor!r} not positive")
        return factor

    return run


def vacpol_inputs(seed: int) -> dict:
    rng = _rng(seed, "vacpol-convergence")
    boost = Boost(tuple(_direction(rng) * rng.uniform(0.1, 0.6)))
    return {
        "oblique": [tuple(_direction(rng) * rng.uniform(0.2, 2.0)) for _ in range(2)],
        # below the pair threshold 2 sqrt(m^2 + |k|^2 / 4) = 2.06 for |k| = 0.5
        "photon_energy": float(rng.uniform(0.6, 1.8)),
        "cm_vectors": moller_kinematics(float(rng.uniform(2.5, 6.0)),
                                        float(rng.uniform(0.5, 2.5)), boost),
    }


def vacpol_convergence(seed: int, workdir: Path) -> Workload:
    inputs = vacpol_inputs(seed)
    oblique = inputs["oblique"]
    items = [
        ("cutoff-1e3", _shift_item(K_AXIS, 1e3)),
        ("cutoff-2e3", _tail_item(_shift_item(K_AXIS, 2e3))),
        ("cutoff-1e4", _shift_item(K_AXIS, 1e4)),
        ("cutoff-1e5", _shift_item(K_AXIS, 1e5)),
        ("oblique-1", _shift_item(oblique[0], 1e4)),
        ("oblique-2", _shift_item(oblique[1], 1e4)),
        ("off-shell", _shift_item(K_AXIS, 1e4, photon_energy=inputs["photon_energy"])),
        ("threaded", _threaded_item(_shift_item(K_AXIS, 1e4, n_threads=nproc()))),
        ("cm-correction", _cm_item(inputs["cm_vectors"])),
    ]
    return Workload("vacpol-convergence", items)


# -------------------------------------------------------------- lambda-dynamics


def _document(energies, couplings) -> str:
    return json.dumps({
        "energies": [float(e) for e in energies],
        "couplings": [[[float(c.real), float(c.imag)] for c in row] for row in couplings],
    })


def lambda_documents(seed: int) -> dict:
    """Seeded Lambda and 4-level pair systems as LevelSystem JSON, by ratio.

    The seed sets energy scales and coupling phases only. Scaling every
    energy and coupling by one factor scales time by its inverse, so the
    number of steps, and with it the work of a pass, is the same for every
    seed.
    """
    rng = _rng(seed, "lambda-dynamics")
    gap = float(rng.choice([5.0, 8.0, 10.0, 12.5, 16.0, 20.0]))
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=2))
    scale = float(rng.uniform(0.5, 2.0))
    e1 = 10.0 * scale
    # commensurate with e1, so the coupling phases share a period
    e_pair = 0.5 * e1
    omega = 0.3 * scale
    docs = {"lambda": {}, "pair": {}}
    for ratio in RATIOS:
        c = np.zeros((3, 3), dtype=complex)
        c[1, 0], c[1, 2] = ratio * gap * phases
        docs["lambda"][ratio] = _document([0.0, gap, 0.0], c + c.conj().T)
        c = np.zeros((4, 4), dtype=complex)
        c[1, 0] = c[1, 2] = omega
        c[1, 3] = ratio * e_pair
        docs["pair"][ratio] = _document([0.0, e1, 0.0, e_pair], c + c.conj().T)
    return docs


def _magnus_checked(tr, system):
    effective = tr.call(magnus_second_order, system)
    scale = float(np.max(np.abs(effective.matrix)))
    err = float(np.max(np.abs(effective.matrix - effective.numeric_matrix))) / scale
    check(err < 1e-10, f"analytic and numeric Magnus differ by {err:.2e}")
    return effective


def _step(tr, system, t_final: float, steps: int) -> float:
    """A whole multiple of the base period giving at most `steps` steps."""
    period = tr.call(base_period, system)
    # the slack keeps a quotient that rounding lifts just above a whole number
    # from costing half the steps
    return period * max(1, math.ceil(t_final / period / steps - 1e-9))


def _decade_check(deviations: dict, label: str) -> None:
    values = [deviations[r] for r in RATIOS]
    ratios = [a / b for a, b in zip(values, values[1:])]
    check(all(r >= 5.0 for r in ratios), f"{label} decade ratios {ratios} not all >= 5")


def _lambda_item(text: str, ratio: float, counters: dict):
    def run(tr, state):
        system = tr.call(LevelSystem.from_json, text)
        effective = _magnus_checked(tr, system)
        coupling = complex(effective.matrix[2, 0])
        t_final = math.pi / (2.0 * abs(coupling))
        trajectory = tr.call(evolve, system, [1, 0, 0], t_final,
                             _step(tr, system, t_final, 2500))
        predicted = tr.call(two_level_transfer, coupling, trajectory.times)
        deviation = float(np.max(np.abs(trajectory.populations()[:, 2] - predicted)))
        counters["dynamics.steps"] += trajectory.times.size - 1
        deviations = state.setdefault("lambda", {})
        deviations[ratio] = deviation
        if ratio == RATIOS[-1]:
            _decade_check(deviations, "lambda averaging")
        return deviation

    return run


def _pair_item(text: str, ratio: float, counters: dict):
    def run(tr, state):
        system = tr.call(LevelSystem.from_json, text)
        _magnus_checked(tr, system)
        reduced = tr.call(eliminate_pair_level, system)
        omega = complex(system.couplings[1, 0])
        coupling = tr.call(effective_coupling, omega, omega, 0.0, float(reduced.energies[1]))
        t_final = math.pi / (2.0 * abs(coupling))
        dt = _step(tr, system, t_final, 2000)
        full = tr.call(evolve, system, [1, 0, 0, 0], t_final, dt)
        small = tr.call(evolve, reduced, [1, 0, 0], t_final, dt)
        predicted = tr.call(two_level_transfer, coupling, small.times)
        deviation = float(np.max(np.abs(full.populations()[:, 2] - small.populations()[:, 2])))
        counters["dynamics.steps"] += full.times.size + small.times.size - 2
        deviations = state.setdefault("pair", {})
        deviations[ratio] = deviation
        if ratio == RATIOS[-1]:
            _decade_check(deviations, "pair-level elimination")
        return deviation, float(np.max(np.abs(small.populations()[:, 2] - predicted)))

    return run


def lambda_dynamics(seed: int, workdir: Path) -> Workload:
    counters = {"dynamics.steps": 0}
    docs = lambda_documents(seed)
    items = [(f"lambda-{r:g}", _lambda_item(docs["lambda"][r], r, counters)) for r in RATIOS]
    items += [(f"pair-{r:g}", _pair_item(docs["pair"][r], r, counters)) for r in RATIOS]
    return Workload("lambda-dynamics", items, counters)


# --------------------------------------------------------------------- cli-runs

README_SYSTEM = {
    "energies": [0.0, 10.0, 0.0],
    "couplings": [[[0, 0], [0.1, 0], [0, 0]], [[0.1, 0], [0, 0], [0.1, 0]],
                  [[0, 0], [0.1, 0], [0, 0]]],
}


def child_env() -> dict:
    """Environment of every child interpreter: the parent's pinned threads, src on the path."""
    env = dict(os.environ)
    env.pop("QLAMBDA_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_commands(seed: int, workdir: Path) -> dict:
    """Seeded argv per subcommand item; artifacts land in workdir."""
    rng = _rng(seed, "cli-runs")
    system = workdir / "system.json"
    if not system.exists():
        system.write_text(json.dumps(README_SYSTEM), encoding="utf-8")

    def out(name: str) -> list:
        return ["--out", str(workdir / name)]

    def uniform(lo: float, hi: float) -> str:
        return repr(float(rng.uniform(lo, hi)))

    theta = uniform(0.3, 2.8)
    return {
        "lambda_sim": ["lambda-sim", "--system", str(system), *out("trajectory.csv"),
                       "--summary", str(workdir / "lambda_summary.json")],
        "compton_cm": ["compton", "--photon-energy", uniform(0.5, 2.0), "--theta", theta,
                       "--frame", "cm", *out("compton_cm.json")],
        "compton_rest": ["compton", "--photon-energy", uniform(0.5, 2.0), "--theta", theta,
                         "--frame", "rest", *out("compton_rest.json")],
        "moller": ["moller", "--e-cm", uniform(2.5, 6.0), "--theta", theta, *out("moller.json")],
        "vacpol": ["vacpol", *out("convergence.csv"),
                   "--summary", str(workdir / "vacpol_summary.json")],
        "boost_scan_compton": ["boost-scan", "--process", "compton", "--betas",
                               *map(str, BETAS), "--theta", theta, *out("scan_compton.csv")],
        "boost_scan_moller": ["boost-scan", "--process", "moller", "--betas",
                              *map(str, BETAS), "--theta", theta, *out("scan_moller.csv")],
    }


def artifacts(argv: list) -> list[Path]:
    return [Path(argv[i + 1]) for i, a in enumerate(argv) if a in ("--out", "--summary")]


def _check_artifacts(name: str, paths: list[Path]) -> None:
    """Cross-check the numbers a CLI run wrote."""
    if name in ("compton_cm", "compton_rest", "moller"):
        doc = json.loads(paths[0].read_text(encoding="utf-8"))
        total, closed = complex(*doc["total"]), complex(*doc["closed_form"])
        err = rel_err(total, closed)
        check(err < 1e-10, f"{name} artifact two-path rel err {err:.2e}")
    elif name == "vacpol":
        doc = json.loads(paths[1].read_text(encoding="utf-8"))
        check(doc["pair_shift"] < 0.0, "vacpol pair shift not negative")
        check(abs(doc["fitted_slope"] + 4.0) < 0.2, "vacpol slope not -4 +/- 0.2")
    elif name.startswith("boost_scan"):
        rows = paths[0].read_text(encoding="utf-8").splitlines()[2:]
        for row in rows:
            beta, eta = (float(v) for v in row.split(",")[:2])
            check(abs(eta - math.sqrt(1.0 - beta**2)) < 1e-12, f"{name} eta off at beta={beta}")
    else:
        doc = json.loads(paths[1].read_text(encoding="utf-8"))
        check(doc["fitted_rate"] > 0.0, "lambda-sim fitted no transfer rate")


def run_child(argv: list, **kwargs) -> subprocess.CompletedProcess:
    """subprocess.run with a blocking wait.

    subprocess.run(timeout=...) polls the child with sleeps of up to 50 ms,
    which quantizes the measured wall time; a timer kills a hung child instead.
    """
    with subprocess.Popen(argv, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, **kwargs) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def run_cli(argv: list, cwd: Path) -> subprocess.CompletedProcess:
    return run_child([sys.executable, "-m", "qlambda.cli", *argv], cwd=cwd)


def _cli_item(name: str, argv: list, workdir: Path):
    def run(tr, state):
        paths = artifacts(argv)
        for path in paths:  # so that a run that writes nothing cannot pass on a stale file
            path.unlink(missing_ok=True)
        with tr.span("cli", name):
            proc = run_cli(argv, workdir)
        check(proc.returncode == 0, f"{name} exited {proc.returncode}: {proc.stderr[-200:]}")
        check(all(path.is_file() for path in paths), f"{name} wrote no {paths}")
        _check_artifacts(name, paths)
        return tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in paths)

    return run


def cli_runs(seed: int, workdir: Path) -> Workload:
    items = [(name, _cli_item(name, argv, workdir))
             for name, argv in cli_commands(seed, workdir).items()]
    return Workload("cli-runs", items)


BUILDERS = {
    "amplitude-scan": amplitude_scan,
    "vacpol-convergence": vacpol_convergence,
    "lambda-dynamics": lambda_dynamics,
    "cli-runs": cli_runs,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    return BUILDERS[name](seed, workdir)
