"""Per-layer metrics of a traced run, named by qlambda module.

Each layer metric names the workload and end-to-end metric it should move.
Timings come from probes: direct calls into each module's public functions
on the seed's own inputs (the amplitude-scan momenta, the vacpol and
level-system inputs, the cli-runs argv), timed one call at a time and
reported as medians. Counts, errors and self-time shares come from the spans
of the workload's traced passes, so they differ between workloads.
"""
from __future__ import annotations

import contextlib
import io
import statistics
import sys
from time import perf_counter

import numpy as np

import workloads as wl
from qlambda import cli, dirac
from qlambda import (
    GridSpec,
    LevelSystem,
    base_period,
    boost_scan,
    cm_correction_factor,
    compton_cm_kinematics,
    compton_pair_A,
    compton_pair_B,
    compton_total,
    corrected_amplitude,
    evolve,
    magnus_second_order,
    moller_kinematics,
    moller_total,
    pair_shift_sample,
    total_shift,
)

SCAN = "amplitude-scan"
VACPOL = "vacpol-convergence"
DYNAMICS = "lambda-dynamics"
CLI = "cli-runs"
ALL = "every workload"

# the workload and end-to-end metric each per-layer metric should move; the
# names, units and directions themselves are BENCHMARK.json's per_layer list
MOVES = {
    "lorentz.kinematics_us": (SCAN, "item_p50_ms"),
    "dirac.u_spinor_us": (SCAN, "solve_s"),
    "dirac.polarization_pair_us": (SCAN, "solve_s"),
    "dirac.vertex_bilinear_us": (SCAN, "solve_s"),
    "amplitudes.compton_total_us": (SCAN, "solve_s"),
    "amplitudes.compton_pair_us": (SCAN, "solve_s"),
    "amplitudes.moller_total_us": (SCAN, "solve_s"),
    "amplitudes.boost_scan_ms": (SCAN, "solve_s"),
    "amplitudes.points": (SCAN, "solve_s"),
    "vacuum.total_shift_s": (VACPOL, "solve_s"),
    "vacuum.total_shift_threaded_s": (VACPOL, "solve_s"),
    "vacuum.grid_nodes": (VACPOL, "solve_s"),
    "vacuum.ms_per_1e5_nodes": (VACPOL, "solve_s"),
    "vacuum.pair_shift_sample_us": (SCAN, "solve_s"),
    "vacuum.corrected_amplitude_us": (SCAN, "solve_s"),
    "vacuum.cm_correction_s": (VACPOL, "solve_s"),
    "dynamics.evolve_ms_per_4096": (DYNAMICS, "solve_s"),
    "dynamics.steps": (DYNAMICS, "solve_s"),
    "dynamics.magnus_ms": (DYNAMICS, "solve_s"),
    "dynamics.write_csv_ms": (CLI, "item_p50_ms"),
    "cli.numpy_import_s": (ALL, "setup_s"),
    "cli.import_s": (ALL, "setup_s"),
    "cli.artifact_bytes": (CLI, "item_p50_ms"),
}
SUBCOMMANDS = ("lambda_sim", "compton_cm", "compton_rest", "moller", "vacpol",
               "boost_scan_compton", "boost_scan_moller")
for _sub in SUBCOMMANDS:
    MOVES[f"cli.{_sub}_main_ms"] = MOVES[f"cli.{_sub}_wall_ms"] = (CLI, "item_p50_ms")
# from the spans of the workload's own traced passes
for _module in ("lorentz", "dirac", "amplitudes", "vacuum", "dynamics", "cli"):
    MOVES[f"{_module}.calls"] = MOVES[f"{_module}.self_pct"] = (ALL, "solve_s")
    MOVES[f"{_module}.errors"] = (ALL, "fail_ratio")
MOVES["bench.self_pct"] = MOVES["trace.overhead_pct"] = (ALL, "solve_s")

ROUNDS = 3
SCAN_STRIDE = 8  # every 8th scan point: both frames, all spins and pols


def _median_us(samples) -> float:
    return 1e6 * statistics.median(samples)


def _timed(fn, *args, **kwargs):
    start = perf_counter()
    out = fn(*args, **kwargs)
    return perf_counter() - start, out


def amplitude_probes(seed: int) -> dict:
    points = wl.scan_points(seed)[::SCAN_STRIDE]
    times = {key: [] for key in ("kin", "u", "pol", "vertex", "total", "pair",
                                 "moller", "sample", "corrected")}
    for _ in range(ROUNDS):
        for pt in points:
            frame = None if pt.beta is None else wl.Boost(pt.beta)
            start = perf_counter()
            vectors = compton_cm_kinematics(pt.energy, pt.theta, frame)
            mvectors = moller_kinematics(pt.e_cm, pt.theta, frame)
            times["kin"].append(perf_counter() - start)
            p, k, p_out, _ = vectors
            dt, u_in = _timed(dirac.u_spinor, p.spatial, pt.spins[0], 1.0)
            times["u"].append(dt)
            u_out = dirac.u_spinor(p_out.spatial, pt.spins[1], 1.0)
            dt, pols = _timed(dirac.polarization_pair, k.spatial)
            times["pol"].append(dt)
            dt, _ = _timed(dirac.vertex_bilinear, u_out, pols[pt.pols[0] - 1], u_in)
            times["vertex"].append(dt)
            kwargs = {"spins": pt.spins, "pols": pt.pols}
            times["total"].append(_timed(compton_total, *vectors, **kwargs)[0])
            times["pair"].append(_timed(compton_pair_A, *vectors, **kwargs)[0])
            times["pair"].append(_timed(compton_pair_B, *vectors, **kwargs)[0])
            dt, moller = _timed(moller_total, *mvectors, spins=pt.moller_spins)
            times["moller"].append(dt)
            times["sample"].append(_timed(pair_shift_sample, p.spatial, k.spatial)[0])
            shift = -1e-4 * min(abs(part.denom) for part in moller.parts)
            times["corrected"].append(_timed(corrected_amplitude, *mvectors,
                                             pair_shift=shift, spins=pt.moller_spins)[0])
    scans = []
    for _ in range(ROUNDS):
        start = perf_counter()
        for process, kwargs in wl.boost_scan_args(seed).items():
            boost_scan(process, wl.BETAS, **kwargs)
        scans.append(perf_counter() - start)
    return {
        "lorentz.kinematics_us": _median_us(times["kin"]),
        "dirac.u_spinor_us": _median_us(times["u"]),
        "dirac.polarization_pair_us": _median_us(times["pol"]),
        "dirac.vertex_bilinear_us": _median_us(times["vertex"]),
        "amplitudes.compton_total_us": _median_us(times["total"]),
        "amplitudes.compton_pair_us": _median_us(times["pair"]),
        "amplitudes.moller_total_us": _median_us(times["moller"]),
        "amplitudes.boost_scan_ms": 1e3 * statistics.median(scans),
        "vacuum.pair_shift_sample_us": _median_us(times["sample"]),
        "vacuum.corrected_amplitude_us": _median_us(times["corrected"]),
    }


def vacuum_probes(seed: int) -> dict:
    grid = GridSpec()
    k3 = np.array(wl.K_AXIS)
    serial, threaded, cm = [], [], []
    cm_vectors = wl.vacpol_inputs(seed)["cm_vectors"]
    for _ in range(ROUNDS):
        serial.append(_timed(total_shift, k3, 1e4, grid)[0])
        threaded.append(_timed(total_shift, k3, 1e4, grid, n_threads=wl.nproc())[0])
        cm.append(_timed(cm_correction_factor, *cm_vectors, cutoff=1e4)[0])
    # radii: n_radial * 4 Gauss nodes, twice that for the refinement, and the edges
    nodes = 13 * grid.n_radial * grid.n_theta * grid.n_phi
    shift_s = statistics.median(serial)
    return {
        "vacuum.total_shift_s": shift_s,
        "vacuum.total_shift_threaded_s": statistics.median(threaded),
        "vacuum.grid_nodes": nodes,
        "vacuum.ms_per_1e5_nodes": 1e3 * shift_s / (nodes / 1e5),
        "vacuum.cm_correction_s": statistics.median(cm),
    }


def dynamics_probes(seed: int) -> dict:
    docs = wl.lambda_documents(seed)
    systems = [LevelSystem.from_json(text) for family in docs.values()
               for text in family.values()]
    magnus = [_timed(magnus_second_order, system)[0]
              for _ in range(ROUNDS) for system in systems]
    system = LevelSystem.from_json(docs["lambda"][wl.RATIOS[1]])
    dt = base_period(system)
    evolves = []
    for _ in range(ROUNDS):
        dt_evolve, trajectory = _timed(evolve, system, [1, 0, 0], 4096 * dt, dt)
        evolves.append(dt_evolve)
    writes = [_timed(trajectory.write_csv, io.StringIO())[0] for _ in range(ROUNDS)]
    return {
        "dynamics.evolve_ms_per_4096": 1e3 * statistics.median(evolves),
        "dynamics.magnus_ms": 1e3 * statistics.median(magnus),
        "dynamics.write_csv_ms": 1e3 * statistics.median(writes),
    }


def _subprocess_s(code: str) -> float:
    times = []
    for _ in range(ROUNDS + 2):
        start = perf_counter()
        proc = wl.run_child([sys.executable, "-c", code])
        if proc.returncode != 0:
            raise RuntimeError(f"{code!r} exited {proc.returncode}: {proc.stderr}")
        times.append(perf_counter() - start)
    return statistics.median(times)


def cli_probes(seed: int, workdir) -> dict:
    commands = wl.cli_commands(seed, workdir)
    main_ms = {name: [] for name in commands}
    wall_ms = {name: [] for name in commands}
    for _ in range(ROUNDS):
        for name, argv in commands.items():
            with contextlib.redirect_stderr(io.StringIO()):
                dt, code = _timed(cli.main, argv)
            if code != 0:
                raise RuntimeError(f"cli.main({argv}) exited {code}")
            main_ms[name].append(1e3 * dt)
            start = perf_counter()
            proc = wl.run_cli(argv, workdir)
            if proc.returncode != 0:
                raise RuntimeError(f"qlambda {name} exited {proc.returncode}: {proc.stderr}")
            wall_ms[name].append(1e3 * (perf_counter() - start))
    out = {
        "cli.numpy_import_s": _subprocess_s("import numpy"),
        "cli.import_s": _subprocess_s("import qlambda.cli"),
        "cli.artifact_bytes": sum(path.stat().st_size for argv in commands.values()
                                  for path in wl.artifacts(argv)),
    }
    for name in commands:
        out[f"cli.{name}_main_ms"] = statistics.median(main_ms[name])
        out[f"cli.{name}_wall_ms"] = statistics.median(wall_ms[name])
    return out


def probe_all(seed: int, workdir) -> dict:
    out = {}
    out.update(amplitude_probes(seed))
    out.update(vacuum_probes(seed))
    out.update(dynamics_probes(seed))
    out.update(cli_probes(seed, workdir))
    return out
