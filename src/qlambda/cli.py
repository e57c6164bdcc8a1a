"""Command-line driver: simulations, amplitude evaluations, and scans.

Subcommands: lambda-sim, compton, moller, vacpol, boost-scan. Every command
is deterministic for a given configuration; repeated runs produce
byte-identical artifacts. Exit codes: 0 success, 2 configuration error,
3 integration guard, 4 physics-domain error, 5 convergence guard.

compton, moller and boost-scan run on the numpy-free scalar layer; only
lambda-sim and vacpol import numpy, dynamics and vacuum, inside their
commands, so the amplitude commands start without them. Every value type of
the package is a namedtuple record, so no command imports `dataclasses` (or
the `inspect` it pulls in) either.

lambda-sim fits the transfer from --initial-level to --target-level (default:
the last level); the two must differ.
"""
from __future__ import annotations

import argparse
import io
import math
import os
import sys

from . import amplitudes, lorentz
from .errors import ConfigError, GridTooCoarse, PhysicsDomainError, StepTooLarge
from .jsonio import dump_json, dump_key_value_csv
from .lorentz import Boost, Constants, constants_from_mapping, read_constants_file


def finite_float(text: str) -> float:
    """argparse type for float flags: NaN and infinities exit 2 at the boundary."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _resolve_constants(args) -> Constants:
    """Config-file keys, then --constant flags on top, read as one mapping."""
    mapping = read_constants_file(args.config) if args.config else {}
    for key, value in args.constant or ():
        try:
            mapping[key] = float(value)
        except ValueError as exc:
            raise ConfigError(f"constant override {key!r} needs a number: {value!r}") from exc
    return constants_from_mapping(mapping)


def _thread_cap() -> None:
    raw = os.environ.get("QLAMBDA_THREADS", "1")
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"QLAMBDA_THREADS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ConfigError(f"QLAMBDA_THREADS must be >= 1, got {value}")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc


def _write_csv(path: str, artifact) -> None:
    """Write the output of `artifact.write_csv` to path in one piece."""
    buffer = io.StringIO()
    artifact.write_csv(buffer)
    _write_text(path, buffer.getvalue())


def _emit_result_doc(doc: dict, out: str, fmt: str | None) -> None:
    """JSON unless --format csv was given."""
    _write_text(out, dump_key_value_csv(doc) if fmt == "csv" else dump_json(doc))


def _require_csv(args) -> None:
    """Commands whose artifacts are CSV tables accept --format csv and reject json."""
    if args.format == "json":
        raise ConfigError(
            f"{args.command} writes CSV only for --out; --format json is not available"
        )


def cmd_lambda_sim(args) -> int:
    import numpy as np

    from . import dynamics

    _require_csv(args)
    constants = _resolve_constants(args)
    try:
        with open(args.system, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read system file {args.system!r}: {exc}") from exc
    system = dynamics.LevelSystem.from_json(text)
    n = system.n_levels
    start = args.initial_level - 1
    target = (args.target_level if args.target_level is not None else n) - 1
    if not (0 <= start < n and 0 <= target < n):
        raise ConfigError("initial/target level out of range")
    if start == target:
        raise ConfigError(f"target level {target + 1} is the initial level: "
                          "there is no transfer to fit")
    psi0 = np.zeros(n, dtype=complex)
    psi0[start] = 1.0

    effective = dynamics.magnus_second_order(system, hbar=constants.hbar)
    analytic = complex(effective.matrix[target, start])

    t_final = args.t_final
    if t_final is None:
        if analytic == 0.0:
            raise ConfigError("no effective coupling; give --t-final explicitly")
        t_final = 1.05 * math.pi * constants.hbar / (2.0 * abs(analytic))
    elif not t_final > 0.0:
        # checked before the default dt is derived from it, so the message names this flag
        raise ConfigError(f"--t-final must be positive, got {t_final!r}")
    dt = args.dt if args.dt is not None else t_final / 4096.0

    trajectory = dynamics.evolve(system, psi0, t_final, dt, hbar=constants.hbar)
    _write_csv(args.out, trajectory)

    populations = trajectory.populations()[:, target]
    fitted = _fit_rabi_rate(trajectory.times, populations, constants.hbar)
    if analytic == 0.0 or fitted is None:
        deviation = None
    else:
        deviation = abs(fitted - abs(analytic)) / abs(analytic)
    summary = {
        "analytic_coupling": [analytic.real, analytic.imag],
        "fitted_rate": fitted,
        "relative_deviation": deviation,
        "period": effective.period,
        "t_final": float(t_final),
        "dt": float(dt),
        "target_level": target + 1,
        "max_norm_drift": trajectory.max_norm_drift,
        "drift_tol": dynamics.DRIFT_TOL,
    }
    _write_text(args.summary, dump_json(summary))
    return 0


def _fit_rabi_rate(times: np.ndarray, populations: np.ndarray, hbar: float) -> float | None:
    """Rate from the first transfer maximum, with parabolic peak refinement.

    None when the largest population is the last sample: the transfer is
    still rising at t_final, so no maximum was sampled.
    """
    import numpy as np

    idx = int(np.argmax(populations))
    if idx == 0:
        return 0.0
    if idx == len(times) - 1:
        return None
    y0, y1, y2 = populations[idx - 1 : idx + 2]
    denom = y0 - 2.0 * y1 + y2
    offset = 0.0 if denom == 0.0 else 0.5 * (y0 - y2) / denom
    t_peak = times[idx] + offset * (times[1] - times[0])
    return math.pi * hbar / (2.0 * t_peak)


def _beta_from_args(args) -> Boost | None:
    if args.beta == 0.0:
        return None
    return Boost.along_z(args.beta)


def cmd_compton(args) -> int:
    constants = _resolve_constants(args)
    frame = _beta_from_args(args)
    maker = lorentz.compton_cm_kinematics if args.frame == "cm" else lorentz.compton_kinematics
    vectors = maker(args.photon_energy, args.theta, frame, m=constants.m_e)
    result = amplitudes.compton_total(
        *vectors,
        spins=tuple(args.spins),
        pols=tuple(args.pols),
        constants=constants,
        frame=frame,
    )
    _emit_result_doc(result.to_json_dict(), args.out, args.format)
    return 0


def cmd_moller(args) -> int:
    constants = _resolve_constants(args)
    frame = _beta_from_args(args)
    vectors = lorentz.moller_kinematics(args.e_cm, args.theta, frame, m=constants.m_e)
    result = amplitudes.moller_total(
        *vectors, spins=tuple(args.spins), constants=constants, frame=frame
    )
    _emit_result_doc(result.to_json_dict(), args.out, args.format)
    return 0


def cmd_vacpol(args) -> int:
    import numpy as np

    from . import vacuum

    _require_csv(args)
    constants = _resolve_constants(args)
    grid = vacuum.GridSpec(
        n_radial=args.n_radial, n_theta=args.n_theta, n_phi=args.n_phi
    )
    k3 = np.array(args.k, dtype=float)
    _thread_cap()  # validated for the CLI contract; the sum runs as one vectorized pass
    shift, report = vacuum.total_shift(k3, args.cutoff, grid, constants,
                                       photon_energy=args.photon_energy,
                                       refine_tol=args.refine_tol)
    _write_csv(args.out, report)
    summary = {
        "pair_shift": shift,
        "fitted_slope": report.fitted_slope,
        "refine_delta": report.refine_delta,
        "cutoff": float(args.cutoff),
        "photon_energy": args.photon_energy
        if args.photon_energy is not None
        else math.hypot(*k3),
        "grid": {
            "n_radial": grid.n_radial,
            "n_theta": grid.n_theta,
            "n_phi": grid.n_phi,
        },
    }
    _write_text(args.summary, dump_json(summary))
    return 0


def cmd_boost_scan(args) -> int:
    _require_csv(args)
    constants = _resolve_constants(args)
    for b in args.betas:
        if not 0.0 <= b < 1.0:
            raise ConfigError(f"beta values must lie in [0, 1), got {b!r}")
    table = amplitudes.boost_scan(
        args.process,
        args.betas,
        normalization=args.normalization,
        constants=constants,
        photon_energy=args.photon_energy,
        e_cm=args.e_cm,
        theta=args.theta,
    )
    _write_csv(args.out, table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlambda",
        description="Few-level effective couplings, scattering amplitudes, and "
        "momentum-sum convergence diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with flat constants keys")
        p.add_argument(
            "--constant",
            nargs=2,
            action="append",
            metavar=("KEY", "VALUE"),
            help="override one constant (repeatable; wins over --config)",
        )
        # compton and moller write JSON by default; the other commands write CSV only
        p.add_argument("--format", choices=("csv", "json"), default=None)

    p = sub.add_parser("lambda-sim", help="evolve a level system and fit the transfer rate")
    common(p)
    p.add_argument("--system", required=True, help="LevelSystem JSON file")
    p.add_argument("--t-final", type=finite_float, default=None)
    p.add_argument("--dt", type=finite_float, default=None)
    p.add_argument("--initial-level", type=int, default=1)
    p.add_argument("--target-level", type=int, default=None)
    p.add_argument("--out", default="trajectory.csv")
    p.add_argument("--summary", default="lambda_summary.json")
    p.set_defaults(func=cmd_lambda_sim)

    p = sub.add_parser("compton", help="photon-electron scattering amplitude")
    common(p)
    p.add_argument("--photon-energy", type=finite_float, default=1.0)
    p.add_argument("--theta", type=finite_float, default=math.pi / 3.0)
    p.add_argument("--beta", type=finite_float, default=0.0,
                   help="z boost applied to the kinematics")
    p.add_argument("--frame", choices=("cm", "rest"), default="cm")
    p.add_argument("--spins", type=int, nargs=2, choices=(1, 2), default=(1, 1))
    p.add_argument("--pols", type=int, nargs=2, choices=(1, 2), default=(1, 1))
    p.add_argument("--out", default="amplitude.json")
    p.set_defaults(func=cmd_compton)

    p = sub.add_parser("moller", help="electron-electron exchange amplitude")
    common(p)
    p.add_argument("--e-cm", type=finite_float, default=4.0)
    p.add_argument("--theta", type=finite_float, default=math.pi / 3.0)
    p.add_argument("--beta", type=finite_float, default=0.0)
    p.add_argument("--spins", type=int, nargs=4, choices=(1, 2), default=(1, 1, 1, 1))
    p.add_argument("--out", default="amplitude.json")
    p.set_defaults(func=cmd_moller)

    p = sub.add_parser("vacpol", help="pair-shift momentum integral with convergence report")
    common(p)
    p.add_argument("--k", type=finite_float, nargs=3, default=(0.0, 0.0, 0.5),
                   metavar=("KX", "KY", "KZ"))
    p.add_argument("--cutoff", type=finite_float, default=1e4)
    p.add_argument("--photon-energy", type=finite_float, default=None,
                   help="off-shell photon energy; defaults to |k|")
    p.add_argument("--n-radial", type=int, default=96)
    p.add_argument("--n-theta", type=int, default=16)
    p.add_argument("--n-phi", type=int, default=8)
    p.add_argument("--refine-tol", type=finite_float, default=0.01)
    p.add_argument("--out", default="convergence.csv")
    p.add_argument("--summary", default="vacpol_summary.json")
    p.set_defaults(func=cmd_vacpol)

    p = sub.add_parser("boost-scan", help="amplitude magnitude across boosted frames")
    common(p)
    p.add_argument("--process", choices=("compton", "moller"), required=True)
    p.add_argument("--betas", type=finite_float, nargs="+", default=[0.0, 0.3, 0.6, 0.9])
    p.add_argument("--normalization", choices=("box", "covariant"), default="box")
    p.add_argument("--photon-energy", type=finite_float, default=1.0)
    p.add_argument("--e-cm", type=finite_float, default=4.0)
    p.add_argument("--theta", type=finite_float, default=math.pi / 3.0)
    p.add_argument("--out", default="boost_scan.csv")
    p.set_defaults(func=cmd_boost_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except StepTooLarge as exc:
        print(f"integration guard: {exc}", file=sys.stderr)
        return 3
    except GridTooCoarse as exc:
        print(f"convergence guard: {exc}", file=sys.stderr)
        return 5
    except PhysicsDomainError as exc:
        context = ", ".join(
            f"{name}={getattr(args, name)}"
            for name in ("photon_energy", "e_cm", "theta", "beta", "k", "cutoff")
            if getattr(args, name, None) is not None
        )
        print(f"physics domain error: {exc} [{context}]", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
