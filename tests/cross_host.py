"""Compare the vacpol and lambda-sim artifacts of two runs field by field.

    python tests/cross_host.py HOST_DIR OTHER_DIR

Each JSON summary and CSV table in HOST_DIR is compared with the file of the
same name in OTHER_DIR, which must exist. This is the README's cross-host
contract: a field listed in TOLERANCES may move by
|other - host| <= atol + rtol |host|, and every other value (inputs, integers,
strings, nulls and the fields computed on Python floats) must match
exactly. Prints the largest move of each field and exits 1 if any field
breaks its tolerance, or if the two runs hold different fields.
"""
from __future__ import annotations

import csv
import json
import re
import sys
from pathlib import Path

# (rtol, atol) per field; CSV columns re_0, im_0, ... are named re and im
TOLERANCES = {
    # vacpol: the radial edges come from numpy's exp, whose SIMD rounding
    # depends on the CPU; the angle sums, panel sums and slope fit from BLAS
    "cutoff": (1e-15, 0.0),
    "pair_shift": (1e-13, 0.0),
    "fitted_slope": (1e-13, 0.0),
    "partial_sum": (1e-13, 0.0),
    "tail_estimate": (1e-13, 0.0),
    # the relative move of the total under radial doubling: it moves by the
    # rounding of the totals, so its own relative move can be large
    "refine_delta": (0.0, 1e-13),
    # lambda-sim: the eigendecomposition and products of evolve, on unit states
    "re": (0.0, 1e-13),
    "im": (0.0, 1e-13),
    "fitted_rate": (1e-12, 0.0),
    # a difference of nearly equal rates over one of them, and two residuals
    # near machine precision
    "relative_deviation": (0.0, 1e-12),
    "magnus_residual": (0.0, 1e-13),
    "max_norm_drift": (0.0, 1e-13),
}


def fields(path: Path) -> dict:
    """{field path: value} of a JSON summary or a CSV table with one header line."""
    if path.suffix == ".json":
        out = {}

        def walk(prefix, value):
            if isinstance(value, dict):
                for key, item in value.items():
                    walk(f"{prefix}.{key}" if prefix else key, item)
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    walk(f"{prefix}[{i}]", item)
            else:
                out[prefix] = value

        walk("", json.loads(path.read_text(encoding="utf-8")))
        return out
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    return {f"{name}[{i}]": float(row[c]) for c, name in enumerate(header)
            for i, row in enumerate(body)}


def field_name(key: str) -> str:
    """The TOLERANCES name of a field path: its last key, without index or level suffix."""
    return re.sub(r"_\d+$", "", re.sub(r"\[\d+\]", "", key).rsplit(".", 1)[-1])


def compare(host_dir: Path, other_dir: Path) -> tuple[list[str], list[str]]:
    """Breaches of the contract, and the largest move of each field with a tolerance.

    A move is relative to the host value for a field with an rtol, else absolute.
    """
    failures, worst = [], {}
    for host_path in sorted([*host_dir.glob("*.json"), *host_dir.glob("*.csv")]):
        host, other = fields(host_path), fields(other_dir / host_path.name)
        if host.keys() != other.keys():
            failures.append(f"{host_path.name}: the runs hold different fields")
            continue
        for key, want in host.items():
            got, name = other[key], field_name(key)
            if got == want or (got != got and want != want):  # NaN matches NaN
                move = 0.0
            elif name in TOLERANCES and {type(got), type(want)} <= {int, float}:
                rtol, atol = TOLERANCES[name]
                move = abs(got - want)
                if not move <= atol + rtol * abs(want):
                    failures.append(f"{host_path.name} {key}: {got!r} moved {move:.3g} "
                                    f"from {want!r} (rtol {rtol:g}, atol {atol:g})")
                move = move / abs(want) if rtol and want else move
            else:
                failures.append(f"{host_path.name} {key}: {got!r} != {want!r}")
                continue
            if name in TOLERANCES:
                slot = f"{host_path.name} {name}"
                worst[slot] = max(worst.get(slot, 0.0), move)
    return failures, [f"{slot}: largest move {move:.3g}" for slot, move in sorted(worst.items())]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    failures, moves = compare(Path(argv[0]), Path(argv[1]))
    print("\n".join(moves + [f"FAIL {line}" for line in failures]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
