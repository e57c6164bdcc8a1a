"""Self-check of the benchmark: run-to-run spread of every end-to-end metric.

    python3 perfbench/selfcheck.py
    python3 perfbench/selfcheck.py --baseline perfbench/baseline.json

Runs perfbench/run.py as BENCHMARK.json's command for run_seconds, one run at
a time: every workload with seeds 1 to 10, and then the same runs again as a
second set. Both sets run the same code on the same inputs. For every
workload and end-to-end metric it prints each set's median, quartiles and
their distance as a share of the median, against the metric's bound, and how
much worse the second median is than the first. It also checks that each
run's last line carries exactly the metrics BENCHMARK.json lists and that no
item failed. --baseline also makes one traced run per workload and writes
the figures, the per-layer tables and the environment to a JSON file. The
tier-1 tests never import this file; it exits 1 when any check fails.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[0][len("env "):])
    return result


def result_problems(spec: dict, result: dict, trace: int) -> list[str]:
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    problems = []
    if set(result) - {"env"} != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{result['failed']} of {result['attempted']} items failed")
    return problems


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share of the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline", type=Path, help="write the figures to this JSON file")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    problems = []
    figures = {}
    env = None
    for s in range(SETS):
        for workload in (w["name"] for w in spec["workloads"]):
            runs = []
            for seed in SEEDS:
                result = run_once(spec, workload, seed, seconds, 0)
                print(f"set {s + 1} {workload} seed {seed}: " + " ".join(
                    f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                    file=sys.stderr, flush=True)
                problems += [f"{workload} seed {seed}: {p}"
                             for p in result_problems(spec, result, 0)]
                env = env or result["env"]
                runs.append(result)
            figures.setdefault(workload, []).append(runs)

    ok = not problems
    table = {}
    print(f"{'workload':20} {'metric':14} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for workload, sets in figures.items():
        table[workload] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            rows = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                median, q1, q3, share = spread(values)
                # set-up time is exempt from the spread gate, not from the median one
                verdict = "ok" if share < bound / 3 else ("wide" if share <= bound else "FAIL")
                if name == "setup_s":
                    verdict += " (not gated)"
                elif verdict == "FAIL":
                    ok = False
                rows.append({"median": median, "q1": q1, "q3": q3, "spread": share,
                             "verdict": verdict, "values": values})
                print(f"{workload:20} {name:14} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{share:8.4f} {bound:6.3f}  {verdict}")
            entry = {"unit": metric["unit"], "bound": bound, "sets": rows}
            drift = worse_by(rows[0]["median"], rows[1]["median"], metric["better"])
            verdict = "ok" if drift <= bound else "FAIL"
            entry["second_median_worse_by"] = drift
            entry["second_median_verdict"] = verdict
            ok = ok and drift <= bound
            print(f"{workload:20} {name:14} second median worse by {drift:+.4f}  {verdict}")
            table[workload][name] = entry

    if args.baseline:
        layers = {}
        for workload in figures:
            result = run_once(spec, workload, SEEDS[0], seconds, 1)
            problems += [f"{workload} traced: {p}" for p in result_problems(spec, result, 1)]
            layers[workload] = {k: m["value"] for k, m in result["metrics"].items()}
        doc = {"environment": env, "run_seconds": seconds, "seeds": list(SEEDS),
               "passed": ok and not problems, "problems": problems,
               "end_to_end": table, "per_layer": layers}
        args.baseline.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")

    for problem in problems:
        print("problem: " + problem)
    ok = ok and not problems
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
