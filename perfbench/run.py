"""qlambda benchmark: one workload, end-to-end metrics or a traced per-layer table.

    python3 perfbench/run.py --workload amplitude-scan --seed 1 --seconds 20 --trace 0

Workloads: amplitude-scan, vacpol-convergence, lambda-dynamics, cli-runs
(see workloads.py). Every item is cross-checked; an item fails when it
raises or misses its tolerance. After one warm-up pass over the workload's
fixed input set, passes repeat until --seconds have been measured.

--trace 0 reports the end-to-end metrics: solve_s (median pass), item_p50_ms,
item_tail_ms (highest percentile with at least ten items beyond it in blocks
of about 50 items, median over the blocks), setup_s (median wall time of
fresh interpreters that import qlambda and build the inputs) and
peak_rss_mb. Their times are scaled to reference seconds by HostSpeed; the
unscaled figures are printed as notes. --trace 1 alternates untraced and
traced passes, then probes every layer (layers.py) and reports
BENCHMARK.json's per_layer metrics, unscaled.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it record the environment and every
metric with its unit. The exit code is 0 when the run completed, whether or
not items failed, and 2 when qlambda cannot be found.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# pinned identically for every run and every child interpreter, before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
SETUP_RUNS = 7
TAIL_BEYOND = 10
BLOCK_ITEMS = 50
# HostSpeed: the reference kernel's time on the 2-vCPU host the baseline was
# recorded on, when nothing else ran; it sets the unit of the scaled times
REFERENCE_S = 0.002
SAMPLE_EVERY_S = 0.05
LOCAL_SAMPLES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qlambda").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args, np) -> dict:
    from workloads import nproc

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def setup_probe(args, workdir: Path) -> float:
    """Wall time of a fresh interpreter that imports qlambda and builds the inputs."""
    from workloads import run_child

    argv = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed),
            str(workdir)]
    start = perf_counter()
    proc = run_child(argv)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr}")
    return elapsed


class HostSpeed:
    """The host's speed now, from a fixed reference kernel timed between items.

    The benchmark shares the cores of its host, whose speed drifts by up to
    1.7x over seconds to minutes while the work stays the same: wall times
    of runs made minutes apart spread by up to half their median. A time
    multiplied by scale() reads instead as seconds on a host that runs the
    kernel in REFERENCE_S, which spreads several times less. The kernel, an
    interpreter loop and small numpy products of about 2 ms, calls no
    qlambda code and runs outside every timed item, so a change to qlambda
    moves the scaled times as it moves the wall times, unless the change
    leaves work running between items.
    """

    def __init__(self, np):
        self._np = np
        self._matrix = np.random.default_rng(0).normal(size=(64, 64))
        self._due = 0.0
        self._kernel()  # warm-up, not a sample
        self.samples = []

    def _kernel(self) -> float:
        start = perf_counter()
        total = 0
        for i in range(20000):
            total += i * i % 7
        x = self._matrix
        for _ in range(40):
            x = self._np.tanh(0.01 * (x @ self._matrix))
        return perf_counter() - start

    def sample_if_due(self) -> None:
        """Times the kernel when SAMPLE_EVERY_S have passed since it last ran."""
        if perf_counter() >= self._due:
            self.samples.append(self._kernel())
            self._due = perf_counter() + SAMPLE_EVERY_S

    def scale(self) -> float:
        """Factor from seconds measured now to reference seconds."""
        self.sample_if_due()
        return REFERENCE_S / statistics.median(self.samples[-LOCAL_SAMPLES:])


class Runner:
    """Runs passes over a workload, keeping the failures and the work counters."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = {}  # label -> value of the first pass, for bit-identity
        self.attempted = 0
        self.failures = []
        self.counts = []  # workload counters after each pass

    def run_pass(self, tracer, speed: HostSpeed | None = None) -> list:
        """Runs every item once: (label, wall seconds, scale to reference seconds) each."""
        from workloads import CheckFailed

        for key in self.workload.counters:
            self.workload.counters[key] = 0
        state = {}
        timings = []
        for label, fn in self.workload.items:
            scale = speed.scale() if speed else 1.0
            item_start = perf_counter()
            self.attempted += 1
            try:
                with tracer.span("bench", label):
                    value = fn(tracer, state)
                state[label] = value
                if self.reference.setdefault(label, value) != value:
                    raise CheckFailed("result differs from the first pass")
            except Exception as exc:  # an item that raises is a failed item
                self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            timings.append((label, perf_counter() - item_start, scale))
        self.counts.append(dict(self.workload.counters))
        return timings


def tail(latencies: list) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(0, n - TAIL_BEYOND - 1)
    return 100.0 * (index + 1) / n, ordered[index]


def peak_rss_mb(workload: str) -> float:
    # cli-runs does its work in child interpreters
    who = resource.RUSAGE_CHILDREN if workload == "cli-runs" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timing_metrics(passes: list, items: list, setups: list, per_pass: int) -> tuple[dict, str]:
    """solve_s, item_p50_ms, item_tail_ms and setup_s from lists of seconds.

    The tail is taken in blocks of BLOCK_ITEMS consecutive items, rounded up
    to whole passes when a pass holds fewer, and its median over the blocks
    reported. Every run so reads the same percentile of the same mix of
    items, instead of rarer hiccups the longer the run, or another item type
    when one more pass fits. A run with fewer items is one block.
    """
    size = BLOCK_ITEMS if per_pass >= BLOCK_ITEMS else per_pass * math.ceil(BLOCK_ITEMS / per_pass)
    blocks = [items[i:i + size] for i in range(0, len(items) - size + 1, size)] or [items]
    tails = [tail(block) for block in blocks]
    metrics = {
        "solve_s": (statistics.median(passes), "s"),
        "item_p50_ms": (1e3 * statistics.median(items), "ms"),
        "item_tail_ms": (1e3 * statistics.median(t for _, t in tails), "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, (f"item_tail_ms: p{tails[0][0]:.2f} of blocks of {len(blocks[0])} items, "
                     f"median over {len(blocks)} blocks")


def end_to_end(args, workload, workdir: Path, np) -> tuple[Runner, dict, list]:
    from tracing import NullTracer

    runner = Runner(workload)
    tracer = NullTracer()
    speed = HostSpeed(np)
    runner.run_pass(tracer, speed)  # warm-up: caches, lazy imports, reference values
    setup_probe(args, workdir)  # warm-up: fills the bytecode cache
    # wall seconds, and the same scaled to reference seconds
    wall = {"passes": [], "items": [], "setups": []}
    ref = {"passes": [], "items": [], "setups": []}
    start = perf_counter()
    while len(wall["passes"]) < MIN_PASSES or perf_counter() - start < args.seconds:
        timings = runner.run_pass(tracer, speed)
        wall["passes"].append(sum(t for _, t, _ in timings))
        ref["passes"].append(sum(t * scale for _, t, scale in timings))
        for label, t, scale in timings:
            if label not in workload.untimed:
                wall["items"].append(t)
                ref["items"].append(t * scale)
        # spread over the run, so that set-up sees the same machine as the passes
        if perf_counter() - start >= len(wall["setups"]) * args.seconds / SETUP_RUNS:
            t = setup_probe(args, workdir)
            wall["setups"].append(t)
            ref["setups"].append(t * speed.scale())
    while len(wall["setups"]) < SETUP_RUNS:
        t = setup_probe(args, workdir)
        wall["setups"].append(t)
        ref["setups"].append(t * speed.scale())
    per_pass = len(workload.items) - len(workload.untimed)
    metrics, tail_note = timing_metrics(**ref, per_pass=per_pass)
    metrics["peak_rss_mb"] = (peak_rss_mb(args.workload), "MB")
    unscaled, _ = timing_metrics(**wall, per_pass=per_pass)
    scales = [REFERENCE_S / sample for sample in speed.samples]
    notes = [
        f"solve_s: median of {len(wall['passes'])} passes over {len(workload.items)} items",
        tail_note,
        f"setup_s: median of {len(wall['setups'])} fresh interpreters",
        "unscaled wall times: " + " ".join(f"{name}={value:.6g} {unit}"
                                           for name, (value, unit) in unscaled.items()),
        f"host speed: {len(scales)} reference-kernel samples, scale median "
        f"{statistics.median(scales):.4g}, min {min(scales):.4g}, max {max(scales):.4g}",
        f"fail_ratio: {len(runner.failures) / runner.attempted:.6g} "
        f"({len(runner.failures)} of {runner.attempted} items)",
    ]
    if "textbook_ratios" in workload.info:
        from workloads import textbook_spread

        notes.append("textbook_ratio spread (criterion 06, not gated): "
                     f"{textbook_spread(workload.info['textbook_ratios']):.3g}")
    return runner, metrics, notes


def traced(args, workload, workdir: Path) -> tuple[Runner, dict, list]:
    import layers
    import qlambda.amplitudes
    import qlambda.vacuum
    from tracing import NullTracer, Tracer

    runner = Runner(workload)
    runner.run_pass(NullTracer())
    tracer = Tracer()
    plain, spanned, counts = [], [], []
    start = perf_counter()
    while len(spanned) < MIN_PASSES or perf_counter() - start < args.seconds:
        plain.append(sum(t for _, t, _ in runner.run_pass(NullTracer())))
        with tracer.patched([qlambda.amplitudes, qlambda.vacuum]):
            spanned.append(sum(t for _, t, _ in runner.run_pass(tracer)))
        counts.append(runner.counts[-1])
    values = layers.probe_all(args.seed, workdir)
    values.update(tracer.summary(len(spanned)))
    for key in ("amplitudes.points", "dynamics.steps"):
        values[key] = statistics.median(c.get(key, 0) for c in counts)
    untraced_s = statistics.median(plain)
    values["trace.overhead_pct"] = 100.0 * (statistics.median(spanned) - untraced_s) / untraced_s
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["per_layer"]}
    notes = [f"{name}: {value:.6g} {unit} -> {' '.join(layers.MOVES[name])}"
             for name, (value, unit) in metrics.items()]
    notes.append(f"{len(spanned)} traced and {len(plain)} untraced passes, "
                 f"{len(tracer.spans)} spans")
    return runner, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qlambda" / "__init__.py").is_file():
        print(f"qlambda sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import numpy as np
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.BUILDERS)}",
              file=sys.stderr)
        return 2
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        print("env " + json.dumps(environment(args, np), sort_keys=True))
        workload = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            runner, metrics, notes = traced(args, workload, workdir)
        else:
            runner, metrics, notes = end_to_end(args, workload, workdir, np)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()
    for line in notes:
        print("note " + line)
    for failure in runner.failures[:20]:
        print("fail " + failure)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.9g} {unit}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
