"""Benchmark of ftqc: one workload per run, printed as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ftqc is imported from src/.  The
run is one serial process.  Untraced (--trace 0) it reports the
end-to-end metrics: setup_s from five fresh interpreters brought up to
the first operation one after another, then wall_s as the sum over the
workload's operations of each one's median time across the passes made
in --seconds (three at least), peak_rss_mb of this process and, on
compile, the gates and T gates compiled in one pass.  Traced (--trace 1)
it reports the per-layer counters of bench/tracing.py, each as what
set-up added plus what the median pass added (the two gauges as the
largest value seen), and trace.wall_s.

Every output is checked against bench/oracles.py.  Details of each run,
with the kernel backend, go to bench/out/.  The last line of standard
output is the result: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
MIN_PASSES = 3

# one serial process: no BLAS thread pool competing for the two cores
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [str(HERE), str(SRC)]
if not (SRC / "ftqc" / "__init__.py").is_file():
    sys.exit(f"bench: no ftqc sources under {SRC}; run from a source checkout")

import numpy  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure_setup(workload: str) -> list[float]:
    """Seconds from starting a fresh interpreter until it is ready for the first operation."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", "0", "--seconds", "0", "--setup-probe"],
            stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
    return samples


def run_passes(ops, seconds: float, tracer):
    """Whole passes over ops (MIN_PASSES at least) while the next one fits in `seconds`."""
    times = {op.name: [] for op in ops}
    counts_per_pass, layers_per_pass = [], []
    attempted = failed = 0
    wrong: list[str] = []
    start = time.perf_counter()
    last = 0.0
    while len(counts_per_pass) < MIN_PASSES or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        before = tracer.snapshot() if tracer else None
        counts: dict[str, int] = {}
        for op in ops:
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a program error fails this operation only
                failed += 1
                print(f"{op.name}: failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            times[op.name].append(time.perf_counter() - t0)
            try:
                for key, value in (op.check(out) or {}).items():
                    counts[key] = counts.get(key, 0) + value
            except workloads.OpFailed as exc:
                failed += 1
                if not counts_per_pass:
                    print(f"{op.name}: failed: {exc}", file=sys.stderr)
            except Exception as exc:  # Mismatch, or an output too malformed to check
                wrong.append(f"{op.name}: {type(exc).__name__}: {exc}")
        counts_per_pass.append(counts)
        last = time.perf_counter() - began
        if tracer:
            after = tracer.snapshot()
            layers_per_pass.append({k: after[k] - before.get(k, 0.0) for k in after})
    return times, counts_per_pass, layers_per_pass, attempted, failed, wrong


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        workloads.set_up(args.workload)
        print("ready", flush=True)
        return 0

    setup_samples = [] if args.trace else measure_setup(args.workload)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    workloads.set_up(args.workload)
    setup_layers = tracer.snapshot() if tracer else {}
    ops = workloads.build(args.workload, args.seed, OUT, ROOT)

    times, counts, layers, attempted, failed, wrong = run_passes(ops, args.seconds, tracer)
    wall = sum(statistics.median(t) for t in times.values() if t)
    for reason in wrong[:10]:
        print(f"incorrect: {reason}", file=sys.stderr)

    if args.trace:
        units = tracing.metric_units()
        final = tracer.snapshot()

        def layer_value(name):
            if name in tracing.GAUGES:
                return final.get(name, 0.0)
            return setup_layers.get(name, 0.0) + statistics.median(p.get(name, 0.0) for p in layers)

        metrics = {name: {"value": layer_value(name), "unit": unit} for name, unit in units.items()}
        metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "compiled_gates": {"value": statistics.median(c["gates"] for c in counts), "unit": "count"},
            "compiled_t_count": {"value": statistics.median(c["t"] for c in counts), "unit": "count"},
        }

    from ftqc import kernels
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "backend": kernels.BACKEND_NAME, "python": platform.python_version(),
        "numpy": numpy.__version__, "cpus": os.cpu_count(),
        "passes": len(counts), "setup_samples": setup_samples,
        "op_seconds": times, "incorrect": wrong, "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(f"backend {kernels.BACKEND_NAME}, {len(counts)} passes, {attempted} operations")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
