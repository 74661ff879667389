"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload figure_fresh --seed 1 --seconds 22 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
op set with the second half traced and prints the per-layer metrics.
Diagnostics go to stderr; the last stdout line is the result object.
Exits 2 without a result when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
#: Service caches and journals live here for the length of a run.
SCRATCH = ROOT / ".bench_tmp"


def end_to_end(setups, outcome, rss_mb) -> dict[str, tuple[float, str]]:
    from workloads import percentile, trimmed_mean

    return {
        # Without the fastest and the slowest set-up.
        "setup_s": (trimmed_mean(setups, 0.2), "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "op_p50_ms": (statistics.median(outcome.op_ms), "ms"),
        "op_p90_ms": (percentile(outcome.op_ms, 90), "ms"),
        "runs_per_s": (outcome.runs / outcome.busy_s, "1/s"),
        "chunk_tmean_ms": (trimmed_mean(outcome.chunk_ms), "ms"),
        "ok_frac": (
            (outcome.attempted - outcome.failed) / outcome.attempted, "ratio"
        ),
    }


def per_layer(outcome) -> dict[str, tuple[float, str]]:
    """Every per-layer metric BENCHMARK.json names; idle layers read 0."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        metric["name"]: (
            float(outcome.layers.get(metric["name"], 0.0)), metric["unit"]
        )
        for metric in bench["per_layer"]
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {SOURCE}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("--seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    # The runner reads REPRO_* at import: pin serial, uncached defaults.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_JOBS"] = "1"
    # One BLAS thread: the benchmark's load is its own loop, nothing else.
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"
    sys.path.insert(0, str(SOURCE))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload](
        seed=args.seed, seconds=args.seconds, scratch=SCRATCH
    )
    try:
        setups, outcome, rss_mb = workload.execute(trace=bool(args.trace))
    finally:
        workload.close()
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not outcome.problems and not outcome.overloaded
    if outcome.overloaded:
        # An open loop whose backlog grows measures the queue, not the
        # service: its latencies are not reported.
        print("overloaded: outstanding requests grew", file=sys.stderr)
        metrics = {}
    elif args.trace:
        metrics = per_layer(outcome)
    else:
        metrics = end_to_end(setups, outcome, rss_mb)
    print(
        f"{args.workload}: setups {[round(s, 3) for s in setups]} s, "
        f"{len(outcome.op_ms)} ops, {len(outcome.chunk_ms)} chunks",
        file=sys.stderr,
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.4f} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
