#!/usr/bin/env python
"""Performance gate: the benchmark on two checkouts, interleaved.

Runs ``perfbench/run.py --trace 0`` for every workload of
``BENCHMARK.json`` on each seed of :data:`SEEDS`, once in the base
checkout and once in the head checkout.  The two runs of a (seed,
workload) pair are back to back, and base and head take turns going
first, so a slow stretch of the host lands on both sides alike.

Exits 1 when

* any head run reports ``correct: false``;
* the head's total ``failed`` count on a workload is higher than the
  base's;
* any end-to-end metric's head median is worse than the base median by
  more than its ``BENCHMARK.json`` bound, in that metric's ``better``
  direction;

and 0 otherwise.  Both checkouts must hold the same ``perfbench/`` and
``BENCHMARK.json``; the head's bounds and workloads are the ones used.

Usage (from the repository root)::

    python scripts/perf_gate.py ../base-checkout .
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

#: Every workload runs once per seed on each side.
SEEDS = (1, 2, 3, 4, 5)


def load_run_once(checkout: Path, side: str) -> Callable[..., dict]:
    """``run_once`` from the checkout's own ``perfbench/prove.py``.

    It runs ``run.py`` with that checkout as its working directory, so
    each side times its own ``src/``.
    """
    path = checkout.resolve() / "perfbench" / "prove.py"
    spec = importlib.util.spec_from_file_location(
        f"perf_gate_prove_{side}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.run_once


def measure(
    base: Path, head: Path, workloads: list[str], seconds: int
) -> tuple[dict[str, list[dict]], dict[str, list[dict]]]:
    """Every workload on every seed on both sides; result objects by workload."""
    run_on = {"base": load_run_once(base, "base"),
              "head": load_run_once(head, "head")}
    results = {"base": {w: [] for w in workloads},
               "head": {w: [] for w in workloads}}
    pairs = [(seed, w) for seed in SEEDS for w in workloads]
    for index, (seed, workload) in enumerate(pairs):
        order = ("base", "head") if index % 2 == 0 else ("head", "base")
        for side in order:
            result = run_on[side](workload, seed, seconds, 0)
            results[side][workload].append(result)
            print(f"{workload} seed {seed} {side}: {result['wall_s']:.1f} s",
                  flush=True)
    return results["base"], results["head"]


def worse_by(base: float, head: float, better: str) -> float:
    """How much worse head is than base, as a fraction of base (< 0: better)."""
    change = head - base if better == "lower" else base - head
    if base:
        return change / abs(base)
    return math.inf if change > 0 else 0.0


def decide(
    bench: dict,
    base: dict[str, list[dict]],
    head: dict[str, list[dict]],
) -> list[str]:
    """Print the comparison; return one line per reason to fail."""
    failures = []
    for workload, head_runs in head.items():
        base_runs = base[workload]
        wrong = sum(not run["correct"] for run in head_runs)
        if wrong:
            failures.append(f"{workload}: {wrong} head runs not correct")
        base_failed = sum(run["failed"] for run in base_runs)
        head_failed = sum(run["failed"] for run in head_runs)
        if head_failed > base_failed:
            failures.append(
                f"{workload}: {head_failed} failed ops, base {base_failed}"
            )
        print(f"{workload}: failed ops base {base_failed} head {head_failed}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            # An overloaded run reports no metrics; it is already not correct.
            values = {
                side: [r["metrics"][name]["value"]
                       for r in runs if name in r["metrics"]]
                for side, runs in (("base", base_runs), ("head", head_runs))
            }
            if not values["base"] or not values["head"]:
                continue
            a = statistics.median(values["base"])
            b = statistics.median(values["head"])
            moved = worse_by(a, b, metric["better"])
            flag = ""
            if moved > metric["bound"]:
                flag = "  WORSE"
                failures.append(
                    f"{workload}/{name}: median {a:.4f} -> {b:.4f}, "
                    f"{moved:+.1%} worse, bound {metric['bound']:.1%}"
                )
            print(f"  {name:16s} {a:12.4f} -> {b:12.4f} "
                  f"worse by {moved:+7.1%} bound {metric['bound']:.1%}{flag}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="base checkout")
    parser.add_argument("head", type=Path, help="head checkout")
    args = parser.parse_args(argv)
    bench = json.loads((args.head / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    start = time.monotonic()
    try:
        base, head = measure(
            args.base, args.head, workloads, bench["run_seconds"]
        )
    except RuntimeError as error:
        print(f"perf gate: a benchmark run crashed: {error}", file=sys.stderr)
        return 1
    print(f"{len(SEEDS)} seeds x {len(workloads)} workloads x 2 sides in "
          f"{time.monotonic() - start:.0f} s")
    failures = decide(bench, base, head)
    for failure in failures:
        print(f"FAIL {failure}")
    print("perf gate: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
