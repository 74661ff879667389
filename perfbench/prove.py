"""Run every workload on several seeds and report each metric's spread.

Run from the root of a source checkout::

    python3 perfbench/prove.py --runs 10 --record perfbench/steadiness.json

Runs ``run.py`` once per seed and workload, one process at a time, with
the ``run_seconds`` and metrics of ``BENCHMARK.json``.  For each
end-to-end metric it prints the median, the quartiles and the spread (the
distance between the quartiles over the median) beside the metric's
bound.  A spread above a third of its bound is flagged.

With ``--record FILE`` the set is appended to the list of sets in FILE.
When FILE already holds a set with the same ``--trace``, the new set is
compared with the latest such set in both directions: a median that
differs from the other set's by more than its bound, either way, is
flagged.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``run.py`` process; its result object, plus its wall time."""
    start = time.monotonic()
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr}"
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def compare(old: dict, new: dict, bounds: dict[str, float]) -> bool:
    """Print how far each median moved between two sets; True if within."""
    agree = True
    for name, workload in new["workloads"].items():
        before = old["workloads"].get(name)
        if before is None:
            continue
        for metric, stats in workload["metrics"].items():
            bound = bounds.get(metric)
            if bound is None or metric not in before["metrics"]:
                continue
            a, b = before["metrics"][metric]["median"], stats["median"]
            # Each set taken as the baseline of the other.
            worst = max(abs(b - a) / a if a else 0.0,
                        abs(a - b) / b if b else 0.0)
            flag = "  > bound" if worst > bound else ""
            agree = agree and not flag
            print(f"  {name}/{metric:24s} {a:12.4f} -> {b:12.4f} "
                  f"moved {worst:6.3f} bound {bound}{flag}")
    return agree


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="", help="comma-separated")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None)
    parser.add_argument(
        "--round-robin", action="store_true",
        help="run every workload on one seed before the next seed, so each "
        "workload's runs span the whole set rather than one stretch of it",
    )
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (
        args.workloads.split(",") if args.workloads
        else [w["name"] for w in bench["workloads"]]
    )
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    record = {
        "machine": f"{platform.machine()} {platform.processor()}".strip(),
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "trace": args.trace,
        "order": "round-robin" if args.round_robin else "by workload",
        "workloads": {},
    }
    runs = [(seed, name) for name in names for seed in seeds]
    if args.round_robin:
        runs.sort(key=lambda run: seeds.index(run[0]))
    results_of: dict[str, list[dict]] = {name: [] for name in names}
    for seed, name in runs:
        results_of[name].append(
            run_once(name, seed, bench["run_seconds"], args.trace)
        )
    steady = True
    for name in names:
        results = results_of[name]
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        wall_s = max(r["wall_s"] for r in results)
        print(
            f"{name}: {len(results)} runs, correct={correct}, "
            f"failed={failed}, longest run {wall_s:.1f} s"
        )
        metrics = {}
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            stats = summarize(values)
            stats["unit"] = results[0]["metrics"][metric]["unit"]
            metrics[metric] = stats
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                if stats["spread"] > bound / 3:
                    flag = "  > bound/3"
                    steady = False
            print(
                f"  {metric:28s} median {stats['median']:12.4f} "
                f"q1 {stats['q1']:12.4f} q3 {stats['q3']:12.4f} "
                f"spread {stats['spread']:6.3f}"
                + (f" bound {bound}" if bound is not None else "") + flag
            )
        record["workloads"][name] = {
            "correct": correct, "failed": failed, "longest_run_s": wall_s,
            "metrics": metrics,
        }
    if args.record is not None:
        sets = (
            json.loads(args.record.read_text()) if args.record.is_file()
            else []
        )
        earlier = [s for s in sets if s["trace"] == args.trace]
        if earlier:
            print(f"medians against the set on seeds {earlier[-1]['seeds']}:")
            steady = compare(earlier[-1], record, bounds) and steady
        sets.append(record)
        args.record.write_text(json.dumps(sets, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
