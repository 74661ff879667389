"""Tier discipline: benchmarks never leak into the tier-1 suite.

Runs pytest itself in a subprocess (the only honest way to test
collection) and asserts:

* the default invocation (``testpaths = ["tests"]``) collects nothing
  from ``benchmarks/``;
* every item collected under ``benchmarks/`` carries the ``bench``
  marker (``-m "not bench"`` deselects all of them) — the autouse
  ``pytest_collection_modifyitems`` hook in ``benchmarks/conftest.py``
  applies it, so a new benchmark file cannot forget.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

#: ``--collect-only -qq`` summary rows: ``path/to/file.py: <count>``
#: (``-qq`` spelled out, so the rows do not depend on ``addopts``).
_ROW = re.compile(r"^(\S+\.py): \d+$")


def collect(*args):
    """Collected-per-file rows of one pytest invocation in the repo."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-qq", *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    # 0 = collected, 5 = nothing collected (everything deselected).
    assert result.returncode in (0, 5), result.stdout + result.stderr
    rows = []
    for line in result.stdout.splitlines():
        match = _ROW.match(line.strip())
        if match:
            rows.append(match.group(1))
    return rows


def test_tier1_collects_no_benchmarks():
    files = collect()
    assert files, "tier-1 collection found no tests at all"
    assert not [f for f in files if f.startswith("benchmarks")]


def test_all_benchmarks_carry_the_bench_marker():
    everything = collect("benchmarks")
    assert everything, "benchmark collection found nothing"
    assert all(f.startswith("benchmarks") for f in everything)
    unmarked = collect("benchmarks", "-m", "not bench")
    assert unmarked == [], f"benchmarks missing the bench marker: {unmarked}"


def test_bench_marker_also_implies_slow():
    unmarked = collect("benchmarks", "-m", "not slow")
    assert unmarked == []
