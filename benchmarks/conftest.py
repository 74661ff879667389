"""Shared helpers for the per-figure benchmark harness.

Every benchmark regenerates one figure or Section 7 statistic at paper
scale, prints the rows/series the paper reports, and asserts the shape
criteria from DESIGN.md.  Timings come from pytest-benchmark
(``--benchmark-only``); each experiment runs once via
``benchmark.pedantic(..., rounds=1, iterations=1)`` because a 10-run
averaged simulation is already its own repetition protocol.  These
timings describe one figure; performance claims and the CI perf gate
use ``perfbench/`` (see its README).

Everything collected under ``benchmarks/`` is automatically marked
``bench`` **and** ``slow``: these are paper-scale measurements, not
tier-1 tests, and ``tests/bench/test_collection.py`` asserts the
tier never leaks.

All simulated figures execute through :mod:`repro.runner`, so the
harness honors its environment knobs:

* ``REPRO_JOBS=8`` — fan each ensemble's seeded runs across 8 worker
  processes (bit-identical curves, less wall clock);
* ``REPRO_CACHE=1`` — reuse cached run results across invocations;
* ``REPRO_CACHE_DIR=...`` — where those results live.

Every row :func:`print_rows` prints is also written, by table title, to
``benchmarks/paper_shapes.json`` when the session ends.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.scenarios import shared_trace
from repro.models.base import Trajectory
from repro.runner import configure, current_config

#: Where a session leaves the rows :func:`print_rows` printed, by table
#: title (git-ignored; CI's paper-shapes job uploads it).
SHAPES_PATH = Path(__file__).parent / "paper_shapes.json"
_PRINTED_ROWS: dict[str, list[list[object]]] = {}


def pytest_collection_modifyitems(items):
    """Every benchmark is tier `bench` (and therefore also `slow`)."""
    for item in items:
        item.add_marker(pytest.mark.bench)
        item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session", autouse=True)
def runner_configuration():
    """Apply REPRO_* execution knobs and report them once per session."""
    configure(
        jobs=max(int(os.environ.get("REPRO_JOBS", "1") or "1"), 1),
        cache_enabled=os.environ.get("REPRO_CACHE", "0")
        not in ("", "0", "off"),
        cache_dir=os.environ.get("REPRO_CACHE_DIR") or None,
    )
    config = current_config()
    print(
        f"\n[repro.runner] jobs={config.jobs} "
        f"cache={'on' if config.cache_enabled else 'off'}"
    )
    return config


@pytest.fixture(scope="session")
def campus_trace():
    """The Section 7 synthetic campus trace (1,128 hosts, 600 s)."""
    return shared_trace(duration=600.0, seed=0)


def print_series(
    title: str,
    curves: dict[str, Trajectory],
    *,
    num_samples: int = 9,
    of_ever: bool = False,
) -> None:
    """Print each curve as a compact row of (time: fraction) samples."""
    print(f"\n=== {title} ===")
    t_max = max(float(c.times[-1]) for c in curves.values())
    sample_times = np.linspace(0.0, t_max, num_samples)
    header = "  ".join(f"t={t:8.1f}" for t in sample_times)
    print(f"{'case':<26} {header}")
    for label, curve in curves.items():
        series = (
            curve.fraction_ever_infected if of_ever else curve.fraction_infected
        )
        values = np.interp(
            sample_times,
            curve.times,
            series,
            right=float(series[-1]),
        )
        row = "  ".join(f"{v:10.3f}" for v in values)
        print(f"{label:<26} {row}")


def print_rows(title: str, rows: list[tuple[str, object]]) -> None:
    """Print labeled scalar results (the in-text statistics)."""
    print(f"\n=== {title} ===")
    recorded = _PRINTED_ROWS.setdefault(title, [])
    for label, value in rows:
        print(f"{label:<52} {value}")
        recorded.append([label, value])


def _plain(value: object) -> object:
    """JSON stand-in for a printed value json cannot encode itself."""
    return value.item() if isinstance(value, np.generic) else str(value)


def pytest_sessionfinish(session):
    """Write every row :func:`print_rows` printed to :data:`SHAPES_PATH`."""
    if _PRINTED_ROWS:
        SHAPES_PATH.write_text(
            json.dumps(_PRINTED_ROWS, default=_plain, indent=1) + "\n",
            encoding="utf-8",
        )
