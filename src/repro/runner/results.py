"""Run results: trajectories plus the observability the paper lacked.

Every executed :class:`~repro.runner.spec.RunSpec` yields a
:class:`RunResult` — the infection :class:`~repro.models.base.Trajectory`
together with :class:`RunMetrics` (wall time, ticks/events executed, and
the network's packet counters).  An ensemble of runs aggregates into an
:class:`EnsembleResult`, which exposes the paper-style averaged curve and
totals across the replicates.

Results round-trip through plain JSON dicts so the content-addressed
cache can persist them without pickles.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from ..models.base import Trajectory
from ..observability.stats import merge_counts, merge_seconds
from ..simulator.observers import average_trajectories
from .spec import EnsembleSpec, RunSpec

__all__ = [
    "RunMetrics",
    "RunResult",
    "EnsembleMetrics",
    "EnsembleResult",
    "trajectory_to_dict",
    "trajectory_from_dict",
]


def trajectory_to_dict(trajectory: Trajectory) -> dict[str, Any]:
    """JSON-ready dict of a trajectory (exact float round-trip)."""

    def _series(values: np.ndarray | None) -> list[float] | None:
        return None if values is None else [float(v) for v in values]

    return {
        "times": _series(trajectory.times),
        "infected": _series(trajectory.infected),
        "population": float(trajectory.population),
        "susceptible": _series(trajectory.susceptible),
        "removed": _series(trajectory.removed),
        "ever_infected": _series(trajectory.ever_infected),
    }


def trajectory_from_dict(data: dict[str, Any]) -> Trajectory:
    """Inverse of :func:`trajectory_to_dict`."""

    def _series(values: list[float] | None) -> np.ndarray | None:
        return None if values is None else np.asarray(values, dtype=float)

    return Trajectory(
        times=_series(data["times"]),
        infected=_series(data["infected"]),
        population=float(data["population"]),
        susceptible=_series(data.get("susceptible")),
        removed=_series(data.get("removed")),
        ever_infected=_series(data.get("ever_infected")),
    )


@dataclass(frozen=True)
class RunMetrics:
    """What one run cost and did.

    Attributes
    ----------
    wall_time:
        Seconds of wall clock the simulation took.  Cache hits replay
        the metrics of the run that produced the entry, wall time
        included, so ensemble totals always reflect simulation cost.
    ticks_executed:
        Simulation ticks actually run (stop conditions can end early).
    events_executed:
        Always 0: every engine is tick-driven.  Kept so payloads and
        cache entries keep their shape.
    packets_injected / packets_delivered / packets_dropped:
        The network's packet counters: scans entering the routed graph,
        scans reaching their destination, and scans lost to full queues.
    queue_histogram / drop_histogram:
        Bucketed distributions of per-link peak queue depth and drop
        count (see :mod:`repro.observability.stats`); populated on every
        run, cached or not.
    phase_seconds / phase_calls:
        Per-phase wall time and execution counts from the tick engine;
        populated only when the run executed with profiling on.
    counters:
        Named event counters (``scans_routed``, ``scans_dark``,
        ``infections``, ...); populated only under profiling.
    """

    wall_time: float = 0.0
    ticks_executed: int = 0
    events_executed: int = 0
    packets_injected: int = 0
    packets_delivered: int = 0
    packets_dropped: int = 0
    queue_histogram: dict[str, int] = field(default_factory=dict)
    drop_histogram: dict[str, int] = field(default_factory=dict)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    phase_calls: dict[str, int] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunMetrics":
        """Inverse of :meth:`to_dict` (tolerates pre-observability
        entries that lack the histogram/profile fields)."""
        return cls(**data)


@dataclass(frozen=True)
class RunResult:
    """One executed run: curve + metrics + deployment summary.

    ``trace`` carries the run's per-tick observability records when the
    run executed with tracing on.  It is deliberately *not* part of
    :meth:`to_dict`: traces are bulky, tied to one live execution, and
    instrumented runs bypass the result cache anyway.
    """

    spec: RunSpec
    trajectory: Trajectory
    metrics: RunMetrics
    defense_name: str = "no_rl"
    limited_links: int = 0
    throttled_hosts: int = 0
    cached: bool = False
    trace: tuple[dict[str, Any], ...] | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict (used by the result cache; excludes trace)."""
        return {
            "spec": self.spec.to_dict(),
            "trajectory": trajectory_to_dict(self.trajectory),
            "metrics": self.metrics.to_dict(),
            "defense_name": self.defense_name,
            "limited_links": self.limited_links,
            "throttled_hosts": self.throttled_hosts,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any], *, cached: bool = False) -> "RunResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            spec=RunSpec.from_dict(data["spec"]),
            trajectory=trajectory_from_dict(data["trajectory"]),
            metrics=RunMetrics.from_dict(data["metrics"]),
            defense_name=data["defense_name"],
            limited_links=data["limited_links"],
            throttled_hosts=data["throttled_hosts"],
            cached=cached,
        )


@dataclass(frozen=True)
class EnsembleMetrics:
    """Totals across an ensemble's runs.

    The histogram/profile aggregates are key-wise sums of the per-run
    dicts, so they are a pure function of the run list — serial and
    parallel executions of the same ensemble aggregate identically
    (asserted in the test suite).  ``total_events`` sums the runs'
    ``events_executed`` and so is always 0; it stays for the payload's
    shape.
    """

    total_wall_time: float = 0.0
    total_ticks: int = 0
    total_events: int = 0
    total_packets_injected: int = 0
    total_packets_delivered: int = 0
    total_packets_dropped: int = 0
    cache_hits: int = 0
    runs: int = 0
    queue_histogram: dict[str, int] = field(default_factory=dict)
    drop_histogram: dict[str, int] = field(default_factory=dict)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    phase_calls: dict[str, int] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_runs(cls, runs: list[RunResult]) -> "EnsembleMetrics":
        """Sum the per-run metrics."""
        return cls(
            total_wall_time=sum(r.metrics.wall_time for r in runs),
            total_ticks=sum(r.metrics.ticks_executed for r in runs),
            total_events=sum(r.metrics.events_executed for r in runs),
            total_packets_injected=sum(
                r.metrics.packets_injected for r in runs
            ),
            total_packets_delivered=sum(
                r.metrics.packets_delivered for r in runs
            ),
            total_packets_dropped=sum(
                r.metrics.packets_dropped for r in runs
            ),
            cache_hits=sum(1 for r in runs if r.cached),
            runs=len(runs),
            queue_histogram=merge_counts(
                r.metrics.queue_histogram for r in runs
            ),
            drop_histogram=merge_counts(
                r.metrics.drop_histogram for r in runs
            ),
            phase_seconds=merge_seconds(
                r.metrics.phase_seconds for r in runs
            ),
            phase_calls=merge_counts(r.metrics.phase_calls for r in runs),
            counters=merge_counts(r.metrics.counters for r in runs),
        )


@dataclass
class EnsembleResult:
    """Averaged curve plus everything needed to audit an ensemble."""

    spec: EnsembleSpec
    runs: list[RunResult] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.mean: Trajectory = average_trajectories(
            [run.trajectory for run in self.runs]
        )
        self.metrics: EnsembleMetrics = EnsembleMetrics.from_runs(self.runs)

    @property
    def label(self) -> str:
        """The ensemble's display label."""
        return self.spec.label

    @property
    def trajectories(self) -> list[Trajectory]:
        """The per-run curves, in seed order."""
        return [run.trajectory for run in self.runs]

    def time_to_fraction(self, level: float) -> float:
        """Mean-curve time to an infected fraction (paper's comparisons)."""
        return self.mean.time_to_fraction(level)

    def final_ever_infected(self) -> float:
        """Mean-curve final ever-infected fraction (Figure 8's endpoint)."""
        return self.mean.final_fraction_ever_infected()
