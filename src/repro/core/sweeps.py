"""Parameter sweeps: sensitivity studies over the deployment design space.

The paper fixes one operating point per figure; these utilities map out
the neighborhoods around those points — how the slowdown scales with the
filter budget, how much host coverage buys, and how detection latency
eats into dynamic-quarantine benefit.  Each sweep returns a
:class:`SweepResult` whose rows print as the fixed-width tables the rest
of the harness uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..models.base import Trajectory
from ..runner import (
    DefenseSpec,
    EnsembleSpec,
    QuarantineSpec,
    RunSpec,
    TopologySpec,
    WormSpec,
    run_ensemble,
)
from .quarantine import QuarantineStudy

__all__ = [
    "SweepPoint",
    "SweepResult",
    "sweep_backbone_rate",
    "sweep_host_coverage",
    "sweep_detection_latency",
]


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep: the parameter value and its outcomes."""

    parameter: float
    time_to_half: float
    slowdown: float

    @property
    def contained(self) -> bool:
        """Whether the worm never reached 50% within the horizon."""
        return math.isinf(self.time_to_half)


@dataclass(frozen=True)
class SweepResult:
    """A labeled series of sweep points plus the undefended baseline."""

    parameter_name: str
    baseline_time_to_half: float
    points: tuple[SweepPoint, ...]

    def format_table(self) -> str:
        """Fixed-width table of the sweep."""
        lines = [
            f"{self.parameter_name:<22} {'t50':>10} {'slowdown':>10}",
            f"{'(no defense)':<22} {self.baseline_time_to_half:>10.2f} "
            f"{'1.00x':>10}",
        ]
        for point in self.points:
            t_text = (
                f"{point.time_to_half:10.2f}"
                if not point.contained
                else "     never"
            )
            s_text = (
                f"{point.slowdown:9.2f}x"
                if not point.contained
                else "      inf"
            )
            lines.append(
                f"{point.parameter:<22.4g} {t_text} {s_text}"
            )
        return "\n".join(lines)


def _baseline_curve(study: QuarantineStudy, *, max_ticks: int, num_runs: int) -> Trajectory:
    return study.simulate_deployments(
        [DefenseSpec(kind="none")], max_ticks=max_ticks, num_runs=num_runs
    )["no_rl"]


def sweep_backbone_rate(
    rates: tuple[float, ...] = (0.01, 0.02, 0.05, 0.1, 0.5),
    *,
    num_nodes: int = 500,
    num_runs: int = 3,
    max_ticks: int = 400,
    seed: int = 42,
) -> SweepResult:
    """Slowdown vs backbone base link rate.

    Smaller budgets quarantine harder; the sweep shows the knee where the
    filter stops binding against the worm's demand.
    """
    study = QuarantineStudy(num_nodes, scan_rate=0.8, seed=seed)
    baseline = _baseline_curve(study, max_ticks=max_ticks, num_runs=num_runs)
    t_base = baseline.time_to_fraction(0.5)
    points = []
    for rate in rates:
        curve = study.simulate_deployments(
            [DefenseSpec(kind="backbone", rate=rate)],
            max_ticks=max_ticks,
            num_runs=num_runs,
        )["backbone_rl"]
        t50 = curve.time_to_fraction(0.5)
        points.append(
            SweepPoint(parameter=rate, time_to_half=t50, slowdown=t50 / t_base)
        )
    return SweepResult(
        parameter_name="backbone base rate",
        baseline_time_to_half=t_base,
        points=tuple(points),
    )


def sweep_host_coverage(
    coverages: tuple[float, ...] = (0.05, 0.25, 0.5, 0.75, 0.95),
    *,
    rate: float = 0.01,
    num_nodes: int = 500,
    num_runs: int = 3,
    max_ticks: int = 400,
    seed: int = 42,
) -> SweepResult:
    """Slowdown vs host-filter coverage ``q`` — Eq. (3)'s 1/(1-q) curve."""
    study = QuarantineStudy(num_nodes, scan_rate=0.8, seed=seed)
    baseline = _baseline_curve(study, max_ticks=max_ticks, num_runs=num_runs)
    t_base = baseline.time_to_fraction(0.5)
    points = []
    for coverage in coverages:
        hosts = DefenseSpec(kind="hosts", coverage=coverage, rate=rate)
        curve = study.simulate_deployments(
            [hosts], max_ticks=max_ticks, num_runs=num_runs
        )[hosts.label]
        t50 = curve.time_to_fraction(0.5)
        points.append(
            SweepPoint(
                parameter=coverage, time_to_half=t50, slowdown=t50 / t_base
            )
        )
    return SweepResult(
        parameter_name="host coverage q",
        baseline_time_to_half=t_base,
        points=tuple(points),
    )


def sweep_detection_latency(
    delays: tuple[int, ...] = (0, 2, 4, 8),
    *,
    num_nodes: int = 500,
    num_runs: int = 3,
    max_ticks: int = 400,
    base_seed: int = 70,
    backbone_rate: float = 0.02,
) -> SweepResult:
    """Dynamic-quarantine slowdown vs reaction delay.

    The parameter is ticks between detection and deployment; slowdown is
    measured against an undefended outbreak of the same worm.
    """
    def run(delay: int | None) -> Trajectory:
        quarantine = None
        if delay is not None:
            quarantine = QuarantineSpec(
                response=DefenseSpec(kind="backbone", rate=backbone_rate),
                telescope_coverage=0.1,
                detector_scans_per_infected=0.8,
                reaction_delay=delay,
            )
        label = "undefended" if delay is None else f"delay_{delay}"
        spec = EnsembleSpec(
            template=RunSpec(
                topology=TopologySpec(num_nodes=num_nodes),
                worm=WormSpec(kind="random", hit_probability=0.5),
                scan_rate=1.6,
                initial_infections=5,
                quarantine=quarantine,
                lan_delivery=True,
                max_ticks=max_ticks,
            ),
            num_runs=num_runs,
            base_seed=base_seed,
            label=label,
        )
        return run_ensemble(spec).mean

    baseline = run(None)
    t_base = baseline.time_to_fraction(0.5)
    points = []
    for delay in delays:
        t50 = run(delay).time_to_fraction(0.5)
        points.append(
            SweepPoint(
                parameter=float(delay),
                time_to_half=t50,
                slowdown=t50 / t_base,
            )
        )
    return SweepResult(
        parameter_name="reaction delay (ticks)",
        baseline_time_to_half=t_base,
        points=tuple(points),
    )
