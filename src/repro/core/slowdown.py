"""Slowdown metrics: the quantities the paper's comparisons are stated in.

"It takes approximately five times as long for the worm to spread to 50%
of all susceptible hosts if rate limiting is implemented at the backbone
routers" — claims of that shape are ratios of *times to reach an infection
level*.  This module computes them from :class:`Trajectory` objects of
either origin (analytical or simulated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..models.base import ModelError, Trajectory

__all__ = ["SlowdownReport", "compare_times"]


@dataclass(frozen=True)
class SlowdownReport:
    """Times-to-level for a set of labeled curves, relative to a baseline."""

    level: float
    baseline_label: str
    times: dict[str, float]
    factors: dict[str, float]

    def format_table(self) -> str:
        """Fixed-width table like the ones the benchmark harness prints."""
        lines = [
            f"time to {self.level:.0%} infected "
            f"(baseline: {self.baseline_label})",
            f"{'case':<28} {'time':>10} {'slowdown':>10}",
        ]
        for label, t in self.times.items():
            factor = self.factors[label]
            t_text = f"{t:10.2f}" if math.isfinite(t) else "     never"
            f_text = f"{factor:9.2f}x" if math.isfinite(factor) else "      inf"
            lines.append(f"{label:<28} {t_text} {f_text}")
        return "\n".join(lines)


def compare_times(
    curves: dict[str, Trajectory],
    *,
    baseline: str,
    level: float = 0.5,
) -> SlowdownReport:
    """Time-to-level and slowdown factor for every labeled curve."""
    if baseline not in curves:
        raise ModelError(
            f"baseline {baseline!r} not among curves {sorted(curves)}"
        )
    times = {
        label: curve.time_to_fraction(level) for label, curve in curves.items()
    }
    t_base = times[baseline]
    if not math.isfinite(t_base) or t_base <= 0:
        raise ModelError(
            f"baseline {baseline!r} does not reach {level:.0%} at a "
            f"positive time (got {t_base})"
        )
    factors = {label: t / t_base for label, t in times.items()}
    return SlowdownReport(
        level=level, baseline_label=baseline, times=times, factors=factors
    )
