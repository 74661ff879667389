"""Tests for slowdown metrics and comparison reports."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.slowdown import compare_times
from repro.models.base import ModelError, Trajectory


def ramp(speed: float, population: float = 100.0) -> Trajectory:
    times = np.linspace(0, 100, 200)
    infected = np.clip(times * speed, 0, population)
    return Trajectory(times=times, infected=infected, population=population)


class TestSlowdownFactor:
    """The per-curve factor :func:`compare_times` reports."""

    def factor(self, baseline: Trajectory, defended: Trajectory) -> float:
        curves = {"no_rl": baseline, "defended": defended}
        report = compare_times(curves, baseline="no_rl", level=0.5)
        return report.factors["defended"]

    def test_basic_ratio(self):
        fast = ramp(10.0)   # reaches 50% at t = 5
        slow = ramp(2.0)    # reaches 50% at t = 25
        assert self.factor(fast, slow) == pytest.approx(5.0)

    def test_contained_worm_is_inf(self):
        fast = ramp(10.0)
        contained = ramp(0.1)  # never reaches 50% in horizon
        assert math.isinf(self.factor(fast, contained))

    def test_baseline_must_reach_level(self):
        """The baseline must reach the level, and only after t=0."""
        with pytest.raises(ModelError, match="positive time"):
            self.factor(ramp(0.1), ramp(10.0))
        times = np.linspace(0, 100, 200)
        saturated = Trajectory(
            times=times, infected=np.full_like(times, 60.0), population=100.0
        )
        with pytest.raises(ModelError, match="positive time"):
            self.factor(saturated, ramp(10.0))


class TestCompareTimes:
    def curves(self):
        return {"no_rl": ramp(10.0), "edge_rl": ramp(5.0),
                "backbone_rl": ramp(1.0)}

    def test_factors_relative_to_baseline(self):
        report = compare_times(self.curves(), baseline="no_rl", level=0.5)
        assert report.factors["no_rl"] == pytest.approx(1.0)
        assert report.factors["edge_rl"] == pytest.approx(2.0)
        assert report.factors["backbone_rl"] == pytest.approx(10.0)

    def test_missing_baseline_rejected(self):
        with pytest.raises(ModelError, match="not among"):
            compare_times(self.curves(), baseline="nope")

    def test_format_table_contains_rows(self):
        report = compare_times(self.curves(), baseline="no_rl", level=0.5)
        table = report.format_table()
        assert "backbone_rl" in table
        assert "10.00x" in table
        assert "50%" in table

    def test_format_table_handles_inf(self):
        curves = {"no_rl": ramp(10.0), "contained": ramp(0.01)}
        report = compare_times(curves, baseline="no_rl", level=0.5)
        assert "never" in report.format_table()

    def test_unreachable_baseline_rejected(self):
        curves = {"no_rl": ramp(0.01), "x": ramp(1.0)}
        with pytest.raises(ModelError):
            compare_times(curves, baseline="no_rl", level=0.5)
