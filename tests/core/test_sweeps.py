"""Tests for the parameter-sweep utilities."""

from __future__ import annotations

import math

import pytest

from repro.core.sweeps import (
    SweepPoint,
    SweepResult,
    sweep_backbone_rate,
    sweep_detection_latency,
    sweep_host_coverage,
)


class TestSweepResultFormatting:
    def make(self) -> SweepResult:
        # Tightest budget first: it contains the worm outright (inf).
        return SweepResult(
            parameter_name="x",
            baseline_time_to_half=10.0,
            points=(
                SweepPoint(
                    parameter=0.1,
                    time_to_half=float("inf"),
                    slowdown=float("inf"),
                ),
                SweepPoint(parameter=0.5, time_to_half=40.0, slowdown=4.0),
                SweepPoint(parameter=1.0, time_to_half=20.0, slowdown=2.0),
            ),
        )

    def test_format_table(self):
        table = self.make().format_table()
        assert "no defense" in table
        assert "4.00x" in table
        assert "never" in table

    def test_contained_flag(self):
        points = self.make().points
        assert points[0].contained
        assert not points[2].contained


class TestBackboneRateSweep:
    def test_tighter_budget_slows_more(self):
        result = sweep_backbone_rate(
            rates=(0.01, 0.1, 1.0),
            num_nodes=300,
            num_runs=2,
            max_ticks=400,
        )
        slowdowns = [point.slowdown for point in result.points]
        assert all(a >= b - 1e-9 for a, b in zip(slowdowns, slowdowns[1:]))
        assert result.points[0].slowdown > 1.5
        assert result.points[-1].slowdown < result.points[0].slowdown


class TestHostCoverageSweep:
    def test_tracks_one_over_one_minus_q(self):
        result = sweep_host_coverage(
            coverages=(0.25, 0.75),
            num_nodes=300,
            num_runs=3,
            max_ticks=400,
        )
        low, high = result.points
        assert high.slowdown > low.slowdown
        # Eq. (3) predicts 1/(1-q): 1.33x and 4x; allow generous noise.
        assert low.slowdown == pytest.approx(1 / 0.75, rel=0.6)
        assert high.slowdown == pytest.approx(1 / 0.25, rel=0.6)


class TestDetectionLatencySweep:
    def test_delay_erodes_benefit(self):
        result = sweep_detection_latency(
            delays=(0, 8),
            num_nodes=300,
            num_runs=2,
            max_ticks=300,
        )
        instant, late = result.points
        assert instant.slowdown > late.slowdown
        assert instant.slowdown > 1.5
        assert math.isfinite(result.baseline_time_to_half)
