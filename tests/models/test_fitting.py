"""Tests for growth-rate fitting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.base import ModelError, Trajectory
from repro.models.fitting import (
    effective_rate_reduction,
    fit_exponential_rate,
    fit_logistic,
)
from repro.models.homogeneous import HomogeneousSIModel
from repro.models.leaf import LeafRateLimitModel


class TestFitExponentialRate:
    @given(st.floats(min_value=0.2, max_value=1.5))
    @settings(max_examples=25, deadline=None)
    def test_recovers_known_rate(self, beta):
        trajectory = HomogeneousSIModel(10_000, beta).solve(60 / beta)
        fitted = fit_exponential_rate(trajectory)
        assert fitted == pytest.approx(beta, rel=0.10)

    def test_needs_growth_window(self):
        flat = Trajectory(
            times=np.linspace(0, 10, 20),
            infected=np.full(20, 1.0),
            population=100.0,
        )
        with pytest.raises(ModelError, match="3 samples"):
            fit_exponential_rate(flat)


class TestFitLogistic:
    def test_exact_fit_on_model_output(self):
        model = HomogeneousSIModel(1000, 0.8)
        trajectory = model.solve(40)
        fit = fit_logistic(trajectory)
        assert fit.rate == pytest.approx(0.8, rel=1e-3)
        assert fit.midpoint == pytest.approx(
            model.exact_time_to_fraction(0.5), rel=1e-3
        )
        assert fit.residual < 1e-6

    def test_fraction_evaluation(self):
        fit = fit_logistic(HomogeneousSIModel(1000, 0.5).solve(60))
        assert fit.fraction(fit.midpoint) == pytest.approx(0.5)

    def test_rejects_contained_outbreak(self):
        trajectory = Trajectory(
            times=np.linspace(0, 10, 20),
            infected=np.linspace(1, 5, 20),
            population=1000.0,
        )
        with pytest.raises(ModelError, match="10%"):
            fit_logistic(trajectory)

    def test_fits_noisy_simulated_curve(self):
        from repro.simulator.network import Network
        from repro.simulator.fastpath import FastWormSimulation
        from repro.simulator.worms import RandomScanWorm

        sim = FastWormSimulation(
            Network.from_powerlaw(300, seed=3),
            RandomScanWorm(),
            scan_rate=0.8,
            initial_infections=3,
            seed=3,
        )
        fit = fit_logistic(sim.run(150))
        assert 0.2 < fit.rate < 1.5
        assert fit.residual < 0.08


class TestEffectiveRateReduction:
    def test_matches_leaf_model_prediction(self):
        """Eq. (3): q=0.5 coverage halves the growth rate."""
        baseline = HomogeneousSIModel(10_000, 0.8).solve(60)
        defended = LeafRateLimitModel(10_000, 0.5, 0.8, 1e-6).solve(120)
        reduction = effective_rate_reduction(baseline, defended)
        assert reduction == pytest.approx(2.0, rel=0.1)

    def test_infinite_when_contained(self):
        baseline = HomogeneousSIModel(1000, 0.8).solve(40)
        # A "defended" curve that shrinks produces a negative rate.
        shrinking = Trajectory(
            times=np.linspace(0, 40, 100),
            infected=np.linspace(200, 50, 100),
            population=1000.0,
        )
        assert effective_rate_reduction(baseline, shrinking) == float("inf")
