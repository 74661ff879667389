"""Tests for backbone rate limiting (Eq. 6)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.backbone import ADDRESS_SPACE, BackboneRateLimitModel
from repro.models.base import ModelError
from repro.models.homogeneous import HomogeneousSIModel


class TestValidation:
    def test_rejects_bad_coverage(self):
        with pytest.raises(ModelError):
            BackboneRateLimitModel(100, 0.8, 1.5)

    def test_rejects_negative_residual(self):
        with pytest.raises(ModelError):
            BackboneRateLimitModel(100, 0.8, 0.5, residual_rate=-1)


class TestLeakTerm:
    def test_leak_capped_by_router_budget(self):
        model = BackboneRateLimitModel(
            1000, 0.8, 0.5, residual_rate=ADDRESS_SPACE / 1000
        )
        # r*N/2^32 = 1.0; demand I*beta*alpha = 400 at I=1000.
        assert model.leak_rate(1000) == pytest.approx(1.0)

    def test_leak_capped_by_demand_when_small(self):
        model = BackboneRateLimitModel(1000, 0.8, 0.5, residual_rate=1e12)
        assert model.leak_rate(10) == pytest.approx(10 * 0.8 * 0.5)

    def test_zero_residual_means_zero_leak(self):
        model = BackboneRateLimitModel(1000, 0.8, 0.5)
        assert model.leak_rate(500) == 0.0


class TestDynamics:
    def test_zero_coverage_matches_homogeneous(self):
        defended = BackboneRateLimitModel(1000, 0.8, 0.0).solve(40)
        baseline = HomogeneousSIModel(1000, 0.8).solve(40)
        np.testing.assert_allclose(
            defended.fraction_infected,
            baseline.fraction_infected,
            atol=1e-6,
        )

    def test_numeric_matches_closed_form_small_r(self):
        model = BackboneRateLimitModel(1000, 0.8, 0.6)
        trajectory = model.solve(100)
        np.testing.assert_allclose(
            trajectory.fraction_infected,
            np.asarray(model.closed_form_fraction(trajectory.times)),
            atol=1e-6,
        )

    def test_effective_rate(self):
        model = BackboneRateLimitModel(1000, 0.8, 0.75)
        assert model.effective_rate == pytest.approx(0.2)

    def test_full_coverage_zero_residual_contains_worm(self):
        model = BackboneRateLimitModel(1000, 0.8, 1.0)
        trajectory = model.solve(500)
        assert trajectory.fraction_infected[-1] < 0.01

    def test_residual_rate_lets_worm_leak_through(self):
        sealed = BackboneRateLimitModel(1000, 0.8, 1.0).solve(3000)
        leaky = BackboneRateLimitModel(
            1000, 0.8, 1.0, residual_rate=ADDRESS_SPACE / 100
        ).solve(3000)
        assert (
            leaky.fraction_infected[-1]
            > sealed.fraction_infected[-1] + 0.1
        )

    @given(st.floats(min_value=0.0, max_value=0.95))
    @settings(max_examples=25, deadline=None)
    def test_more_coverage_never_faster(self, alpha):
        low = BackboneRateLimitModel(1000, 0.8, alpha)
        high = BackboneRateLimitModel(1000, 0.8, min(alpha + 0.04, 1.0))
        assert high.effective_rate <= low.effective_rate

    def test_paper_comparison_five_x(self):
        """Coverage of 80% gives a 5x early-phase slowdown (1/(1-alpha))."""
        base = HomogeneousSIModel(10**6, 0.8)
        defended = BackboneRateLimitModel(10**6, 0.8, 0.8)
        t_base = base.exact_time_to_fraction(0.5)
        t_def = defended.solve(300).time_to_fraction(0.5)
        assert t_def == pytest.approx(5 * t_base, rel=0.05)
