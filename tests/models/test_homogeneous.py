"""Tests for the Section 3 homogeneous SI model (Eq. 1–2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.base import ModelError
from repro.models.homogeneous import HomogeneousSIModel


class TestValidation:
    def test_rejects_tiny_population(self):
        with pytest.raises(ModelError):
            HomogeneousSIModel(1, 0.5)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ModelError):
            HomogeneousSIModel(100, 0.0)

    def test_rejects_bad_initial_infected(self):
        with pytest.raises(ModelError):
            HomogeneousSIModel(100, 0.5, initial_infected=0)
        with pytest.raises(ModelError):
            HomogeneousSIModel(100, 0.5, initial_infected=100)


class TestDynamics:
    def test_numeric_matches_closed_form(self):
        model = HomogeneousSIModel(1000, 0.8)
        trajectory = model.solve(50)
        closed = model.closed_form_fraction(trajectory.times)
        np.testing.assert_allclose(
            trajectory.fraction_infected, closed, atol=1e-6
        )

    def test_exponential_early_growth(self):
        """Early on, I(t) ≈ I0 * e^{beta t} (the paper's Eq. 2 regime)."""
        model = HomogeneousSIModel(1_000_000, 0.5, initial_infected=1)
        trajectory = model.solve(10, num_points=100)
        expected = np.exp(0.5 * trajectory.times)
        np.testing.assert_allclose(
            trajectory.infected, expected, rtol=2e-2
        )

    def test_saturates_at_population(self):
        model = HomogeneousSIModel(500, 1.0)
        trajectory = model.solve(100)
        assert trajectory.fraction_infected[-1] == pytest.approx(1.0, abs=1e-6)

    def test_exact_time_to_fraction_inverts_solution(self):
        model = HomogeneousSIModel(1000, 0.8)
        for level in (0.1, 0.5, 0.9):
            t = model.exact_time_to_fraction(level)
            assert model.closed_form_fraction(t) == pytest.approx(level)

    def test_paper_time_approximation(self):
        """Eq. (2): t ≈ ln(alpha)/beta while growth is exponential."""
        model = HomogeneousSIModel(10**8, 0.8)
        # Growth by a factor of 1000 from one seed.
        t_exact = model.exact_time_to_fraction(1000 / 10**8)
        assert model.paper_time_to_level(1000) == pytest.approx(
            t_exact, rel=1e-3
        )
        with pytest.raises(ModelError):
            model.paper_time_to_level(1.0)

    def test_higher_beta_is_faster(self):
        slow = HomogeneousSIModel(1000, 0.4).solve(100)
        fast = HomogeneousSIModel(1000, 0.8).solve(100)
        assert fast.time_to_fraction(0.5) < slow.time_to_fraction(0.5)

    @given(
        st.floats(min_value=0.1, max_value=1.5),
        st.integers(min_value=10, max_value=100_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_time_to_half_scales_inverse_beta(self, beta, n):
        """Doubling beta halves the time to any fixed level."""
        base = HomogeneousSIModel(n, beta, initial_infected=1)
        double = HomogeneousSIModel(n, 2 * beta, initial_infected=1)
        assert double.exact_time_to_fraction(0.5) == pytest.approx(
            base.exact_time_to_fraction(0.5) / 2
        )

    @given(st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=30, deadline=None)
    def test_monotone_curve(self, level):
        model = HomogeneousSIModel(1000, 0.8)
        trajectory = model.solve(60)
        # Tolerance covers solver jitter at saturation (I ~ N).
        assert np.all(np.diff(trajectory.infected) >= -1e-5)
        # times to increasing levels are increasing
        assert model.exact_time_to_fraction(level) <= (
            model.exact_time_to_fraction(min(level + 0.01, 0.99))
        )
