"""Tests for delayed dynamic immunization (Section 6.1, Figures 7a/8a)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.base import ModelError
from repro.models.homogeneous import HomogeneousSIModel
from repro.models.immunization import (
    BellCurveImmunizationModel,
    DelayedImmunizationModel,
)


class TestValidation:
    def test_rejects_negative_parameters(self):
        with pytest.raises(ModelError):
            DelayedImmunizationModel(1000, 0.8, -0.1, 5.0)
        with pytest.raises(ModelError):
            DelayedImmunizationModel(1000, 0.8, 0.1, -5.0)
        with pytest.raises(ModelError):
            DelayedImmunizationModel(1000, 0.0, 0.1, 5.0)


class TestFromInfectionLevel:
    def test_start_time_matches_baseline_crossing(self):
        model = DelayedImmunizationModel.from_infection_level(
            1000, 0.8, 0.1, 0.2
        )
        baseline = HomogeneousSIModel(1000, 0.8)
        assert model.start_time == pytest.approx(
            baseline.exact_time_to_fraction(0.2)
        )

    def test_paper_tick_six_for_twenty_percent(self):
        """The paper: 'for immunization starting at 20% ... around the
        6th timetick' (beta = 0.8, N = 1000)."""
        model = DelayedImmunizationModel.from_infection_level(
            1000, 0.8, 0.1, 0.2
        )
        assert 6 <= model.start_time <= 8


class TestDynamics:
    def test_before_start_matches_homogeneous(self):
        model = DelayedImmunizationModel(1000, 0.8, 0.1, start_time=10.0)
        baseline = HomogeneousSIModel(1000, 0.8)
        trajectory = model.solve(10, num_points=50)
        np.testing.assert_allclose(
            trajectory.fraction_infected,
            np.asarray(baseline.closed_form_fraction(trajectory.times)),
            atol=1e-4,
        )

    def test_numeric_matches_paper_closed_form(self):
        model = DelayedImmunizationModel(1000, 0.8, 0.1, start_time=7.0)
        trajectory = model.solve(60, num_points=300)
        closed = model.closed_form_fraction(trajectory.times)
        np.testing.assert_allclose(
            trajectory.fraction_infected, closed, atol=5e-3
        )

    def test_infection_eventually_dies_out(self):
        model = DelayedImmunizationModel(1000, 0.8, 0.2, start_time=5.0)
        trajectory = model.solve(200)
        assert trajectory.fraction_infected[-1] < 0.01

    def test_earlier_immunization_lowers_ever_infected(self):
        """Figure 8(a)'s ordering: the earlier, the better."""
        finals = []
        for level in (0.2, 0.5, 0.8):
            model = DelayedImmunizationModel.from_infection_level(
                1000, 0.8, 0.1, level
            )
            finals.append(model.solve(150).final_fraction_ever_infected())
        assert finals[0] < finals[1] < finals[2]

    def test_paper_ever_infected_bands(self):
        """~80% / ~90% / ~98% ever infected for starts at 20/50/80%."""
        expected = {0.2: (0.70, 0.90), 0.5: (0.84, 0.96), 0.8: (0.93, 1.0)}
        for level, (low, high) in expected.items():
            model = DelayedImmunizationModel.from_infection_level(
                1000, 0.8, 0.1, level
            )
            final = model.solve(200).final_fraction_ever_infected()
            assert low <= final <= high, (level, final)

    def test_population_conservation(self):
        """S + I + R equals N0 at all times."""
        model = DelayedImmunizationModel(1000, 0.8, 0.1, start_time=6.0)
        trajectory = model.solve(100)
        total = (
            trajectory.susceptible + trajectory.infected + trajectory.removed
        )
        np.testing.assert_allclose(total, 1000.0, rtol=1e-6)

    def test_ever_infected_monotone_and_bounds_infected(self):
        model = DelayedImmunizationModel(1000, 0.8, 0.1, start_time=6.0)
        trajectory = model.solve(100)
        assert np.all(np.diff(trajectory.ever_infected) >= -1e-9)
        assert np.all(
            trajectory.ever_infected >= trajectory.infected - 1e-6
        )

    def test_zero_mu_means_no_removal(self):
        model = DelayedImmunizationModel(1000, 0.8, 0.0, start_time=5.0)
        trajectory = model.solve(60)
        assert trajectory.fraction_infected[-1] == pytest.approx(
            1.0, abs=1e-3
        )


class TestBellCurveExtension:
    def test_patch_rate_peaks_at_peak_time(self):
        model = BellCurveImmunizationModel(
            1000, 0.8, 0.3, start_time=5.0, peak_offset=10.0, width=4.0
        )
        assert model.patch_rate(15.0) == pytest.approx(0.3)
        assert model.patch_rate(15.0) > model.patch_rate(8.0)
        assert model.patch_rate(15.0) > model.patch_rate(40.0)
        assert model.patch_rate(4.0) == 0.0

    def test_no_closed_form(self):
        model = BellCurveImmunizationModel(1000, 0.8, 0.3, 5.0)
        with pytest.raises(ModelError):
            model.closed_form_fraction(np.array([1.0]))

    def test_still_suppresses_outbreak(self):
        constant = DelayedImmunizationModel(1000, 0.8, 0.15, 6.0)
        bell = BellCurveImmunizationModel(
            1000, 0.8, 0.3, 6.0, peak_offset=8.0, width=10.0
        )
        c = constant.solve(150).final_fraction_ever_infected()
        b = bell.solve(150).final_fraction_ever_infected()
        assert b < 1.0
        assert abs(b - c) < 0.35  # same ballpark of damage

    def test_validation(self):
        with pytest.raises(ModelError):
            BellCurveImmunizationModel(1000, 0.8, 0.3, 5.0, width=0.0)
        with pytest.raises(ModelError):
            BellCurveImmunizationModel(1000, 0.8, 0.3, 5.0, peak_offset=-1.0)
