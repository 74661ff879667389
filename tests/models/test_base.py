"""Tests for the Trajectory container and EpidemicModel plumbing."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.base import ModelError, Trajectory, logistic_fraction
from repro.models.homogeneous import HomogeneousSIModel


def make_trajectory(**overrides) -> Trajectory:
    defaults = dict(
        times=np.linspace(0, 10, 11),
        infected=np.linspace(1, 100, 11),
        population=100.0,
    )
    defaults.update(overrides)
    return Trajectory(**defaults)


class TestLogisticFraction:
    def test_initial_value(self):
        assert logistic_fraction(0.0, 0.8, 0.01) == pytest.approx(0.01)

    def test_saturates_to_one(self):
        assert logistic_fraction(1e3, 0.5, 0.01) == pytest.approx(1.0)

    def test_rejects_bad_initial_fraction(self):
        with pytest.raises(ModelError):
            logistic_fraction(1.0, 0.5, 0.0)
        with pytest.raises(ModelError):
            logistic_fraction(1.0, 0.5, 1.0)

    @given(
        st.floats(min_value=0.01, max_value=2.0),
        st.floats(min_value=1e-4, max_value=0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_time(self, rate, f0):
        t = np.linspace(0, 50, 200)
        values = np.asarray(logistic_fraction(t, rate, f0))
        assert np.all(np.diff(values) >= -1e-12)
        assert np.all(values <= 1.0 + 1e-12)


class TestTrajectory:
    def test_fraction_infected(self):
        trajectory = make_trajectory()
        assert trajectory.fraction_infected[-1] == pytest.approx(1.0)

    def test_requires_two_samples(self):
        with pytest.raises(ModelError, match="two time samples"):
            make_trajectory(times=np.array([0.0]), infected=np.array([1.0]))

    def test_requires_matching_shapes(self):
        with pytest.raises(ModelError, match="does not match"):
            make_trajectory(infected=np.linspace(1, 100, 5))

    def test_requires_increasing_times(self):
        with pytest.raises(ModelError, match="strictly increasing"):
            make_trajectory(times=np.zeros(11))

    def test_time_to_fraction_interpolates(self):
        trajectory = Trajectory(
            times=np.array([0.0, 1.0, 2.0]),
            infected=np.array([0.0, 50.0, 100.0]),
            population=100.0,
        )
        assert trajectory.time_to_fraction(0.25) == pytest.approx(0.5)
        assert trajectory.time_to_fraction(0.75) == pytest.approx(1.5)

    def test_time_to_fraction_unreached_is_inf(self):
        trajectory = make_trajectory(infected=np.linspace(1, 20, 11))
        assert math.isinf(trajectory.time_to_fraction(0.9))

    def test_time_to_fraction_rejects_bad_level(self):
        trajectory = make_trajectory()
        with pytest.raises(ModelError):
            trajectory.time_to_fraction(0.0)
        with pytest.raises(ModelError):
            trajectory.time_to_fraction(1.0)

    def test_ever_infected_accessors(self):
        trajectory = make_trajectory(ever_infected=np.linspace(1, 100, 11))
        assert trajectory.final_fraction_ever_infected() == pytest.approx(1.0)

    def test_missing_ever_infected_raises(self):
        with pytest.raises(ModelError, match="does not track"):
            make_trajectory().fraction_ever_infected


class TestSolvePlumbing:
    def test_solve_rejects_bad_horizon(self):
        model = HomogeneousSIModel(100, 0.5)
        with pytest.raises(ModelError):
            model.solve(0)
        with pytest.raises(ModelError):
            model.solve(10, num_points=1)

    def test_solve_produces_requested_grid(self):
        trajectory = HomogeneousSIModel(100, 0.5).solve(10, num_points=33)
        assert trajectory.times.size == 33
        assert trajectory.times[0] == 0.0
        assert trajectory.times[-1] == pytest.approx(10.0)

    def test_infected_never_negative(self):
        trajectory = HomogeneousSIModel(100, 0.5).solve(100)
        assert np.all(trajectory.infected >= 0.0)


class TestTrajectoryCsv:
    def test_round_trip_minimal(self):
        original = make_trajectory()
        restored = Trajectory.from_csv(original.to_csv())
        np.testing.assert_array_equal(original.times, restored.times)
        np.testing.assert_array_equal(original.infected, restored.infected)
        assert restored.population == original.population
        assert restored.susceptible is None

    def test_round_trip_full_columns(self):
        original = make_trajectory(
            susceptible=np.linspace(99, 0, 11),
            removed=np.zeros(11),
            ever_infected=np.linspace(1, 100, 11),
        )
        restored = Trajectory.from_csv(original.to_csv())
        np.testing.assert_array_equal(
            original.ever_infected, restored.ever_infected
        )
        np.testing.assert_array_equal(
            original.susceptible, restored.susceptible
        )

    def test_rejects_garbage(self):
        with pytest.raises(ModelError, match="header"):
            Trajectory.from_csv("time,infected\n1,2\n3,4\n")

    def test_rejects_missing_columns(self):
        text = "# population=10.0\ntime,removed\n0.0,1.0\n1.0,2.0\n"
        with pytest.raises(ModelError, match="infected"):
            Trajectory.from_csv(text)
