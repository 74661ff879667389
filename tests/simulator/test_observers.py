"""Tests for curve recording and multi-run averaging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.base import ModelError, Trajectory
from repro.simulator.observers import average_trajectories

from ..oracle import (
    ObjectNetwork,
    SamplingRecorder,
    immunize,
    infect,
    infected_at_row,
)


@pytest.fixture()
def star_objects(star_network) -> ObjectNetwork:
    return ObjectNetwork(star_network)


class TestCurveRecorder:
    def test_samples_network_state(self, star_objects):
        recorder = SamplingRecorder(star_objects)
        recorder.sample(0)
        infect(star_objects.host(1), 1)
        recorder.note_infection()
        recorder.sample(1)
        trajectory = recorder.trajectory()
        assert trajectory.infected.tolist() == [0.0, 1.0]
        assert trajectory.ever_infected.tolist() == [0.0, 1.0]
        assert trajectory.population == star_objects.num_infectable

    def test_needs_two_samples(self, star_objects):
        recorder = SamplingRecorder(star_objects)
        recorder.sample(0)
        with pytest.raises(ModelError):
            recorder.trajectory()

    def test_ever_infected_survives_patching(self, star_objects):
        recorder = SamplingRecorder(star_objects)
        infect(star_objects.host(1), 0)
        recorder.note_infection()
        recorder.sample(0)
        immunize(star_objects.host(1), 1)
        recorder.sample(1)
        trajectory = recorder.trajectory()
        assert trajectory.infected[-1] == 0.0
        assert trajectory.ever_infected[-1] == 1.0
        assert trajectory.removed[-1] == 1.0


def make(times, infected, population=10.0, ever=None):
    return Trajectory(
        times=np.asarray(times, dtype=float),
        infected=np.asarray(infected, dtype=float),
        population=population,
        ever_infected=None if ever is None else np.asarray(ever, dtype=float),
    )


class TestAverageTrajectories:
    def test_pointwise_mean(self):
        a = make([0, 1, 2], [0, 2, 4])
        b = make([0, 1, 2], [0, 4, 8])
        mean = average_trajectories([a, b])
        assert mean.infected.tolist() == [0.0, 3.0, 6.0]

    def test_short_runs_extended_with_final_value(self):
        long = make([0, 1, 2, 3], [0, 1, 2, 3])
        short = make([0, 1], [0, 10])
        mean = average_trajectories([long, short])
        assert mean.infected.tolist() == [0.0, 5.5, 6.0, 6.5]
        assert mean.times.size == 4

    def test_population_mismatch_rejected(self):
        a = make([0, 1], [0, 1], population=10)
        b = make([0, 1], [0, 1], population=20)
        with pytest.raises(ModelError, match="population"):
            average_trajectories([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            average_trajectories([])

    def test_ever_infected_averaged_when_all_present(self):
        a = make([0, 1], [0, 1], ever=[0, 2])
        b = make([0, 1], [0, 1], ever=[0, 4])
        mean = average_trajectories([a, b])
        assert mean.ever_infected.tolist() == [0.0, 3.0]

    def test_ever_infected_dropped_when_missing(self):
        a = make([0, 1], [0, 1], ever=[0, 2])
        b = make([0, 1], [0, 1])
        mean = average_trajectories([a, b])
        assert mean.ever_infected is None


class TestSubsetFractionCurve:
    def test_counts_infections_by_stamp(self, star_network, star_objects):
        from repro.simulator.observers import subset_fraction_curve

        infect(star_objects.host(1), 2)
        infect(star_objects.host(2), 5)
        ticks = np.arange(8, dtype=float)
        curve = subset_fraction_curve(
            star_network, infected_at_row(star_objects), {1, 2, 3}, ticks
        )
        assert curve[0] == 0.0
        assert curve[2] == pytest.approx(1 / 3)
        assert curve[5] == pytest.approx(2 / 3)
        assert curve[7] == pytest.approx(2 / 3)

    def test_ignores_non_host_nodes(self, star_network, star_objects):
        from repro.simulator.observers import subset_fraction_curve

        infect(star_objects.host(1), 0)
        ticks = np.arange(3, dtype=float)
        # Node 0 is the hub (not infectable) and must not dilute the set.
        curve = subset_fraction_curve(
            star_network, infected_at_row(star_objects), {0, 1}, ticks
        )
        assert curve[-1] == pytest.approx(1.0)

    def test_empty_subset_rejected(self, star_network, star_objects):
        from repro.simulator.observers import subset_fraction_curve

        with pytest.raises(ModelError, match="no infectable"):
            subset_fraction_curve(
                star_network,
                infected_at_row(star_objects),
                {0},
                np.arange(3.0),
            )
