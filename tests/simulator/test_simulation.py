"""Tests for the end-to-end FastWormSimulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulator.defense import (
    deploy_backbone_rate_limit,
    deploy_host_rate_limit,
)
from repro.simulator.immunization import ImmunizationPolicy
from repro.simulator.network import Network
from repro.simulator.fastpath import FastWormSimulation
from repro.simulator.worms import LocalPreferentialWorm, RandomScanWorm


def fresh_network() -> Network:
    return Network.from_powerlaw(120, seed=7)


class TestBasicRuns:
    def test_undefended_worm_saturates(self):
        sim = FastWormSimulation(
            fresh_network(), RandomScanWorm(), scan_rate=0.8,
            initial_infections=3, seed=1,
        )
        trajectory = sim.run(200)
        assert trajectory.fraction_infected[-1] == pytest.approx(1.0)

    def test_deterministic_for_seed(self):
        runs = []
        for _ in range(2):
            sim = FastWormSimulation(
                fresh_network(), RandomScanWorm(), scan_rate=0.8,
                initial_infections=3, seed=5,
            )
            runs.append(sim.run(60).infected)
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_different_seeds_differ(self):
        curves = []
        for seed in (1, 2):
            sim = FastWormSimulation(
                fresh_network(), RandomScanWorm(), scan_rate=0.8,
                initial_infections=3, seed=seed,
            )
            curves.append(sim.run(60).infected)
        assert not np.array_equal(curves[0], curves[1])

    def test_initial_infections_recorded(self):
        sim = FastWormSimulation(
            fresh_network(), RandomScanWorm(), scan_rate=0.8,
            initial_infections=7, seed=1,
        )
        trajectory = sim.run(5)
        assert trajectory.infected[0] >= 7
        assert trajectory.ever_infected[0] >= 7

    def test_monotone_infection_without_patching(self):
        sim = FastWormSimulation(
            fresh_network(), RandomScanWorm(), scan_rate=0.8,
            initial_infections=3, seed=2,
        )
        trajectory = sim.run(100)
        assert np.all(np.diff(trajectory.infected) >= 0)

    def test_stops_early_at_saturation(self):
        sim = FastWormSimulation(
            fresh_network(), RandomScanWorm(), scan_rate=3.0,
            initial_infections=10, seed=3,
        )
        trajectory = sim.run(500)
        assert trajectory.times.size < 400

    def test_validation(self):
        network = fresh_network()
        with pytest.raises(ValueError):
            FastWormSimulation(network, RandomScanWorm(), scan_rate=0.0)
        with pytest.raises(ValueError):
            FastWormSimulation(
                network, RandomScanWorm(), scan_rate=0.5,
                initial_infections=0,
            )


class TestDefendedRuns:
    def test_host_throttle_limits_scan_emission(self):
        network = fresh_network()
        sim = FastWormSimulation(
            network, RandomScanWorm(), scan_rate=0.8,
            initial_infections=3, seed=4,
            defense=deploy_host_rate_limit(network, 1.0, 0.01, seed=1),
        )
        trajectory = sim.run(100)
        # With every host throttled to 1% of beta, spread is crawling.
        assert trajectory.fraction_infected[-1] < 0.5

    def test_backbone_limit_slows_spread(self):
        base_net = fresh_network()
        base = FastWormSimulation(
            base_net, RandomScanWorm(), scan_rate=0.8,
            initial_infections=3, seed=4,
        ).run(300)

        defended_net = fresh_network()
        defended = FastWormSimulation(
            defended_net, RandomScanWorm(), scan_rate=0.8,
            initial_infections=3, seed=4,
            defense=deploy_backbone_rate_limit(defended_net, 0.02),
        ).run(300)
        assert defended.time_to_fraction(0.5) > 1.5 * base.time_to_fraction(0.5)

    def test_local_preferential_worm_runs(self):
        sim = FastWormSimulation(
            fresh_network(), LocalPreferentialWorm(0.8), scan_rate=0.8,
            initial_infections=3, seed=5,
        )
        trajectory = sim.run(300)
        assert trajectory.fraction_infected[-1] > 0.9


class TestImmunizedRuns:
    def test_immunization_caps_ever_infected(self):
        policy = ImmunizationPolicy.at_fraction(0.2, 0.1)
        sim = FastWormSimulation(
            fresh_network(), RandomScanWorm(), scan_rate=0.8,
            initial_infections=3, immunization=policy, seed=6,
        )
        trajectory = sim.run(300)
        assert trajectory.final_fraction_ever_infected() < 1.0
        # Infected eventually decline.
        assert trajectory.infected[-1] < trajectory.infected.max()

    def test_conservation_with_patching(self):
        policy = ImmunizationPolicy.at_fraction(0.3, 0.2)
        network = fresh_network()
        sim = FastWormSimulation(
            network, RandomScanWorm(), scan_rate=0.8,
            initial_infections=3, immunization=policy, seed=7,
        )
        trajectory = sim.run(200)
        total = (
            trajectory.susceptible + trajectory.infected + trajectory.removed
        )
        np.testing.assert_allclose(total, network.num_infectable)

    def test_worm_dies_out_stops_run(self):
        policy = ImmunizationPolicy.at_tick(0, 0.5)
        sim = FastWormSimulation(
            fresh_network(), RandomScanWorm(), scan_rate=0.8,
            initial_infections=3, immunization=policy, seed=8,
        )
        trajectory = sim.run(500)
        assert trajectory.times.size < 100
        # The run stops once no susceptible hosts remain; at most a
        # straggler or two can still be infected at that instant.
        assert trajectory.infected[-1] <= 2
