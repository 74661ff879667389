"""Tests for worm scanning strategies."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.simulator.worms import (
    LocalPreferentialWorm,
    RandomScanWorm,
    scans_this_tick,
)


class TestScansThisTick:
    def test_integer_rate_is_deterministic(self):
        rng = random.Random(0)
        assert all(scans_this_tick(rng, 3.0) == 3 for _ in range(50))

    def test_fractional_rate_has_exact_expectation(self):
        rng = random.Random(1)
        draws = [scans_this_tick(rng, 0.8) for _ in range(20_000)]
        assert set(draws) <= {0, 1}
        assert sum(draws) / len(draws) == pytest.approx(0.8, abs=0.02)

    def test_mixed_rate(self):
        rng = random.Random(2)
        draws = [scans_this_tick(rng, 2.25) for _ in range(20_000)]
        assert set(draws) <= {2, 3}
        assert sum(draws) / len(draws) == pytest.approx(2.25, abs=0.02)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            scans_this_tick(random.Random(0), -0.1)


class TestRandomScanWorm:
    def test_never_targets_self(self, small_network):
        worm = RandomScanWorm()
        rng = random.Random(3)
        origin = small_network.infectable[0]
        for _ in range(300):
            target = worm.pick_target(rng, origin, small_network)
            assert target != origin
            assert target in small_network.infectable_set

    def test_roughly_uniform(self, small_network):
        worm = RandomScanWorm()
        rng = random.Random(4)
        origin = small_network.infectable[0]
        counts = Counter(
            worm.pick_target(rng, origin, small_network) for _ in range(20_000)
        )
        expected = 20_000 / (small_network.num_infectable - 1)
        assert max(counts.values()) < 3 * expected

    def test_hit_probability_wastes_scans(self, small_network):
        worm = RandomScanWorm(hit_probability=0.25)
        rng = random.Random(5)
        origin = small_network.infectable[0]
        hits = sum(
            worm.pick_target(rng, origin, small_network) is not None
            for _ in range(8000)
        )
        assert hits / 8000 == pytest.approx(0.25, abs=0.03)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            RandomScanWorm(hit_probability=0.0)

    def test_name(self):
        assert RandomScanWorm().name == "random"


class TestLocalPreferentialWorm:
    def test_prefers_own_subnet(self, small_network):
        worm = LocalPreferentialWorm(0.9)
        rng = random.Random(6)
        # Pick an origin with at least 2 subnet peers.
        origin = next(
            n
            for n in small_network.infectable
            if len(small_network.subnet_peers(n)) >= 2
        )
        peers = set(small_network.subnet_peers(origin))
        local = 0
        trials = 5000
        for _ in range(trials):
            target = worm.pick_target(rng, origin, small_network)
            if target in peers:
                local += 1
        assert local / trials > 0.80

    def test_zero_preference_equals_random(self, small_network):
        worm = LocalPreferentialWorm(0.0)
        rng = random.Random(7)
        origin = small_network.infectable[0]
        peers = set(small_network.subnet_peers(origin))
        targets = [
            worm.pick_target(rng, origin, small_network) for _ in range(3000)
        ]
        local_fraction = sum(t in peers for t in targets) / len(targets)
        # Uniform scanning hits the (small) subnet rarely.
        assert local_fraction < 0.2

    def test_lone_host_falls_back_to_random(self, star_network):
        # Star subnets: every leaf shares the hub's single subnet, so use
        # a network where a host can be alone: craft via preference=1 and
        # verify a target is still produced.
        worm = LocalPreferentialWorm(1.0)
        rng = random.Random(8)
        origin = star_network.infectable[0]
        target = worm.pick_target(rng, origin, star_network)
        assert target is not None
        assert target != origin

    def test_rejects_bad_preference(self):
        with pytest.raises(ValueError):
            LocalPreferentialWorm(1.5)

    def test_name_and_accessor(self):
        worm = LocalPreferentialWorm(0.8)
        assert worm.name == "local_preferential"
        assert worm.local_preference == 0.8


class TestTopologicalWorm:
    def test_targets_are_within_radius(self, small_network):
        from repro.simulator.worms import TopologicalWorm

        worm = TopologicalWorm(radius=2, exploration=0.0)
        rng = random.Random(11)
        origin = small_network.infectable[0]
        reachable = set()
        frontier = {origin}
        for _ in range(2):
            frontier = {
                n
                for v in frontier
                for n in small_network.topology.neighbors(v)
            }
            reachable |= frontier
        for _ in range(200):
            target = worm.pick_target(rng, origin, small_network)
            assert target in reachable
            assert target != origin

    def test_neighborhood_cached(self, small_network):
        from repro.simulator.worms import TopologicalWorm

        worm = TopologicalWorm(radius=1, exploration=0.0)
        rng = random.Random(12)
        origin = small_network.infectable[0]
        worm.pick_target(rng, origin, small_network)
        assert origin in worm._neighborhoods

    def test_exploration_escapes_neighborhood(self, small_network):
        from repro.simulator.worms import TopologicalWorm

        worm = TopologicalWorm(radius=1, exploration=1.0)
        rng = random.Random(13)
        origin = small_network.infectable[0]
        neighbors = set(small_network.topology.neighbors(origin))
        targets = {
            worm.pick_target(rng, origin, small_network) for _ in range(300)
        }
        assert targets - neighbors  # random fallback leaves the hood

    def test_emits_no_missed_scans(self, small_network):
        """Topological worms never probe dark space (telescope-blind)."""
        from repro.simulator.worms import TopologicalWorm

        worm = TopologicalWorm(radius=2, exploration=0.0)
        rng = random.Random(14)
        origin = small_network.infectable[0]
        assert all(
            worm.pick_target(rng, origin, small_network) is not None
            for _ in range(200)
        )

    def test_validation(self):
        from repro.simulator.worms import TopologicalWorm

        with pytest.raises(ValueError):
            TopologicalWorm(radius=0)
        with pytest.raises(ValueError):
            TopologicalWorm(exploration=1.5)

    def test_spreads_in_simulation(self, small_network):
        from repro.simulator.fastpath import FastWormSimulation
        from repro.simulator.worms import TopologicalWorm

        sim = FastWormSimulation(
            small_network,
            TopologicalWorm(radius=2, exploration=0.05),
            scan_rate=0.8,
            initial_infections=3,
            seed=15,
        )
        trajectory = sim.run(300)
        assert trajectory.fraction_infected[-1] > 0.9


class TestSequentialScanWorm:
    def test_walks_address_space_in_order(self, small_network):
        from repro.simulator.worms import SequentialScanWorm

        worm = SequentialScanWorm()
        rng = random.Random(16)
        origin = small_network.infectable[0]
        targets = [
            worm.pick_target(rng, origin, small_network) for _ in range(10)
        ]
        population = list(small_network.infectable)
        start = population.index(targets[0])
        expected = []
        cursor = start
        while len(expected) < 10:
            candidate = population[cursor % len(population)]
            cursor += 1
            if candidate != origin:
                expected.append(candidate)
        assert targets == expected

    def test_instances_start_at_different_points(self, small_network):
        from repro.simulator.worms import SequentialScanWorm

        worm = SequentialScanWorm()
        rng = random.Random(17)
        a = small_network.infectable[0]
        b = small_network.infectable[1]
        first_a = worm.pick_target(rng, a, small_network)
        first_b = worm.pick_target(rng, b, small_network)
        assert first_a != first_b or True  # random starts; just no crash
        assert len(worm._cursors) == 2

    def test_hit_probability_misses(self, small_network):
        from repro.simulator.worms import SequentialScanWorm

        worm = SequentialScanWorm(hit_probability=0.3)
        rng = random.Random(18)
        origin = small_network.infectable[0]
        hits = sum(
            worm.pick_target(rng, origin, small_network) is not None
            for _ in range(5000)
        )
        assert hits / 5000 == pytest.approx(0.3, abs=0.04)

    def test_saturates_simulation(self, small_network):
        from repro.simulator.fastpath import FastWormSimulation
        from repro.simulator.worms import SequentialScanWorm

        sim = FastWormSimulation(
            small_network,
            SequentialScanWorm(),
            scan_rate=0.8,
            initial_infections=3,
            seed=19,
        )
        trajectory = sim.run(300)
        assert trajectory.fraction_infected[-1] > 0.9

    def test_validation(self):
        from repro.simulator.worms import SequentialScanWorm

        with pytest.raises(ValueError):
            SequentialScanWorm(hit_probability=0.0)
