"""Tests for the two-level edge-router models (Section 5.2, Figure 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.base import ModelError
from repro.models.edge import CoupledSubnetModel, EdgeRouterModel, WormKind


class TestWormKind:
    def test_random_preference_is_one_over_subnets(self):
        assert WormKind.random(100).local_preference == pytest.approx(0.01)

    def test_local_preferential_default(self):
        assert WormKind.local_preferential().local_preference == 0.8

    def test_rejects_bad_preference(self):
        with pytest.raises(ModelError):
            WormKind("bad", 1.5)
        with pytest.raises(ModelError):
            WormKind.random(0)


class TestEdgeRouterModel:
    def make(self, worm: WormKind, limit: float | None = 0.01) -> EdgeRouterModel:
        return EdgeRouterModel(100, 10, 0.8, worm, cross_rate_limit=limit)

    def test_local_pref_has_higher_within_rate(self):
        local = self.make(WormKind.local_preferential(0.8))
        rand = self.make(WormKind.random(100))
        assert local.within_rate > 10 * rand.within_rate

    def test_rate_limit_caps_cross_rate(self):
        limited = self.make(WormKind.random(100), limit=0.01)
        free = self.make(WormKind.random(100), limit=None)
        assert limited.cross_rate == pytest.approx(0.01)
        assert free.cross_rate > limited.cross_rate

    def test_filter_never_touches_within_rate(self):
        """Edge filters see only cross-subnet traffic."""
        limited = self.make(WormKind.local_preferential(0.8), limit=0.001)
        free = self.make(WormKind.local_preferential(0.8), limit=None)
        assert limited.within_rate == pytest.approx(free.within_rate)

    def test_figure3_orderings(self):
        """Fig 3(a): RL slows subnet spread; local-pref worms spread
        across subnets slower than their within-subnet blaze."""
        local_no_rl = self.make(WormKind.local_preferential(0.8), limit=None)
        local_rl = self.make(WormKind.local_preferential(0.8), limit=0.01)
        random_rl = self.make(WormKind.random(100), limit=0.01)
        t = np.linspace(0, 300, 400)
        assert np.all(
            np.asarray(local_rl.subnet_fraction(t))
            <= np.asarray(local_no_rl.subnet_fraction(t)) + 1e-9
        )
        # Both throttled worms cross subnets at the same capped rate.
        np.testing.assert_allclose(
            np.asarray(local_rl.subnet_fraction(t)),
            np.asarray(random_rl.subnet_fraction(t)),
        )
        # Fig 3(b): within a subnet, the local-pref worm is much faster.
        assert np.sum(
            np.asarray(local_rl.within_subnet_fraction(t))
        ) > 2 * np.sum(np.asarray(random_rl.within_subnet_fraction(t)))

    def test_trajectories_have_right_populations(self):
        model = self.make(WormKind.random(100))
        across = model.subnet_trajectory(100)
        within = model.within_subnet_trajectory(100)
        assert across.population == 100.0
        assert within.population == 10.0

    def test_validation(self):
        with pytest.raises(ModelError):
            EdgeRouterModel(1, 10, 0.8, WormKind.random(2))
        with pytest.raises(ModelError):
            EdgeRouterModel(10, 1, 0.8, WormKind.random(10))
        with pytest.raises(ModelError):
            EdgeRouterModel(10, 10, 0.8, WormKind.random(10),
                            cross_rate_limit=0.0)


class TestCoupledSubnetModel:
    def test_infection_bounded_by_population(self):
        model = CoupledSubnetModel(20, 50, 0.8, 0.05)
        trajectory = model.solve(400)
        assert np.all(trajectory.infected <= model.population + 1e-6)

    def test_slower_cross_rate_slows_total(self):
        fast = CoupledSubnetModel(20, 50, 0.8, 0.2).solve(400)
        slow = CoupledSubnetModel(20, 50, 0.8, 0.02).solve(400)
        assert slow.time_to_fraction(0.5) > fast.time_to_fraction(0.5)

    def test_within_rate_dominates_early(self):
        """With a huge within rate the first subnet saturates quickly:
        ~1/num_subnets of the population infected early on."""
        model = CoupledSubnetModel(10, 100, 2.0, 0.01, initial_infected=1)
        trajectory = model.solve(30)
        fraction = np.interp(15, trajectory.times, trajectory.fraction_infected)
        assert fraction == pytest.approx(0.1, abs=0.05)

    def test_validation(self):
        with pytest.raises(ModelError):
            CoupledSubnetModel(1, 10, 0.5, 0.1)
        with pytest.raises(ModelError):
            CoupledSubnetModel(10, 10, 0.0, 0.1)
        with pytest.raises(ModelError):
            CoupledSubnetModel(10, 10, 0.5, 0.1, initial_infected=0)
