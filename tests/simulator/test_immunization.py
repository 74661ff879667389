"""Tests for the simulator's delayed-patching process."""

from __future__ import annotations

import random

import pytest

from repro.simulator.fastpath.engine import FastImmunization
from repro.simulator.fastpath.state import HostArrays
from repro.simulator.immunization import ImmunizationPolicy

from ..oracle import HOST_STATES, HostState


class TestPolicyValidation:
    def test_requires_exactly_one_trigger(self):
        with pytest.raises(ValueError, match="exactly one"):
            ImmunizationPolicy(mu=0.1)
        with pytest.raises(ValueError, match="exactly one"):
            ImmunizationPolicy(mu=0.1, start_tick=3, start_fraction=0.2)

    def test_validates_ranges(self):
        with pytest.raises(ValueError):
            ImmunizationPolicy(mu=1.5, start_tick=1)
        with pytest.raises(ValueError):
            ImmunizationPolicy(mu=0.1, start_tick=-1)
        with pytest.raises(ValueError):
            ImmunizationPolicy(mu=0.1, start_fraction=1.0)

    def test_constructors(self):
        by_tick = ImmunizationPolicy.at_tick(5, 0.1)
        assert by_tick.start_tick == 5
        by_fraction = ImmunizationPolicy.at_fraction(0.2, 0.1)
        assert by_fraction.start_fraction == 0.2


class ArrayPatching:
    """The engine's patching process on host arrays, which the tests
    read back through :meth:`state`."""

    def __init__(self, network, policy, rng):
        self.network = network
        self.hosts = HostArrays(network)
        self.process = FastImmunization(network, policy, rng)

    def step(self, tick, ever_infected):
        return self.process.step(tick, ever_infected, self.hosts)

    def state(self, node):
        """The host's state in the arrays."""
        return HOST_STATES[self.hosts.status_row[node]]

    def __getattr__(self, name):
        return getattr(self.process, name)


class TestProcess:
    def test_tick_trigger(self, star_network):
        policy = ImmunizationPolicy.at_tick(3, mu=1.0)
        process = ArrayPatching(star_network, policy, random.Random(0))
        for tick in range(3):
            assert process.step(tick, ever_infected=0) == 0
            assert not process.is_active
        patched = process.step(3, ever_infected=0)
        assert process.is_active
        assert process.started_at == 3
        assert patched == star_network.num_infectable  # mu = 1

    def test_fraction_trigger(self, star_network):
        policy = ImmunizationPolicy.at_fraction(0.5, mu=1.0)
        process = ArrayPatching(star_network, policy, random.Random(0))
        assert process.step(0, ever_infected=10) == 0
        n = star_network.num_infectable
        assert process.step(1, ever_infected=(n // 2) + 1) == n

    def test_mu_rate_statistics(self, small_network):
        policy = ImmunizationPolicy.at_tick(0, mu=0.25)
        process = ArrayPatching(small_network, policy, random.Random(1))
        patched = process.step(0, ever_infected=0)
        n = small_network.num_infectable
        assert 0.1 * n < patched < 0.45 * n

    def test_infected_patched_by_default(self, star_network):
        policy = ImmunizationPolicy.at_tick(0, mu=1.0)
        process = ArrayPatching(star_network, policy, random.Random(0))
        process.hosts.infect(1, 0)
        process.step(0, ever_infected=1)
        assert process.state(1) is HostState.IMMUNE

    def test_patch_infected_false_spares_infected(self, star_network):
        policy = ImmunizationPolicy(mu=1.0, start_tick=0, patch_infected=False)
        process = ArrayPatching(star_network, policy, random.Random(0))
        process.hosts.infect(1, 0)
        process.step(0, ever_infected=1)
        assert process.state(1) is HostState.INFECTED
        assert process.state(2) is HostState.IMMUNE

    def test_already_immune_not_recounted(self, star_network):
        policy = ImmunizationPolicy.at_tick(0, mu=1.0)
        process = ArrayPatching(star_network, policy, random.Random(0))
        first = process.step(0, ever_infected=0)
        second = process.step(1, ever_infected=0)
        assert first == star_network.num_infectable
        assert second == 0
        assert process.patched == first
