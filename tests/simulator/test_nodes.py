"""Tests for the oracle's host state machines."""

from __future__ import annotations

from repro.simulator.links import TokenBucket

from ..oracle import Host, HostState, allow_scan, immunize, infect, tick_throttle


class TestStateMachine:
    """The oracle's host transitions (``tests/oracle.py``)."""

    def test_starts_susceptible(self):
        assert Host(node=1).state is HostState.SUSCEPTIBLE

    def test_infect_transitions_once(self):
        host = Host(node=1)
        assert infect(host, tick=3)
        assert host.state is HostState.INFECTED
        assert host.infected_at == 3
        # Re-infection is a wasted scan, not an error.
        assert not infect(host, tick=4)
        assert host.infected_at == 3

    def test_immune_hosts_cannot_be_infected(self):
        host = Host(node=1)
        immunize(host, tick=1)
        assert not infect(host, tick=2)
        assert host.state is HostState.IMMUNE

    def test_immunize_susceptible(self):
        host = Host(node=1)
        assert immunize(host, tick=5)
        assert host.immunized_at == 5

    def test_immunize_infected(self):
        """The paper's model patches infected hosts too."""
        host = Host(node=1)
        infect(host, tick=1)
        assert immunize(host, tick=2)
        assert host.state is HostState.IMMUNE

    def test_immunize_idempotent(self):
        host = Host(node=1)
        immunize(host, tick=1)
        assert not immunize(host, tick=2)
        assert host.immunized_at == 1


class TestScanThrottle:
    def test_unthrottled_always_allows(self):
        host = Host(node=1)
        assert all(allow_scan(host) for _ in range(100))

    def test_throttle_caps_scans_per_tick(self):
        host = Host(node=1, scan_throttle=TokenBucket(2.0))
        tick_throttle(host)
        allowed = sum(allow_scan(host) for _ in range(10))
        assert allowed == 2
        tick_throttle(host)
        assert sum(allow_scan(host) for _ in range(10)) == 2

    def test_fractional_throttle(self):
        host = Host(node=1, scan_throttle=TokenBucket(0.5))
        total = 0
        for _ in range(20):
            tick_throttle(host)
            if allow_scan(host):
                total += 1
        assert 9 <= total <= 11

    def test_state_enum_round_trip(self):
        assert HostState("susceptible") is HostState.SUSCEPTIBLE
        assert HostState("infected") is HostState.INFECTED
        assert HostState("immune") is HostState.IMMUNE
