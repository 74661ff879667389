"""Tests for the Network container and packet movement."""

from __future__ import annotations

import pytest

from repro.simulator.defense import DefensePlan
from repro.simulator.network import Network
from repro.simulator.nodes import HostState
from repro.simulator.packet import Packet, PacketKind
from repro.topology.graphs import Topology, TopologyError

from ..oracle import count_states, immunize, infect, rate_limited_links


def infection(src: int, dst: int, tick: int = 0) -> Packet:
    return Packet(src=src, dst=dst, kind=PacketKind.INFECTION, created_tick=tick)


def link_limit(network: Network, u: int, v: int, rate: float) -> DefensePlan:
    """A plan rate-limiting the one link u→v."""
    slot = network.routing.link_rows[v][u]
    return DefensePlan(name="link", links=((slot, rate, rate + 1.0),))


class TestFactories:
    def test_powerlaw_roles_and_hosts(self, small_network):
        assert small_network.topology.num_nodes == 120
        assert len(small_network.roles.backbone) == 6
        assert len(small_network.roles.edge_routers) == 12
        assert small_network.num_infectable == 102
        # Infectable == hosts when routers are excluded.
        assert set(small_network.infectable) == set(small_network.roles.hosts)

    def test_powerlaw_with_router_infection(self):
        network = Network.from_powerlaw(120, seed=7, infect_routers=True)
        assert network.num_infectable == 120

    def test_star_factory(self, star_network):
        assert star_network.num_infectable == 49
        assert star_network.roles.edge_routers == (0,)

    def test_from_topology(self):
        ring = Topology(40, [(i, (i + 1) % 40) for i in range(40)])
        network = Network.from_topology(ring)
        assert network.num_infectable == 40 - 2 - 4

    def test_requires_infectable_hosts(self):
        ring = Topology(40, [(i, (i + 1) % 40) for i in range(40)])
        from repro.topology.classify import classify_roles
        from repro.topology.subnets import partition_subnets

        roles = classify_roles(ring)
        subnets = partition_subnets(ring, roles)
        with pytest.raises(TopologyError, match="at least one"):
            Network(ring, roles, subnets, infectable=())


class TestStateCounting:
    def test_counts(self, star_network):
        susceptible, infected, immune = count_states(star_network)
        assert (susceptible, infected, immune) == (49, 0, 0)
        infect(star_network.host(1), 0)
        immunize(star_network.host(2), 0)
        assert count_states(star_network) == (47, 1, 1)
        assert [
            node
            for node in star_network.infectable
            if star_network.host(node).state is HostState.INFECTED
        ] == [1]

    def test_subnet_peers(self, small_network):
        host = small_network.infectable[0]
        peers = small_network.subnet_peers(host)
        assert host not in peers
        for peer in peers:
            assert peer in small_network.hosts


class TestPacketMovement:
    def test_one_hop_delivery(self, star_network):
        star_network.inject(infection(1, 0))
        # 1 -> hub: one transmit tick delivers to the hub (dst).
        arrived = star_network.transmit_tick()
        assert [p.dst for p in arrived] == [0]

    def test_two_hop_delivery_takes_two_ticks(self, star_network):
        star_network.inject(infection(1, 2))
        first = star_network.transmit_tick()
        assert first == []
        second = star_network.transmit_tick()
        assert [p.dst for p in second] == [2]
        assert second[0].hops == 2

    def test_rate_limited_transit_queues(self, star_network):
        star_network.install_plan(link_limit(star_network, 0, 2, 1.0))
        for _ in range(3):
            star_network.inject(infection(1, 2))
        star_network.transmit_tick()  # all reach hub queue
        arrivals = []
        for _ in range(4):
            arrivals.extend(star_network.transmit_tick())
        assert len(arrivals) == 3  # trickled at 1/tick

    def test_node_forward_budget_blocks(self, star_network):
        star_network.install_plan(
            DefensePlan(name="budget", budgets=((0, 1.0, 2.0),))
        )
        for dst in (2, 3, 4):
            star_network.inject(infection(1, dst))
        star_network.transmit_tick()
        arrived = star_network.transmit_tick()
        assert len(arrived) == 1  # hub forwards only one per tick
        total = list(arrived)
        for _ in range(5):
            total.extend(star_network.transmit_tick())
        assert len(total) == 3

    def test_unknown_link_rejected(self, star_network):
        with pytest.raises(TopologyError):
            star_network.link(1, 2)

    def test_stats_track_delivery(self, star_network):
        star_network.inject(infection(1, 0))
        star_network.transmit_tick()
        assert star_network.stats.packets_injected == 1
        assert star_network.stats.packets_delivered == 1

    def test_rate_limited_links_listing(self, small_network):
        assert rate_limited_links(small_network) == []
        u, v = small_network.topology.edges[0]
        small_network.install_plan(link_limit(small_network, u, v, 2.0))
        limited = rate_limited_links(small_network)
        assert len(limited) == 1
        assert (limited[0].src, limited[0].dst) == (u, v)
        assert (limited[0].bucket.rate, limited[0].bucket.burst) == (2.0, 3.0)
