"""Tests for the Network description and the oracle's packet movement."""

from __future__ import annotations

import pytest

from repro.simulator.defense import DefensePlan
from repro.simulator.network import Network
from repro.topology.graphs import Topology, TopologyError

from ..oracle import (
    HostState,
    ObjectNetwork,
    Packet,
    PacketKind,
    count_states,
    immunize,
    infect,
    link_keys,
    rate_limited_links,
)


def infection(src: int, dst: int, tick: int = 0) -> Packet:
    return Packet(src=src, dst=dst, kind=PacketKind.INFECTION, created_tick=tick)


@pytest.fixture()
def star_objects(star_network) -> ObjectNetwork:
    return ObjectNetwork(star_network)


@pytest.fixture()
def small_objects(small_network) -> ObjectNetwork:
    return ObjectNetwork(small_network)


def rebuilt(network: Network, **changes) -> Network:
    """``network``'s scenario with some constructor arguments changed."""
    kwargs = {"infectable": network.infectable, "routing": network.routing}
    kwargs.update(changes)
    return Network(network.topology, network.roles, network.subnets, **kwargs)


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

    @pytest.mark.parametrize(
        "bound, error", [(0, ValueError), (-1, ValueError), (2.5, TypeError)]
    )
    def test_rejects_bad_queue_bound(self, small_network, bound, error):
        with pytest.raises(error):
            rebuilt(small_network, max_queue=bound)

    def test_infectable_is_sorted_and_unique(self, star_network):
        network = rebuilt(star_network, infectable=(3, 1, 2, 1))
        assert network.infectable == (1, 2, 3)
        assert network.infectable_set == frozenset({1, 2, 3})


class TestObjects:
    def test_one_link_per_direction_in_edge_order(self, small_objects):
        keys = list(small_objects.links)
        assert keys == link_keys(small_objects)
        assert keys[:2] == [
            small_objects.topology.edges[0],
            small_objects.topology.edges[0][::-1],
        ]
        assert sorted(keys) == list(
            zip(
                small_objects.routing.link_src.tolist(),
                small_objects.routing.link_dst.tolist(),
            )
        )

    def test_links_take_the_network_queue_bound(self, star_network):
        objects = ObjectNetwork(rebuilt(star_network, max_queue=3))
        assert {link.max_queue for link in objects.links.values()} == {3}

    def test_hosts_start_susceptible(self, star_objects):
        assert sorted(star_objects.hosts) == list(star_objects.infectable)
        assert all(
            host.state is HostState.SUSCEPTIBLE
            and host.infected_at is None
            and host.scan_throttle is None
            for host in star_objects.hosts.values()
        )


class TestStateCounting:
    def test_counts(self, star_objects):
        susceptible, infected, immune = count_states(star_objects)
        assert (susceptible, infected, immune) == (49, 0, 0)
        infect(star_objects.host(1), 0)
        immunize(star_objects.host(2), 0)
        assert count_states(star_objects) == (47, 1, 1)
        assert [
            node
            for node in star_objects.infectable
            if star_objects.host(node).state is HostState.INFECTED
        ] == [1]

    def test_subnet_peers(self, small_network):
        host = small_network.infectable[0]
        peers = small_network.subnet_peers(host)
        assert host not in peers
        for peer in peers:
            assert peer in small_network.infectable_set


class TestPacketMovement:
    def test_one_hop_delivery(self, star_objects):
        star_objects.inject(infection(1, 0))
        # 1 -> hub: one transmit tick delivers to the hub (dst).
        arrived = star_objects.transmit_tick()
        assert [p.dst for p in arrived] == [0]

    def test_two_hop_delivery_takes_two_ticks(self, star_objects):
        star_objects.inject(infection(1, 2))
        first = star_objects.transmit_tick()
        assert first == []
        second = star_objects.transmit_tick()
        assert [p.dst for p in second] == [2]
        assert second[0].hops == 2

    def test_rate_limited_transit_queues(self, star_objects):
        star_objects.install_plan(link_limit(star_objects, 0, 2, 1.0))
        for _ in range(3):
            star_objects.inject(infection(1, 2))
        star_objects.transmit_tick()  # all reach hub queue
        arrivals = []
        for _ in range(4):
            arrivals.extend(star_objects.transmit_tick())
        assert len(arrivals) == 3  # trickled at 1/tick

    def test_node_forward_budget_blocks(self, star_objects):
        star_objects.install_plan(
            DefensePlan(name="budget", budgets=((0, 1.0, 2.0),))
        )
        for dst in (2, 3, 4):
            star_objects.inject(infection(1, dst))
        star_objects.transmit_tick()
        arrived = star_objects.transmit_tick()
        assert len(arrived) == 1  # hub forwards only one per tick
        total = list(arrived)
        for _ in range(5):
            total.extend(star_objects.transmit_tick())
        assert len(total) == 3

    def test_unknown_link_rejected(self, star_objects):
        with pytest.raises(TopologyError):
            star_objects.link(1, 2)

    def test_stats_track_delivery(self, star_objects):
        star_objects.inject(infection(1, 0))
        star_objects.transmit_tick()
        assert star_objects.stats.packets_injected == 1
        assert star_objects.stats.packets_delivered == 1

    def test_rate_limited_links_listing(self, small_objects):
        assert rate_limited_links(small_objects) == []
        u, v = small_objects.topology.edges[0]
        small_objects.install_plan(link_limit(small_objects, u, v, 2.0))
        limited = rate_limited_links(small_objects)
        assert len(limited) == 1
        assert (limited[0].src, limited[0].dst) == (u, v)
        assert (limited[0].bucket.rate, limited[0].bucket.burst) == (2.0, 3.0)
