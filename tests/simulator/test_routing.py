"""Tests for shortest-path routing tables and link occupancy."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.routing import RoutingTables
from repro.topology.graphs import Topology, TopologyError
from repro.topology.powerlaw import barabasi_albert
from repro.topology.star import star_graph

from .test_routing_differential import occupancy_map


def path_graph(n: int) -> Topology:
    return Topology(n, [(i, i + 1) for i in range(n - 1)])


class TestNextHop:
    def test_path_graph_routes_along_the_line(self):
        tables = RoutingTables(path_graph(5))
        assert tables.next_hop(0, 4) == 1
        assert tables.next_hop(3, 0) == 2
        assert tables.next_hop(2, 2) == 2

    def test_star_routes_via_hub(self):
        star = star_graph(10)
        tables = RoutingTables(star.graph)
        assert tables.next_hop(3, 7) == 0
        assert tables.next_hop(0, 7) == 7

    def test_path_endpoints_included(self):
        tables = RoutingTables(path_graph(4))
        assert tables.path(0, 3) == [0, 1, 2, 3]
        assert tables.path(2, 2) == [2]

    def test_requires_connected_graph(self):
        disconnected = Topology(4, [(0, 1), (2, 3)])
        with pytest.raises(TopologyError, match="connected"):
            RoutingTables(disconnected)


class TestShortestness:
    @given(st.integers(min_value=10, max_value=80))
    @settings(max_examples=15, deadline=None)
    def test_paths_are_shortest(self, n):
        topology = barabasi_albert(n, 2, seed=n)
        tables = RoutingTables(topology)
        reference = nx.Graph(list(topology.edges))
        lengths = dict(nx.all_pairs_shortest_path_length(reference))
        for src in range(0, n, max(1, n // 7)):
            for dst in range(0, n, max(1, n // 5)):
                assert len(tables.path(src, dst)) - 1 == lengths[src][dst]

    def test_loop_free_on_powerlaw(self):
        topology = barabasi_albert(150, 2, seed=5)
        tables = RoutingTables(topology)
        # path() raises on loops; exercise a spread of pairs.
        for src in range(0, 150, 13):
            for dst in range(0, 150, 17):
                tables.path(src, dst)


class TestOccupancy:
    def test_path_graph_occupancy_by_hand(self):
        # 0-1-2: (0,1) carries 0->1 and 0->2; (1,2) carries 1->2 and
        # 0->2; by symmetry every directed link carries two pairs.
        occupancy = occupancy_map(RoutingTables(path_graph(3)))
        assert occupancy == {(0, 1): 2, (1, 2): 2, (1, 0): 2, (2, 1): 2}

    def test_total_occupancy_equals_sum_of_path_lengths(self):
        topology = barabasi_albert(60, 2, seed=3)
        tables = RoutingTables(topology)
        total = sum(
            len(tables.path(s, d)) - 1
            for s in range(60)
            for d in range(60)
            if s != d
        )
        assert sum(occupancy_map(tables).values()) == total

    def test_star_hub_links_carry_everything(self):
        star = star_graph(6)
        occupancy = occupancy_map(RoutingTables(star.graph))
        # Leaf 1's outgoing link carries its 5 destinations.
        assert occupancy[(1, 0)] == 5
        # Hub->leaf 1 carries traffic from 4 other leaves + the hub.
        assert occupancy[(0, 1)] == 5

    def test_unused_link_weight_zero(self):
        tables = RoutingTables(path_graph(3))
        assert tables.link_weight(0, 2) == 0.0

    def test_link_weights_mean_one(self):
        topology = barabasi_albert(80, 2, seed=9)
        tables = RoutingTables(topology)
        occupancy = occupancy_map(tables)
        weights = [tables.link_weight(u, v) for (u, v) in occupancy]
        assert sum(weights) / len(weights) == pytest.approx(1.0)

    def test_hub_links_heavier_than_leaf_links(self):
        topology = barabasi_albert(200, 2, seed=11)
        tables = RoutingTables(topology)
        degrees = topology.degrees()
        hub = max(range(200), key=lambda v: degrees[v])
        leaf = min(range(200), key=lambda v: degrees[v])
        hub_weight = max(
            tables.link_weight(hub, n) for n in topology.neighbors(hub)
        )
        leaf_weight = max(
            tables.link_weight(leaf, n) for n in topology.neighbors(leaf)
        )
        assert hub_weight > leaf_weight
