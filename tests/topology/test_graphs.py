"""Unit and property tests for the core Topology container."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.routing import RoutingTables
from repro.topology.graphs import Topology, TopologyError


def triangle() -> Topology:
    return Topology(3, [(0, 1), (1, 2), (0, 2)])


class TestConstruction:
    def test_basic_properties(self):
        graph = triangle()
        assert graph.num_nodes == 3
        assert graph.num_edges == 3
        assert graph.edges == ((0, 1), (0, 2), (1, 2))

    def test_rejects_zero_nodes(self):
        with pytest.raises(TopologyError, match="positive"):
            Topology(0, [])

    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError, match="self loop"):
            Topology(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(TopologyError, match="duplicate"):
            Topology(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(TopologyError, match="outside"):
            Topology(3, [(0, 5)])

    def test_neighbors_sorted(self):
        graph = Topology(4, [(2, 0), (0, 3), (0, 1)])
        assert graph.neighbors(0) == (1, 2, 3)


class TestQueries:
    def test_degree_and_degrees(self):
        graph = Topology(4, [(0, 1), (0, 2), (0, 3)])
        assert graph.degree(0) == 3
        assert graph.degrees() == [3, 1, 1, 1]

    def test_has_edge(self):
        """An undirected edge shows in both endpoints' neighbor lists."""
        graph = triangle()
        assert 1 in graph.neighbors(0)
        assert 0 in graph.neighbors(1)
        graph2 = Topology(3, [(0, 1)])
        assert 2 not in graph2.neighbors(1)
        assert (1, 2) not in graph2.edges

    def test_contains_and_iter(self):
        graph = triangle()
        assert 2 in graph
        assert 3 not in graph
        assert list(graph) == [0, 1, 2]


class TestTraversals:
    def test_bfs_distances_path_graph(self):
        graph = Topology(4, [(0, 1), (1, 2), (2, 3)])
        assert graph.bfs_distances(0) == [0, 1, 2, 3]

    def test_bfs_distances_unreachable(self):
        graph = Topology(4, [(0, 1), (2, 3)])
        distances = graph.bfs_distances(0)
        assert distances[2] == -1
        assert distances[3] == -1

    def test_bfs_distances_bad_source(self):
        with pytest.raises(TopologyError):
            triangle().bfs_distances(9)

    def test_bfs_tree_parents(self):
        """Routing keeps one BFS tree per destination: a node's next hop
        toward the root is its parent (the root's is itself)."""
        graph = Topology(4, [(0, 1), (1, 2), (2, 3)])
        routing = RoutingTables(graph)
        assert [routing.next_hop(node, 0) for node in graph] == [0, 0, 1, 2]

    def test_bfs_tree_deterministic_tie_break(self):
        # Node 3 reachable via 1 or 2 at equal distance; lowest wins.
        graph = Topology(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert RoutingTables(graph).next_hop(3, 0) == 1

    def test_is_connected(self):
        assert triangle().is_connected()
        assert not Topology(4, [(0, 1), (2, 3)]).is_connected()

    def test_connected_components(self):
        graph = Topology(5, [(0, 1), (2, 3)])
        assert graph.connected_components() == [[0, 1], [2, 3], [4]]


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=25))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
    )
    return n, edges


class TestProperties:
    @given(random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx_connectivity(self, data):
        n, edges = data
        graph = Topology(n, edges)
        reference = nx.Graph()
        reference.add_nodes_from(range(n))
        reference.add_edges_from(edges)
        assert graph.is_connected() == nx.is_connected(reference)

    @given(random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_bfs_distances_match_networkx(self, data):
        n, edges = data
        graph = Topology(n, edges)
        reference = nx.Graph()
        reference.add_nodes_from(range(n))
        reference.add_edges_from(edges)
        lengths = nx.single_source_shortest_path_length(reference, 0)
        mine = graph.bfs_distances(0)
        for node in range(n):
            assert mine[node] == lengths.get(node, -1)

    @given(random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_is_twice_edges(self, data):
        n, edges = data
        graph = Topology(n, edges)
        assert sum(graph.degrees()) == 2 * graph.num_edges

    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_components_partition_nodes(self, data):
        n, edges = data
        graph = Topology(n, edges)
        seen = [node for comp in graph.connected_components() for node in comp]
        assert sorted(seen) == list(range(n))
