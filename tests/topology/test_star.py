"""Tests for star-graph construction (Section 4 substrate)."""

from __future__ import annotations

import pytest

from repro.topology.graphs import TopologyError
from repro.topology.star import HUB_NODE, star_graph


class TestStarGraph:
    def test_paper_size(self):
        star = star_graph(200)
        assert star.graph.num_nodes == 200
        assert len(star.leaves) == 199
        assert star.graph.num_edges == 199

    def test_hub_degree_is_all_leaves(self):
        star = star_graph(50)
        assert star.graph.degree(HUB_NODE) == 49

    def test_every_leaf_has_degree_one(self):
        star = star_graph(30)
        for leaf in star.leaves:
            assert star.graph.degree(leaf) == 1

    def test_leaf_paths_go_through_hub(self):
        star = star_graph(10)
        assert star.graph.neighbors(3) == (HUB_NODE,)

    def test_connected(self):
        assert star_graph(25).graph.is_connected()

    def test_minimum_size(self):
        star = star_graph(2)
        assert len(star.leaves) == 1

    def test_rejects_too_small(self):
        with pytest.raises(TopologyError, match="at least 2"):
            star_graph(1)

    def test_leaves_are_all_nonhub_nodes(self):
        star = star_graph(12)
        assert star.leaves == tuple(range(1, 12))
