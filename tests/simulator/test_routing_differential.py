"""Differential test: the routing builder against a queue-BFS specification.

:class:`RoutingTables` builds every destination's BFS tree with scipy's
C breadth-first traversal and folds link occupancy from the trees'
subtree sizes in blocks of roots.  The oracle below is the textbook
version of the same rule, one destination at a time: a FIFO queue,
neighbors scanned in ascending order (so ties go to the earliest-dequeued
neighbor), and one reverse sweep of the visit order for subtree sizes.
Parents, each node's link slot and occupancy must agree bit for bit, on
graph families chosen to exercise tie-breaking: power-law graphs with
several attachment counts, random trees, stars, paths and rings, all
under random node labels.

The tables store only next-link slots; :func:`parent_matrix` and
:func:`occupancy_map` are the test oracles that read next hops and
per-link path counts back out of them (``tests/simulator/test_routing.py``
uses them too).
"""

from __future__ import annotations

import random
from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.routing import RoutingTables
from repro.topology.graphs import Topology
from repro.topology.powerlaw import barabasi_albert


def scalar_tree(
    topology: Topology, root: int, occupancy: dict[tuple[int, int], int]
) -> list[int]:
    """Queue BFS toward ``root``: next hops, plus path counts per link.

    Returns each node's parent (``root`` for the root itself) and adds
    this destination's path counts to ``occupancy``: the number of
    sources routed over directed link ``(v, parents[v])`` equals the
    size of ``v``'s subtree in the BFS tree.
    """
    parents = [-1] * topology.num_nodes
    parents[root] = root
    order = [root]
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for neighbor in topology.neighbors(node):
            if parents[neighbor] < 0:
                parents[neighbor] = node
                order.append(neighbor)
                queue.append(neighbor)
    subtree = [1] * topology.num_nodes
    for node in reversed(order):
        if parents[node] != node:
            subtree[parents[node]] += subtree[node]
    for node in order:
        if parents[node] != node:
            link = (node, parents[node])
            occupancy[link] = occupancy.get(link, 0) + subtree[node]
    return parents


def parent_matrix(tables: RoutingTables) -> np.ndarray:
    """Next hops read off the next-link table: ``[d, v]`` is ``v``'s next
    hop toward ``d`` (``d`` itself on the diagonal)."""
    n = tables.topology.num_nodes
    parents = np.repeat(np.arange(n, dtype=np.int32)[:, None], n, axis=1)
    routed = tables.next_link >= 0
    parents[routed] = tables.link_dst[tables.next_link[routed]]
    return parents


def occupancy_map(tables: RoutingTables) -> dict[tuple[int, int], int]:
    """Ordered (source, destination) pairs per directed link, counted by
    walking every routed path over the next-link table."""
    n = tables.topology.num_nodes
    dst = np.repeat(np.arange(n), n)
    node = np.tile(np.arange(n), n)
    counts = np.zeros(tables.link_dst.size, dtype=np.int64)
    for _hop in range(n):
        moving = node != dst
        dst, node = dst[moving], node[moving]
        if not dst.size:
            break
        slots = tables.next_link[dst, node]
        assert (tables.link_src[slots] == node).all()
        counts += np.bincount(slots, minlength=counts.size)
        node = tables.link_dst[slots]
    assert not dst.size, "routing loop"
    return {
        (int(tables.link_src[s]), int(tables.link_dst[s])): int(counts[s])
        for s in np.flatnonzero(counts)
    }


def relabel(topology: Topology, seed: int) -> Topology:
    """The same graph under a random node permutation."""
    perm = list(range(topology.num_nodes))
    random.Random(seed).shuffle(perm)
    return Topology(
        topology.num_nodes, [(perm[u], perm[v]) for u, v in topology.edges]
    )


@st.composite
def connected_graphs(draw) -> Topology:
    family = draw(st.sampled_from(["ba", "tree", "star", "path", "ring"]))
    if family == "ba":
        m = draw(st.integers(min_value=1, max_value=3))
        n = draw(st.integers(min_value=m + 1, max_value=70))
        graph = barabasi_albert(n, m, seed=draw(st.integers(0, 10_000)))
    elif family == "tree":
        n = draw(st.integers(min_value=1, max_value=70))
        rng = random.Random(draw(st.integers(0, 10_000)))
        graph = Topology(n, [(i, rng.randrange(i)) for i in range(1, n)])
    elif family == "star":
        n = draw(st.integers(min_value=2, max_value=40))
        graph = Topology(n, [(0, i) for i in range(1, n)])
    elif family == "path":
        n = draw(st.integers(min_value=1, max_value=50))
        graph = Topology(n, [(i, i + 1) for i in range(n - 1)])
    else:
        n = draw(st.integers(min_value=3, max_value=50))
        graph = Topology(n, [(i, (i + 1) % n) for i in range(n)])
    return relabel(graph, draw(st.integers(0, 10_000)))


def assert_matches_spec(topology: Topology) -> None:
    tables = RoutingTables(topology)
    occupancy: dict[tuple[int, int], int] = {}
    parents = np.array(
        [
            scalar_tree(topology, root, occupancy)
            for root in range(topology.num_nodes)
        ],
        dtype=np.int32,
    )
    # Slots are CSR order: (source, destination) ascending.
    links = sorted({(u, v) for u, v in topology.edges} | {
        (v, u) for u, v in topology.edges
    })
    assert list(zip(tables.link_src.tolist(), tables.link_dst.tolist())) == links
    # Each node's slot is the link to its spec parent; -1 at the root.
    n = topology.num_nodes
    link_keys = np.array([u * n + v for u, v in links], dtype=np.int64)
    nodes = np.arange(n, dtype=np.int64)[None, :]
    slots = np.searchsorted(link_keys, nodes * n + parents)
    slots[parents == nodes] = -1
    assert tables.next_link.dtype == np.int32
    np.testing.assert_array_equal(tables.next_link, slots)
    np.testing.assert_array_equal(parent_matrix(tables), parents)
    assert occupancy_map(tables) == occupancy
    used = len(occupancy)
    mean = sum(occupancy.values()) / used if used else 1.0
    for u, v in topology.edges:
        for link in ((u, v), (v, u)):
            assert tables.link_weight(*link) == occupancy.get(link, 0) / mean


class TestBuilderMatchesQueueBFS:
    @given(connected_graphs())
    @settings(max_examples=120, deadline=None)
    def test_parents_and_occupancy_bit_identical(self, topology):
        assert_matches_spec(topology)

    def test_multiple_root_blocks(self, monkeypatch):
        """Blocks of a few roots fold into the same occupancy."""
        monkeypatch.setattr(RoutingTables, "BLOCK_ELEMENTS", 4200)
        assert_matches_spec(relabel(barabasi_albert(150, 2, seed=4), 1))

    def test_paper_scale_topology(self):
        assert_matches_spec(barabasi_albert(1000, 2, seed=2004))
