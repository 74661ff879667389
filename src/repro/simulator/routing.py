"""Shortest-path routing tables and link occupancy counts.

The paper's simulator routes every infection packet over shortest paths
(ns-2's static routing) and sizes each rate-limited link's budget by "the
number of routing table entries the link occupies".  This module computes
both from the topology:

* next-hop tables — one deterministic BFS tree per destination, ties broken
  toward the lowest-numbered neighbor (adjacency lists are sorted);
* per-directed-link *occupancy* — the number of ordered (source,
  destination) pairs whose shortest path crosses the link, computed from
  BFS-tree subtree sizes.

One builder does both in a single pass.  Each destination's tree comes
from ``scipy.sparse.csgraph.breadth_first_order`` over the CSR adjacency:
a FIFO queue scanning neighbors in CSR (ascending) order, the same
discovery rule as a textbook queue BFS, so each node's parent is its
earliest-dequeued neighbor.  Roots are taken in blocks; after each block
the subtree sizes of its trees are summed bottom-up level by level (depths
come from pointer jumping over the parent rows) and folded into per-link
occupancy.  The link weights the rate-limit defenses read are tabulated
once at the end.  ``tests/simulator/test_routing_differential.py`` checks
parents and occupancy bit for bit against a queue-BFS specification on
random graphs, and the golden fixtures pin the tie-breaking on the paper
scenarios.

Memory: tables are one ``(N, N)`` int32 matrix (row ``d`` holds the next
hop toward destination ``d`` from every node), ~4 MB at the paper's 1,000
nodes and ~400 MB at 10,000.  The per-block temporaries are bounded by
:attr:`RoutingTables.BLOCK_ELEMENTS` entries (about 1 MB) at any size.

Build time, parents and occupancy together, on a 2-core Xeon VM for
Barabási–Albert graphs with m = 2: ~0.12 s at 1,000 nodes, ~1.3 s at
3,000 and ~10 s at 10,000.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from ..topology.graphs import Topology, TopologyError

__all__ = ["RoutingTables"]

DirectedLink = tuple[int, int]


class RoutingTables:
    """All-pairs next-hop routing derived from per-destination BFS trees."""

    #: Work-array entries per block of roots: the occupancy fold builds a
    #: ``(block, links)`` array, so this bounds its temporaries.  Blocks
    #: this small keep them cache-resident (faster than larger blocks).
    BLOCK_ELEMENTS = 1 << 17

    def __init__(self, topology: Topology) -> None:
        if not topology.is_connected():
            raise TopologyError(
                "routing requires a connected topology; got "
                f"{len(topology.connected_components())} components"
            )
        self._topology = topology
        n = topology.num_nodes
        # CSR adjacency; neighbor lists are sorted, so slot order is
        # (source, destination) order.
        degrees = np.array(topology.degrees(), dtype=np.int64)
        self._degrees = degrees
        indptr = np.concatenate(([0], np.cumsum(degrees)))
        self._link_dst = np.array(
            [v for node in topology.nodes() for v in topology.neighbors(node)],
            dtype=np.int32,
        ).reshape(-1)
        self._link_src = np.repeat(np.arange(n, dtype=np.int32), degrees)
        links = self._link_dst.size
        graph = csr_matrix(
            (np.ones(links), self._link_dst, indptr), shape=(n, n)
        )
        # _parent[d][v] = next hop from v toward destination d.
        self._parent = np.empty((n, n), dtype=np.int32)
        occupancy = np.zeros(links, dtype=np.int64)
        block = max(1, min(n, self.BLOCK_ELEMENTS // max(n, links)))
        for start in range(0, n, block):
            stop = min(start + block, n)
            for root in range(start, stop):
                _order, parents = breadth_first_order(
                    graph, root, directed=True, return_predecessors=True
                )
                parents[root] = root
                self._parent[root] = parents
            occupancy += self._block_occupancy(self._parent[start:stop])
        self._occ = occupancy
        # Link weights, normalized so the mean used link weighs 1.0.
        used = int(np.count_nonzero(occupancy))
        mean = int(occupancy.sum()) / used if used else 1.0
        self._weights = (occupancy / mean).tolist()
        self._slot_of = {
            key: slot
            for slot, key in enumerate(
                (self._link_src.astype(np.int64) * n + self._link_dst).tolist()
            )
        }
        # memoryview rows hand out plain Python ints on indexing — the
        # transport hot loops read these, not numpy scalars.
        self._row_views = [row.data for row in self._parent]

    def _block_occupancy(self, rows: np.ndarray) -> np.ndarray:
        """Per-link path counts over the BFS trees toward a block of roots.

        The number of sources routed over directed link ``(v, parent)``
        toward one destination is the size of ``v``'s subtree in that
        destination's tree.  Node depths come from pointer jumping (each
        pass doubles the hop every key points at), then subtree sizes
        accumulate bottom-up one level at a time, since every child sits
        exactly one level below its parent.  Keys are ``row * N + node``
        over the whole block.
        """
        batch, n = rows.shape
        keys = np.arange(batch * n, dtype=np.int64)
        parent_key = (
            rows + np.arange(0, batch * n, n, dtype=np.int64)[:, None]
        ).reshape(-1)
        nonroot = parent_key != keys
        depth = nonroot.astype(np.int32)
        jump = parent_key
        while True:
            hop = depth[jump]
            if not hop.any():
                break
            depth += hop
            jump = jump[jump]
        size = np.ones(batch * n, dtype=np.int32)
        for level in range(int(depth.max(initial=0)), 0, -1):
            at = np.flatnonzero(depth == level)
            np.add.at(size, parent_key[at], size[at])
        # Link v→w carries v's subtree toward every destination whose
        # tree hangs v under w.  Matching each row's parents against the
        # CSR neighbor lists finds that link's slot: one hit per
        # non-root node, in (row, node) order.  The float64 sums of
        # counts are exact (every total is at most N**2 < 2**53).
        match = np.repeat(rows, self._degrees, axis=1) == self._link_dst
        slots = np.flatnonzero(match) % self._link_dst.size
        return np.bincount(
            slots,
            weights=size[nonroot],
            minlength=self._link_dst.size,
        ).astype(np.int64)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def topology(self) -> Topology:
        """The topology these tables were computed from."""
        return self._topology

    def next_hop(self, node: int, destination: int) -> int:
        """Next hop from ``node`` toward ``destination``.

        Returns ``destination`` itself when ``node == destination``.
        """
        hop = self._row_views[destination][node]
        if hop < 0:
            raise TopologyError(f"no route from {node} to {destination}")
        return hop

    def next_hop_table(self, destination: int):
        """Next-hop row toward ``destination``, indexable by node id.

        Returns a flat int view (``table[node]`` is a plain Python int);
        the fast engine's transport reads these directly instead of
        paying a method call per forwarded packet.  Treat it as
        read-only.
        """
        return self._row_views[destination]

    @property
    def parent_matrix(self) -> np.ndarray:
        """The full next-hop matrix: ``matrix[destination, node]``.

        ``matrix[d, v]`` is the next hop from ``v`` toward ``d`` (``d``
        itself when ``v == d``).  Exposed for the fast engine's
        vectorized transport, which gathers next hops for whole packet
        batches with one fancy index.  Treat it as read-only.
        """
        return self._parent

    def path(self, src: int, dst: int) -> list[int]:
        """Full node sequence of the routed path, endpoints included."""
        path = [src]
        node = src
        limit = self._topology.num_nodes
        while node != dst:
            node = self.next_hop(node, dst)
            path.append(node)
            if len(path) > limit:
                raise TopologyError(
                    f"routing loop detected between {src} and {dst}"
                )
        return path

    def path_length(self, src: int, dst: int) -> int:
        """Hop count of the routed path."""
        return len(self.path(src, dst)) - 1

    def link_occupancy(self, u: int, v: int) -> int:
        """Ordered (src, dst) pairs whose path crosses directed link u→v."""
        slot = self._slot_of.get(u * self._topology.num_nodes + v)
        return 0 if slot is None else int(self._occ[slot])

    def occupancy_map(self) -> dict[DirectedLink, int]:
        """Directed-link occupancy for every link some path uses."""
        used = np.flatnonzero(self._occ)
        return dict(
            zip(
                zip(
                    self._link_src[used].tolist(),
                    self._link_dst[used].tolist(),
                ),
                self._occ[used].tolist(),
            )
        )

    def total_occupancy(self) -> int:
        """Sum of occupancy over all directed links.

        Equals the sum of all pairwise shortest-path lengths, a useful
        cross-check for the tests.
        """
        return int(self._occ.sum())

    def link_weight(self, u: int, v: int) -> float:
        """Occupancy of u→v relative to the mean used directed link.

        This is the paper's "link weight proportional to the number of
        routing table entries the link occupies", normalized so the mean
        used link has weight 1.0 — multiply by a base rate to get the
        simulated link rate.  Non-links weigh 0.0.
        """
        slot = self._slot_of.get(u * self._topology.num_nodes + v)
        return 0.0 if slot is None else self._weights[slot]
