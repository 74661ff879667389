"""Core graph container used by every topology in the reproduction.

The simulator needs a small, deterministic, dependency-free graph type with
contiguous integer node ids.  ``networkx`` is used in the test suite as an
independent oracle, but the library itself owns its graph representation so
that routing, link bookkeeping and role classification are reproducible
bit-for-bit across runs.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator

__all__ = ["Edge", "Topology", "TopologyError"]

Edge = tuple[int, int]


class TopologyError(ValueError):
    """Raised when a graph is structurally invalid for the requested use."""


def _canonical(u: int, v: int) -> Edge:
    """Return the canonical (sorted) form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


class Topology:
    """An immutable, undirected graph over nodes ``0 .. num_nodes - 1``.

    Parameters
    ----------
    num_nodes:
        Number of nodes; node ids are the contiguous range ``[0, num_nodes)``.
    edges:
        Iterable of ``(u, v)`` pairs.  Self loops and duplicate edges are
        rejected: the worm simulator's routing tables assume a simple graph.

    The adjacency lists are sorted, which makes every traversal in the
    library deterministic for a given topology.
    """

    def __init__(self, num_nodes: int, edges: Iterable[Edge]) -> None:
        if num_nodes <= 0:
            raise TopologyError(f"num_nodes must be positive, got {num_nodes}")
        self._num_nodes = int(num_nodes)

        seen: set[Edge] = set()
        adjacency: list[list[int]] = [[] for _ in range(self._num_nodes)]
        for u, v in edges:
            if not (0 <= u < self._num_nodes and 0 <= v < self._num_nodes):
                raise TopologyError(
                    f"edge ({u}, {v}) references a node outside "
                    f"[0, {self._num_nodes})"
                )
            if u == v:
                raise TopologyError(f"self loop ({u}, {v}) is not allowed")
            edge = _canonical(u, v)
            if edge in seen:
                raise TopologyError(f"duplicate edge {edge}")
            seen.add(edge)
            adjacency[u].append(v)
            adjacency[v].append(u)

        for neighbors in adjacency:
            neighbors.sort()
        self._edges: tuple[Edge, ...] = tuple(sorted(seen))
        self._adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(neighbors) for neighbors in adjacency
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the graph."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of undirected edges in the graph."""
        return len(self._edges)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """All edges in canonical ``(min, max)`` form, sorted."""
        return self._edges

    def nodes(self) -> range:
        """Iterable of all node ids."""
        return range(self._num_nodes)

    def neighbors(self, node: int) -> tuple[int, ...]:
        """Sorted neighbors of ``node``."""
        return self._adjacency[node]

    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        return len(self._adjacency[node])

    def degrees(self) -> list[int]:
        """Degrees of all nodes, indexed by node id."""
        return [len(neighbors) for neighbors in self._adjacency]

    def __contains__(self, node: int) -> bool:
        return 0 <= node < self._num_nodes

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._num_nodes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(num_nodes={self._num_nodes}, "
            f"num_edges={self.num_edges})"
        )

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------

    def bfs_distances(self, source: int) -> list[int]:
        """Hop distances from ``source``; unreachable nodes get ``-1``."""
        if source not in self:
            raise TopologyError(f"source {source} not in graph")
        distances = [-1] * self._num_nodes
        distances[source] = 0
        queue: deque[int] = deque([source])
        while queue:
            node = queue.popleft()
            for neighbor in self._adjacency[node]:
                if distances[neighbor] < 0:
                    distances[neighbor] = distances[node] + 1
                    queue.append(neighbor)
        return distances

    def is_connected(self) -> bool:
        """Whether every node is reachable from node 0."""
        return all(d >= 0 for d in self.bfs_distances(0))

    def connected_components(self) -> list[list[int]]:
        """Connected components, each a sorted list of node ids."""
        assigned = [False] * self._num_nodes
        components: list[list[int]] = []
        for start in range(self._num_nodes):
            if assigned[start]:
                continue
            component: list[int] = []
            queue: deque[int] = deque([start])
            assigned[start] = True
            while queue:
                node = queue.popleft()
                component.append(node)
                for neighbor in self._adjacency[node]:
                    if not assigned[neighbor]:
                        assigned[neighbor] = True
                        queue.append(neighbor)
            components.append(sorted(component))
        return components
