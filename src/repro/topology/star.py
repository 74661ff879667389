"""Star topologies for the Section 4 deployment-strategy study.

The paper illustrates leaf-node vs hub-node rate limiting on a 200-node star
graph (Figure 1).  A star graph has one central *hub* connected to every
*leaf*; all leaf-to-leaf traffic transits the hub, which is what makes hub
rate limiting equivalent to rate limiting every leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Topology, TopologyError

__all__ = ["HUB_NODE", "StarTopology", "star_graph"]

#: Node id of the hub in every star produced by this module.
HUB_NODE = 0


@dataclass(frozen=True)
class StarTopology:
    """A star graph plus the role bookkeeping the experiments need.

    Attributes
    ----------
    graph:
        The underlying :class:`~repro.topology.graphs.Topology`.
    hub:
        Node id of the central hub (always ``0``).
    leaves:
        Node ids of the leaves, sorted.
    """

    graph: Topology
    hub: int = HUB_NODE
    leaves: tuple[int, ...] = field(default_factory=tuple)


def star_graph(num_nodes: int) -> StarTopology:
    """Build a star with ``num_nodes`` total nodes (1 hub + N-1 leaves).

    Parameters
    ----------
    num_nodes:
        Total node count including the hub.  The paper's Figure 1 uses 200.

    Raises
    ------
    TopologyError
        If fewer than two nodes are requested (a star needs at least one
        leaf for an epidemic to exist).
    """
    if num_nodes < 2:
        raise TopologyError(
            f"a star graph needs at least 2 nodes, got {num_nodes}"
        )
    edges = [(HUB_NODE, leaf) for leaf in range(1, num_nodes)]
    graph = Topology(num_nodes, edges)
    return StarTopology(graph=graph, leaves=tuple(range(1, num_nodes)))
