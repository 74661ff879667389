"""Subnet partitioning for local-preferential worm experiments.

The paper's edge-router experiments (Sections 5.2 and 5.4) treat the network
as a collection of subnets behind edge routers: worms spread quickly inside
a subnet (rate ``beta1``) and slowly across subnets (rate ``beta2``), and a
*local-preferential* worm biases its scans toward its own subnet.

We derive subnets from the topology itself: every end host belongs to the
subnet of its closest edge router (multi-source BFS, deterministic
tie-breaking toward the lowest-numbered router).  Backbone routers belong to
no subnet — they are transit only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .classify import NodeRole, RoleAssignment
from .graphs import Topology, TopologyError

__all__ = ["SubnetMap", "partition_subnets"]

#: Subnet id used for transit (backbone) nodes that belong to no subnet.
NO_SUBNET = -1


@dataclass(frozen=True)
class SubnetMap:
    """Mapping between nodes and the subnets they belong to.

    Attributes
    ----------
    subnet_of:
        ``subnet_of[node]`` is the subnet id of the node, or ``NO_SUBNET``
        for transit nodes.  Subnet ids are contiguous from 0 and equal the
        index into :attr:`members`.
    members:
        ``members[s]`` is the sorted tuple of nodes in subnet ``s``
        (the owning edge router plus its hosts).
    gateways:
        ``gateways[s]`` is the edge-router node that owns subnet ``s``.
    """

    subnet_of: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    gateways: tuple[int, ...]

    @property
    def num_subnets(self) -> int:
        """Number of subnets."""
        return len(self.members)


def partition_subnets(
    topology: Topology, roles: RoleAssignment
) -> SubnetMap:
    """Assign every host to the subnet of its nearest edge router.

    A multi-source BFS starts simultaneously from all edge routers; each
    host inherits the subnet of whichever router reaches it first, with ties
    broken toward the lowest-numbered router (adjacency lists are sorted, so
    this is deterministic).  Backbone routers stay unassigned: they carry
    transit traffic but host no victims.

    Raises
    ------
    TopologyError
        If there are no edge routers, or some host is unreachable from
        every edge router.
    """
    if not roles.edge_routers:
        raise TopologyError("cannot partition subnets without edge routers")

    subnet_of = [NO_SUBNET] * topology.num_nodes
    queue: deque[int] = deque()
    for subnet_id, router in enumerate(roles.edge_routers):
        subnet_of[router] = subnet_id
        queue.append(router)

    # Multi-source BFS.  Backbone nodes propagate subnet labels (a host
    # hanging off a backbone router still gets the nearest edge router's
    # subnet) but are relabeled as transit afterwards.
    while queue:
        node = queue.popleft()
        for neighbor in topology.neighbors(node):
            if subnet_of[neighbor] == NO_SUBNET:
                subnet_of[neighbor] = subnet_of[node]
                queue.append(neighbor)

    unreachable = [
        node
        for node in topology.nodes()
        if subnet_of[node] == NO_SUBNET
        and roles.role_of(node) is not NodeRole.BACKBONE
    ]
    if unreachable:
        raise TopologyError(
            f"{len(unreachable)} non-backbone nodes unreachable from every "
            f"edge router (first few: {unreachable[:5]})"
        )

    members: list[list[int]] = [[] for _ in roles.edge_routers]
    for node in topology.nodes():
        if roles.role_of(node) is NodeRole.BACKBONE:
            subnet_of[node] = NO_SUBNET
            continue
        members[subnet_of[node]].append(node)

    return SubnetMap(
        subnet_of=tuple(subnet_of),
        members=tuple(tuple(sorted(m)) for m in members),
        gateways=tuple(roles.edge_routers),
    )
