"""Tests for subnet partitioning behind edge routers."""

from __future__ import annotations

import pytest

from repro.simulator.network import Network
from repro.topology.classify import NodeRole, RoleAssignment, classify_roles
from repro.topology.graphs import Topology, TopologyError
from repro.topology.powerlaw import barabasi_albert
from repro.topology.subnets import NO_SUBNET, partition_subnets


def manual_roles(topology: Topology, edge_routers: tuple[int, ...],
                 backbone: tuple[int, ...] = ()) -> RoleAssignment:
    roles = [NodeRole.HOST] * topology.num_nodes
    for node in backbone:
        roles[node] = NodeRole.BACKBONE
    for node in edge_routers:
        roles[node] = NodeRole.EDGE_ROUTER
    hosts = tuple(
        n for n in topology.nodes()
        if n not in edge_routers and n not in backbone
    )
    return RoleAssignment(
        roles=tuple(roles),
        backbone=backbone,
        edge_routers=edge_routers,
        hosts=hosts,
    )


class TestPartitionSubnets:
    def test_simple_two_subnets(self):
        # 0 -- 1 (routers) with hosts 2,3 on 0 and 4 on 1.
        graph = Topology(5, [(0, 1), (0, 2), (0, 3), (1, 4)])
        roles = manual_roles(graph, edge_routers=(0, 1))
        subnets = partition_subnets(graph, roles)
        assert subnets.num_subnets == 2
        assert subnets.subnet_of[2] == subnets.subnet_of[0]
        assert subnets.subnet_of[4] == subnets.subnet_of[1]
        assert subnets.members[0] == (0, 2, 3)
        assert subnets.members[1] == (1, 4)

    def test_nearest_router_wins(self):
        # host 4 is adjacent to router 1 but two hops from router 0.
        graph = Topology(5, [(0, 2), (2, 4), (1, 4), (0, 1), (0, 3)])
        roles = manual_roles(graph, edge_routers=(0, 1))
        subnets = partition_subnets(graph, roles)
        assert subnets.subnet_of[4] == subnets.subnet_of[1]

    def test_tie_breaks_to_lowest_router(self):
        # host 2 adjacent to both routers.
        graph = Topology(3, [(0, 2), (1, 2), (0, 1)])
        roles = manual_roles(graph, edge_routers=(0, 1))
        subnets = partition_subnets(graph, roles)
        assert subnets.subnet_of[2] == 0

    def test_backbone_is_transit(self):
        graph = Topology(4, [(0, 1), (1, 2), (2, 3)])
        roles = manual_roles(graph, edge_routers=(0,), backbone=(1,))
        subnets = partition_subnets(graph, roles)
        assert subnets.subnet_of[1] == NO_SUBNET
        # Host 2 reaches router 0 through the backbone node.
        assert subnets.subnet_of[2] == 0
        assert subnets.subnet_of[3] == 0

    def test_members_are_router_and_hosts(self):
        graph = Topology(4, [(0, 1), (0, 2), (0, 3)])
        roles = manual_roles(graph, edge_routers=(0,))
        subnets = partition_subnets(graph, roles)
        assert subnets.members[subnets.subnet_of[1]] == (0, 1, 2, 3)

    def test_peers_of(self):
        """A host's subnet peers are the other infectable members."""
        graph = Topology(4, [(0, 1), (0, 2), (0, 3)])
        roles = manual_roles(graph, edge_routers=(0,))
        subnets = partition_subnets(graph, roles)
        network = Network(graph, roles, subnets, infectable=roles.hosts)
        assert network.subnet_peers(1) == (2, 3)
        assert network.subnet_peers(3) == (1, 2)

    def test_peers_of_transit_is_empty(self):
        graph = Topology(4, [(0, 1), (1, 2), (2, 3)])
        roles = manual_roles(graph, edge_routers=(0,), backbone=(1,))
        subnets = partition_subnets(graph, roles)
        assert all(1 not in members for members in subnets.members)
        network = Network(graph, roles, subnets, infectable=roles.hosts)
        assert network.subnet_peers(1) == ()
        assert network.subnet_peers(2) == (3,)

    def test_requires_edge_routers(self):
        graph = Topology(3, [(0, 1), (1, 2)])
        roles = manual_roles(graph, edge_routers=())
        with pytest.raises(TopologyError, match="without edge routers"):
            partition_subnets(graph, roles)

    def test_unreachable_host_rejected(self):
        graph = Topology(4, [(0, 1), (2, 3)])
        roles = manual_roles(graph, edge_routers=(0,))
        with pytest.raises(TopologyError, match="unreachable"):
            partition_subnets(graph, roles)

    def test_powerlaw_partition_covers_all_non_backbone(self):
        graph = barabasi_albert(400, 2, seed=8)
        roles = classify_roles(graph)
        subnets = partition_subnets(graph, roles)
        for node in graph.nodes():
            if roles.role_of(node) is NodeRole.BACKBONE:
                assert subnets.subnet_of[node] == NO_SUBNET
            else:
                assert subnets.subnet_of[node] != NO_SUBNET
        # Members lists are a partition of the non-backbone nodes.
        members = [n for subnet in subnets.members for n in subnet]
        assert len(members) == len(set(members))
        assert len(members) == 400 - len(roles.backbone)
