"""The simulated network: topology, roles, subnets and routing.

``Network`` is an immutable description of a scenario: which nodes are
backbone/edge/host, which hosts are infectable, the routing tables and
the one drop-tail bound every link queue has.  Defenses are plans
computed from it (:mod:`repro.simulator.defense`); the engines take a
plan next to the network, keep every packet, queue, counter and host
state of a run in their own arrays, and never write to it.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from ..topology.classify import NodeRole, RoleAssignment, classify_roles
from ..topology.graphs import Topology, TopologyError
from ..topology.powerlaw import barabasi_albert
from ..topology.star import StarTopology, star_graph
from ..topology.subnets import NO_SUBNET, SubnetMap, partition_subnets
from .routing import RoutingTables

__all__ = ["Network"]


@lru_cache(maxsize=64)
def _powerlaw_blueprint(
    num_nodes: int,
    edges_per_node: int,
    seed: int | None,
    backbone_fraction: float,
    edge_fraction: float,
) -> tuple[Topology, RoleAssignment, SubnetMap, RoutingTables]:
    """Shareable immutable pieces of a power-law scenario.

    Topology, roles, subnets and routing tables are pure functions of the
    generator parameters and never mutated by a simulation, so repeated
    runs over the same seed (the 10-run experiment protocol) reuse them
    instead of redoing 1,000 BFS traversals per run.
    """
    topology = barabasi_albert(num_nodes, edges_per_node, seed=seed)
    roles = classify_roles(
        topology,
        backbone_fraction=backbone_fraction,
        edge_fraction=edge_fraction,
    )
    subnets = partition_subnets(topology, roles)
    return topology, roles, subnets, RoutingTables(topology)


class Network:
    """A routed network of infectable hosts and bounded link queues.

    Use the factory classmethods — :meth:`from_powerlaw` for the paper's
    1,000-node Internet experiments, :meth:`from_star` for the Section 4
    star-topology study, or :meth:`from_topology` for custom graphs.
    """

    def __init__(
        self,
        topology: Topology,
        roles: RoleAssignment,
        subnets: SubnetMap | None,
        *,
        infectable: tuple[int, ...],
        max_queue: int = 100_000,
        routing: RoutingTables | None = None,
    ) -> None:
        if not infectable:
            raise TopologyError("a scenario needs at least one infectable host")
        max_queue = operator.index(max_queue)
        if max_queue <= 0:
            raise ValueError(f"max_queue must be positive, got {max_queue}")
        self.topology = topology
        self.roles = roles
        self.subnets = subnets
        self.routing = routing if routing is not None else RoutingTables(topology)
        #: Drop-tail bound of every directed link's queue, in packets.
        self.max_queue = max_queue
        #: "Is this node an infectable host", for membership tests.
        self.infectable_set: frozenset[int] = frozenset(infectable)
        self.infectable: tuple[int, ...] = tuple(sorted(self.infectable_set))

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------

    @classmethod
    def from_powerlaw(
        cls,
        num_nodes: int = 1000,
        *,
        edges_per_node: int = 2,
        seed: int | None = None,
        backbone_fraction: float = 0.05,
        edge_fraction: float = 0.10,
        infect_routers: bool = False,
    ) -> "Network":
        """The paper's Section 5 setup: BA power-law graph, 5%/10% roles.

        By default only end hosts are infectable (routers forward but are
        not victims); pass ``infect_routers=True`` to match a reading of
        the paper where every node is susceptible.
        """
        topology, roles, subnets, routing = _powerlaw_blueprint(
            num_nodes, edges_per_node, seed, backbone_fraction, edge_fraction
        )
        if infect_routers:
            infectable = tuple(topology.nodes())
        else:
            infectable = roles.hosts
        return cls(
            topology, roles, subnets, infectable=infectable, routing=routing
        )

    @classmethod
    def from_star(cls, num_nodes: int = 200) -> "Network":
        """The Section 4 star: hub is transit, all leaves are infectable."""
        star: StarTopology = star_graph(num_nodes)
        roles = RoleAssignment(
            roles=tuple(
                NodeRole.EDGE_ROUTER if node == star.hub else NodeRole.HOST
                for node in star.graph.nodes()
            ),
            backbone=(),
            edge_routers=(star.hub,),
            hosts=star.leaves,
        )
        subnets = partition_subnets(star.graph, roles)
        return cls(star.graph, roles, subnets, infectable=star.leaves)

    @classmethod
    def from_spec(cls, spec, *, seed: int | None = None) -> "Network":
        """Build a network from a declarative topology description.

        ``spec`` is any object with the :class:`repro.runner.spec.
        TopologySpec` attributes (``kind``, ``num_nodes``, and for
        power-law graphs ``edges_per_node`` / role fractions /
        ``infect_routers``); duck typing keeps the simulator layer free
        of a runner dependency.  ``seed`` overrides the spec's own seed —
        the hook worker processes use to resample topologies per run.
        """
        if spec.kind == "star":
            return cls.from_star(spec.num_nodes)
        if spec.kind == "powerlaw":
            return cls.from_powerlaw(
                spec.num_nodes,
                edges_per_node=spec.edges_per_node,
                seed=seed if seed is not None else spec.seed,
                backbone_fraction=spec.backbone_fraction,
                edge_fraction=spec.edge_fraction,
                infect_routers=spec.infect_routers,
            )
        raise TopologyError(f"unknown topology kind {spec.kind!r}")

    @classmethod
    def from_topology(
        cls,
        topology: Topology,
        *,
        backbone_fraction: float = 0.05,
        edge_fraction: float = 0.10,
        infect_routers: bool = False,
    ) -> "Network":
        """Wrap an arbitrary connected topology with the 5%/10% role split."""
        roles = classify_roles(
            topology,
            backbone_fraction=backbone_fraction,
            edge_fraction=edge_fraction,
        )
        subnets = partition_subnets(topology, roles)
        infectable = (
            tuple(topology.nodes()) if infect_routers else roles.hosts
        )
        return cls(topology, roles, subnets, infectable=infectable)

    # ------------------------------------------------------------------
    # Host/topology queries
    # ------------------------------------------------------------------

    @property
    def num_infectable(self) -> int:
        """Size of the susceptible population ``N``."""
        return len(self.infectable)

    def subnet_peers(self, node: int) -> tuple[int, ...]:
        """Infectable hosts sharing ``node``'s subnet, excluding ``node``."""
        if self.subnets is None:
            return ()
        subnet = self.subnets.subnet_of[node]
        if subnet == NO_SUBNET:
            return ()
        return tuple(
            peer
            for peer in self.subnets.members[subnet]
            if peer != node and peer in self.infectable_set
        )
