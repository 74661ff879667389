"""The simulated network: topology + routing + links + hosts.

``Network`` owns everything static about a scenario — which nodes are
backbone/edge/host, which hosts are infectable, routing and per-link
queue bounds.  Defenses are plans computed from it
(:mod:`repro.simulator.defense`); the engines take a plan next to the
network and never write to it.  The link and host objects, with the
filters :meth:`Network.install_plan` puts on them and the typed-packet
sweep :meth:`Network.transmit_tick`, serve the test oracle and the
link-weight ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from ..topology.classify import NodeRole, RoleAssignment, classify_roles
from ..topology.graphs import Topology, TopologyError
from ..topology.powerlaw import barabasi_albert
from ..topology.star import StarTopology, star_graph
from ..topology.subnets import NO_SUBNET, SubnetMap, partition_subnets
from .links import DirectedLink, TokenBucket
from .nodes import Host
from .packet import Packet
from .routing import RoutingTables

if TYPE_CHECKING:
    from .defense import DefensePlan

__all__ = ["Network", "NetworkStats"]


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


@dataclass
class NetworkStats:
    """Aggregate delivery counters."""

    packets_injected: int = 0
    packets_delivered: int = 0
    packets_dropped: int = 0


class Network:
    """A routed network with rate-limitable links and infectable hosts.

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
        self.topology = topology
        self.roles = roles
        self.subnets = subnets
        self.routing = routing if routing is not None else RoutingTables(topology)
        self._max_queue = max_queue
        self.links: dict[tuple[int, int], DirectedLink] = {}
        for u, v in topology.edges:
            self.links[(u, v)] = DirectedLink(u, v, max_queue=max_queue)
            self.links[(v, u)] = DirectedLink(v, u, max_queue=max_queue)

        subnet_of = subnets.subnet_of if subnets is not None else None
        self.hosts: dict[int, Host] = {}
        for node in infectable:
            subnet = subnet_of[node] if subnet_of is not None else NO_SUBNET
            self.hosts[node] = Host(node=node, subnet=subnet)
        self.infectable: tuple[int, ...] = tuple(sorted(self.hosts))
        #: Node-level forwarding budgets (hub rate limiting); keyed by node.
        self.forward_budgets: dict[int, TokenBucket] = {}
        self.stats = NetworkStats()

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

    def host(self, node: int) -> Host:
        """The :class:`Host` for an infectable node."""
        return self.hosts[node]

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
            if peer != node and peer in self.hosts
        )

    # ------------------------------------------------------------------
    # Links and filters
    # ------------------------------------------------------------------

    def link(self, u: int, v: int) -> DirectedLink:
        """The directed link u→v."""
        try:
            return self.links[(u, v)]
        except KeyError:
            raise TopologyError(f"no link {u}->{v} in topology") from None

    def install_plan(self, plan: DefensePlan) -> None:
        """Put a plan's filters on the link and host objects.

        Each filter gets a fresh, empty :class:`TokenBucket`, as the
        engines apply a plan to their arrays.  Only the typed-packet
        sweep (:meth:`transmit_tick`) reads the objects' filters.
        """
        src = self.routing.link_src
        dst = self.routing.link_dst
        for slot, rate, burst in plan.links:
            self.links[(int(src[slot]), int(dst[slot]))].set_rate_limit(
                rate, burst
            )
        for node, rate, burst in plan.budgets:
            self.forward_budgets[node] = TokenBucket(rate, burst)
        for node, rate, burst in plan.throttles:
            self.hosts[node].scan_throttle = TokenBucket(rate, burst)

    # ------------------------------------------------------------------
    # Packet movement: typed packets hop by hop over the link objects
    # (the engines carry bare destinations in their own transports)
    # ------------------------------------------------------------------

    def inject(self, packet: Packet) -> None:
        """Enter a packet at its source, en route to ``packet.dst``."""
        self.stats.packets_injected += 1
        self._forward_from(packet.src, packet)

    def _forward_from(self, node: int, packet: Packet) -> None:
        next_hop = self.routing.next_hop(node, packet.dst)
        if not self.link(node, next_hop).offer(packet):
            self.stats.packets_dropped += 1

    def transmit_tick(self) -> list[Packet]:
        """Advance every link by one tick; returns packets that arrived.

        Each drained packet either reached its destination (returned for
        the deliver phase) or is re-queued on the next link of its path,
        subject to the forwarding node's budget when one is installed.
        Links are processed in sorted key order for determinism.
        """
        for bucket in self.forward_budgets.values():
            bucket.refill()
        arrived: list[Packet] = []
        for key in sorted(self.links):
            link = self.links[key]
            drained = link.drain()
            for index, packet in enumerate(drained):
                node = link.dst
                if node == packet.dst:
                    arrived.append(packet)
                    self.stats.packets_delivered += 1
                    continue
                budget = self.forward_budgets.get(node)
                if budget is not None and not budget.try_consume():
                    # Forwarding budget exhausted this tick: requeue this
                    # packet and everything drained behind it, preserving
                    # FIFO order; they retry next tick.
                    blocked = drained[index:]
                    for back in reversed(blocked):
                        link.requeue_front(back)
                    break
                self._forward_from(node, packet)
        return arrived
