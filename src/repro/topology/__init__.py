"""Graph substrates: star graphs, power-law (BRITE-substitute) topologies,
degree-rank role classification, and subnet partitioning."""

from .classify import NodeRole, RoleAssignment, classify_roles
from .graphs import Edge, Topology, TopologyError
from .powerlaw import barabasi_albert, powerlaw_configuration
from .star import HUB_NODE, StarTopology, star_graph
from .subnets import NO_SUBNET, SubnetMap, partition_subnets

__all__ = [
    "Edge",
    "Topology",
    "TopologyError",
    "NodeRole",
    "RoleAssignment",
    "classify_roles",
    "barabasi_albert",
    "powerlaw_configuration",
    "HUB_NODE",
    "StarTopology",
    "star_graph",
    "NO_SUBNET",
    "SubnetMap",
    "partition_subnets",
]
