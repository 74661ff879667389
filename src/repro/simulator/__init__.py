"""Discrete-event packet-level worm simulator (the ns-2 substitute).

Build a :class:`Network` (star or power-law), optionally deploy a defense
from :mod:`repro.simulator.defense`, then run a :class:`WormSimulation`.
Seeded multi-run ensembles are described and averaged by
:mod:`repro.runner`.
"""

from .diagnostics import LinkHotspot, NetworkReport, network_report
from .dynamic import DynamicQuarantine
from .defense import (
    DefenseDescriptor,
    deploy_backbone_rate_limit,
    deploy_edge_rate_limit,
    deploy_host_rate_limit,
    deploy_hub_rate_limit,
    no_defense,
)
from .engine import Event, EventScheduler, Phase, SimulationError, TickSimulation
from .fastpath import FastWormSimulation
from .immunization import ImmunizationPolicy, ImmunizationProcess
from .links import DirectedLink, LinkStats, TokenBucket
from .network import Network, NetworkStats
from .nodes import Host, HostError, HostState
from .observers import CurveRecorder, average_trajectories
from .packet import Packet, PacketKind
from .routing import RoutingTables
from .simulation import WormSimulation
from .telescope import DetectionReport, ScanDetector, Telescope
from .worms import (
    LocalPreferentialWorm,
    RandomScanWorm,
    SequentialScanWorm,
    TopologicalWorm,
    WormStrategy,
    scans_this_tick,
)

__all__ = [
    "DefenseDescriptor",
    "deploy_backbone_rate_limit",
    "deploy_edge_rate_limit",
    "deploy_host_rate_limit",
    "deploy_hub_rate_limit",
    "no_defense",
    "Event",
    "EventScheduler",
    "Phase",
    "SimulationError",
    "TickSimulation",
    "ImmunizationPolicy",
    "ImmunizationProcess",
    "DirectedLink",
    "LinkStats",
    "TokenBucket",
    "Network",
    "NetworkStats",
    "Host",
    "HostError",
    "HostState",
    "CurveRecorder",
    "average_trajectories",
    "Packet",
    "PacketKind",
    "RoutingTables",
    "WormSimulation",
    "FastWormSimulation",
    "DynamicQuarantine",
    "LinkHotspot",
    "NetworkReport",
    "network_report",
    "DetectionReport",
    "ScanDetector",
    "Telescope",
    "LocalPreferentialWorm",
    "RandomScanWorm",
    "SequentialScanWorm",
    "TopologicalWorm",
    "WormStrategy",
    "scans_this_tick",
]
