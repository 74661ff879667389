"""Tick-driven packet-level worm simulator (the ns-2 substitute).

Build a :class:`Network` (star or power-law), optionally plan a defense
with :mod:`repro.simulator.defense`, then run a
:class:`FastWormSimulation` on the network and the plan, the exact
engine (the vector engine in :mod:`repro.simulator.fastpath`
batch-samples large ensembles).  The network only describes the
scenario: a run keeps its host, packet and link state in its engine's
arrays, and the typed-packet object model the engines are held to is
the test suite's oracle (``tests/oracle.py``).  Seeded multi-run
ensembles are described and averaged by :mod:`repro.runner`.
"""

from .dynamic import DynamicQuarantine
from .defense import (
    DefensePlan,
    deploy_backbone_rate_limit,
    deploy_edge_rate_limit,
    deploy_host_rate_limit,
    deploy_hub_rate_limit,
    no_defense,
)
from .engine import Phase, SimulationError, TickSimulation
from .fastpath import FastWormSimulation
from .immunization import ImmunizationPolicy
from .links import TokenBucket
from .network import Network
from .observers import CurveRecorder, average_trajectories
from .routing import RoutingTables
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
    "DefensePlan",
    "deploy_backbone_rate_limit",
    "deploy_edge_rate_limit",
    "deploy_host_rate_limit",
    "deploy_hub_rate_limit",
    "no_defense",
    "Phase",
    "SimulationError",
    "TickSimulation",
    "ImmunizationPolicy",
    "TokenBucket",
    "Network",
    "CurveRecorder",
    "average_trajectories",
    "RoutingTables",
    "FastWormSimulation",
    "DynamicQuarantine",
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
