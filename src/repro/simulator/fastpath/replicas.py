"""Dynamic-quarantine deployments captured as replayable plans.

A quarantine deploy mutates the *network* (host throttles, link
buckets, forwarding budgets), which the replicas of a
:class:`~repro.simulator.fastpath.vector.VectorReplicaSimulation` share.
:func:`capture_deployment_plan` therefore performs one real deploy at
construction time, diffs the network, undoes everything, and returns a
:class:`DeploymentPlan`; a replica whose own detector fires replays the
plan onto its private row/transport state
(:meth:`HostArrays.activate_latent` +
:meth:`FastTransport.apply_limit_plan`) without touching the network.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..defense import DefenseDescriptor
from ..network import Network
from .transport import TransportLayout

__all__ = [
    "DeploymentPlan",
    "capture_deployment_plan",
]


@dataclass(frozen=True)
class DeploymentPlan:
    """One quarantine deployment, recorded as replayable data.

    ``link_idx`` indexes into the :class:`TransportLayout` link order
    (``sorted(network.links)``), so the plan applies directly to a
    transport's flat arrays.
    """

    descriptor: DefenseDescriptor
    #: Host scan throttles: ``(node, rate, burst)`` per filtered host.
    throttles: list[tuple[int, float, float]] = field(default_factory=list)
    link_idx: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    link_rates: np.ndarray = field(default_factory=lambda: np.zeros(0))
    link_bursts: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: Node forwarding budgets: ``node -> (rate, burst)``.
    budgets: dict[int, tuple[float, float]] = field(default_factory=dict)


def capture_deployment_plan(
    layout: TransportLayout,
    response: Callable[[Network], DefenseDescriptor],
) -> DeploymentPlan:
    """Deploy ``response`` on the layout's network once, record the
    diff against the layout's link buckets, and undo it.

    Deployers only ever *install* buckets (host throttles via
    :meth:`Host.install_throttle`, link limits via
    :meth:`Network.set_link_rate`, budgets via
    :meth:`Network.set_node_forward_budget`), so the diff is "which
    bucket objects changed identity".  Undo restores the exact prior
    host-throttle and budget objects; replaced link buckets are rebuilt
    at their prior rate/burst — equivalent, since buckets start empty
    and nothing ran between capture and undo.
    """
    network = layout.network
    hosts = network.hosts
    before_throttles = {
        node: hosts[node].scan_throttle for node in network.infectable
    }
    keys = layout.keys
    before_buckets = layout.link_buckets
    before_budgets = dict(network.forward_budgets)

    descriptor = response(network)

    throttles: list[tuple[int, float, float]] = []
    for node in network.infectable:
        bucket = hosts[node].scan_throttle
        if bucket is not before_throttles[node] and bucket is not None:
            throttles.append((node, bucket.rate, bucket.burst))
    link_idx: list[int] = []
    link_rates: list[float] = []
    link_bursts: list[float] = []
    for i, key in enumerate(keys):
        link = network.links[key]
        bucket = link.bucket
        if bucket is not before_buckets[i] and bucket is not None:
            link_idx.append(i)
            link_rates.append(bucket.rate)
            link_bursts.append(bucket.burst)
    budgets: dict[int, tuple[float, float]] = {}
    for node, bucket in network.forward_budgets.items():
        if before_budgets.get(node) is not bucket:
            budgets[node] = (bucket.rate, bucket.burst)

    # Undo, restoring prior object identity where the objects survive.
    for node, old in before_throttles.items():
        hosts[node].scan_throttle = old
    for i in link_idx:
        old_bucket = before_buckets[i]
        network.links[keys[i]].set_rate_limit(
            old_bucket.rate if old_bucket is not None else None
        )
    network.forward_budgets.clear()
    network.forward_budgets.update(before_budgets)

    return DeploymentPlan(
        descriptor=descriptor,
        throttles=throttles,
        link_idx=np.array(link_idx, dtype=np.int64),
        link_rates=np.array(link_rates, dtype=float),
        link_bursts=np.array(link_bursts, dtype=float),
        budgets=budgets,
    )
