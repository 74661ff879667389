"""Replica-batched execution: many seeded runs over one scenario build.

Monte-Carlo ensembles re-run *the same scenario* under different seeds.
Building that scenario — topology sampling, routing tables, defense
deployment — dominates small-run wall clock, and the per-run fast-engine
state (host arrays, transport layout) is mostly scenario-determined too.
:class:`ReplicaBatchSimulation` amortizes all of it: one network, one
:class:`~repro.simulator.fastpath.transport.TransportLayout`, one 2-D
:class:`~repro.simulator.fastpath.state.HostArrays` block with a
``(replica, host)`` axis — and ``R`` otherwise-ordinary
:class:`~repro.simulator.fastpath.engine.FastWormSimulation` instances
whose phase methods run against their own row of the shared state.

Because every replica executes the *same bound methods* a solo
``scan_mode="batch"`` run would execute, over state views that are
bit-for-bit the solo layout, a grouped replica's trajectory, final host
state, and link statistics are identical to running its spec alone
(asserted by the equivalence suite).

Dynamic quarantine is the one stateful wrinkle: a deploy mutates the
*network* (host throttles, link buckets, forwarding budgets), which
replicas share.  :func:`capture_deployment_plan` therefore performs one
real deploy at construction time, diffs the network, undoes everything,
and returns a :class:`DeploymentPlan`; a replica whose own detector
fires replays the plan onto its private row/transport state
(:meth:`HostArrays.activate_latent` +
:meth:`FastTransport.apply_limit_plan`) without touching the network.

One behavioral footnote: a solo run leaves deployed quarantine filters
on the network's host/link objects after it finishes; a grouped run
leaves the network undeployed (the plan was undone at capture).  Host
epidemic state, link statistics, and residual queues — everything the
results layer reads — are written back identically.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..defense import DefenseDescriptor
from ..dynamic import DynamicQuarantine
from ..immunization import ImmunizationPolicy
from ..links import LinkStats
from ..network import Network
from ..worms import WormStrategy
from .engine import WRITEBACK_MODES, FastWormSimulation
from .state import HostArrays
from .transport import FastTransport, TransportLayout

__all__ = [
    "DeploymentPlan",
    "capture_deployment_plan",
    "ReplicaBatchSimulation",
]


@dataclass(frozen=True)
class DeploymentPlan:
    """One quarantine deployment, recorded as replayable data.

    ``link_idx`` indexes into ``sorted(network.links)`` — the same
    ordering :class:`TransportLayout` uses — so the plan applies
    directly to a transport's flat arrays.
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
    network: Network,
    response: Callable[[Network], DefenseDescriptor],
) -> DeploymentPlan:
    """Deploy ``response`` once, record the diff, and undo it.

    Deployers only ever *install* buckets (host throttles via
    :meth:`Host.install_throttle`, link limits via
    :meth:`Network.set_link_rate`, budgets via
    :meth:`Network.set_node_forward_budget`), so the diff is "which
    bucket objects changed identity".  Undo restores the exact prior
    host-throttle and budget objects; replaced link buckets are rebuilt
    at their prior rate/burst — equivalent, since buckets start empty
    and nothing ran between capture and undo.
    """
    hosts = network.hosts
    before_throttles = {
        node: hosts[node].scan_throttle for node in network.infectable
    }
    keys = sorted(network.links)
    before_buckets = [network.links[key].bucket for key in keys]
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


class ReplicaBatchSimulation:
    """``R`` seeded batch-mode runs of one scenario, advanced together.

    Parameters mirror :class:`FastWormSimulation` where shared, plus:

    seeds:
        One RNG seed per replica; ``len(seeds)`` is the batch width.
    quarantine_factory:
        Zero-argument callable producing a fresh
        :class:`DynamicQuarantine` (telescope + detector + response);
        called once per replica, plus once at construction to capture
        the deployment plan.  Each replica's control loop runs
        independently — detection tick and deployment are per replica.
    writeback:
        ``"full"`` (default) writes host stamps, per-link stats and
        residual queues back onto the network before each harvest —
        the callback observes exactly what a solo run would have left
        behind.  ``"stats"`` restores only the aggregate packet
        counters (``network.stats``) and leaves hosts/links untouched:
        for harvests that read trajectories, totals, and the
        transport's arrays directly, it skips the per-replica
        whole-topology writeback walk entirely.

    The tick loop interleaves replicas: every live replica executes the
    standard five-phase tick (via its simulation's own bound phase
    methods) before any replica sees the next tick.  Replicas stop
    individually under the solo stop condition and are harvested —
    network writeback plus a caller callback — as they finish; the
    network's mutable result state (stats, link stats, queues) is reset
    between harvests so each callback observes exactly what a solo run
    of that replica would have left behind.
    """

    def __init__(
        self,
        network: Network,
        worm: WormStrategy,
        *,
        scan_rate: float,
        seeds: Sequence[int],
        initial_infections: int = 1,
        immunization: ImmunizationPolicy | None = None,
        lan_delivery: bool = False,
        quarantine_factory: Callable[[], DynamicQuarantine] | None = None,
        writeback: str = "full",
    ) -> None:
        if not seeds:
            raise ValueError("seeds must be non-empty")
        if writeback not in WRITEBACK_MODES:
            raise ValueError(
                f"writeback must be one of {WRITEBACK_MODES}, got {writeback!r}"
            )
        self.network = network
        self.replicas = len(seeds)
        self._writeback = writeback
        self._plan: DeploymentPlan | None = None
        if quarantine_factory is not None:
            probe = quarantine_factory()
            self._plan = capture_deployment_plan(network, probe.response)
        # Layout after the plan capture's undo: it must template the
        # pre-deploy (static defenses only) rate-limit state.
        self.layout = TransportLayout(network)
        self.hosts = HostArrays(network, replicas=self.replicas)
        if self._plan is not None and self._plan.throttles:
            self.hosts.register_latent_throttles(self._plan.throttles)
        self.hosts.shared_refill = True
        plan = self._plan
        self.sims: list[FastWormSimulation] = []
        for replica, seed in enumerate(seeds):
            self.hosts.set_active(replica)
            quarantine = None
            if quarantine_factory is not None:
                quarantine = quarantine_factory()
                # The replica replays the captured plan itself; the
                # response just reports what "deployed".
                quarantine.response = lambda _net: plan.descriptor
            self.sims.append(
                FastWormSimulation(
                    network,
                    worm,
                    scan_rate=scan_rate,
                    initial_infections=initial_infections,
                    immunization=immunization,
                    lan_delivery=lan_delivery,
                    quarantine=quarantine,
                    seed=seed,
                    scan_mode="batch",
                    hosts=self.hosts,
                    transport=FastTransport(network, layout=self.layout),
                )
            )
        stats = network.stats
        self._base_injected = stats.packets_injected
        self._base_delivered = stats.packets_delivered
        self._base_dropped = stats.packets_dropped
        self._touched: list[int] = []
        self._ran = False

    def _reset_network(self) -> None:
        """Clear the previous harvest's writeback off the network."""
        stats = self.network.stats
        stats.packets_injected = self._base_injected
        stats.packets_delivered = self._base_delivered
        stats.packets_dropped = self._base_dropped
        if self._touched:
            links = self.network.links
            keys = self.layout.keys
            for i in self._touched:
                link = links[keys[i]]
                link.stats = LinkStats()
                # Most touched links only carried counters; rebuilding
                # an empty deque per link per replica adds up.
                if link._queue:
                    link.load_queue([])
            self._touched = []

    def _finalize(
        self,
        replica: int,
        sim: FastWormSimulation,
        harvest: Callable[[int, FastWormSimulation], None],
    ) -> None:
        self._reset_network()
        full = self._writeback == "full"
        if full:
            sim.hosts.writeback(replica)
        self._touched = sim.transport.writeback(sim._final_tick, links=full)
        harvest(replica, sim)

    def run(
        self,
        max_ticks: int,
        harvest: Callable[[int, FastWormSimulation], None],
    ) -> None:
        """Advance every replica to completion, harvesting each.

        ``harvest(replica, sim)`` runs once per replica, immediately
        after that replica's state is written back onto the network;
        read trajectories, host state, and network statistics inside
        the callback — the next replica's harvest overwrites them.
        """
        if max_ticks <= 0:
            raise ValueError(
                f"max_ticks must be positive, got {max_ticks}"
            )
        if self._ran:
            raise RuntimeError(
                "replica batch already ran; build a fresh one"
            )
        self._ran = True
        hosts = self.hosts
        network = self.network
        plan = self._plan
        live = list(enumerate(self.sims))
        last_tick = max_ticks - 1
        for tick in range(max_ticks):
            # One cross-replica token refill per tick (per-replica
            # refills are no-ops under shared_refill); each bucket
            # column still refills exactly once before consumption.
            hosts.refill_all_throttles()
            still_running: list[tuple[int, FastWormSimulation]] = []
            for replica, sim in live:
                hosts.set_active(replica)
                sim._scan_phase_batch(tick)
                sim._transmit_phase(tick)
                sim._deliver_phase(tick)
                # The immunize phase, replica-owned: the solo path's
                # sync_throttles()/sync_limits() re-reads the network,
                # which stays undeployed here — replay the plan onto
                # this replica's private state instead.
                quarantine = sim.quarantine
                if quarantine is not None and quarantine.step(
                    tick, network
                ):
                    hosts.activate_latent(replica)
                    if plan is not None:
                        sim.transport.apply_limit_plan(
                            plan.link_idx,
                            plan.link_rates,
                            plan.link_bursts,
                            plan.budgets,
                        )
                if sim.immunization is not None:
                    sim.immunization.step(
                        tick, sim.recorder.ever_infected, hosts
                    )
                sim._observe_phase(tick)
                if sim._epidemic_over(tick) or tick == last_tick:
                    self._finalize(replica, sim, harvest)
                else:
                    still_running.append((replica, sim))
            live = still_running
            if not live:
                break
