"""The object-per-host reference engine, kept as a test oracle.

``repro`` has one exact engine: :class:`~repro.simulator.fastpath.
FastWormSimulation` (the *mirror*), which keeps host state in arrays and
link queues as bare destination ids.  This module keeps the engine it
replaced — one :class:`Host` object per host, one :class:`Packet` per
scan, queued on :class:`DirectedLink` objects and forwarded by
:meth:`ObjectNetwork.transmit_tick` — as an independent second
implementation that the differential tests hold the mirror to, bit for
bit.  It is the idiom of ``scan_one_host``
(``tests/throttle/test_replay.py``) and ``parent_matrix``
(``tests/simulator/test_routing_differential.py``): the slow, obvious
version lives next to the tests, not in ``src/``.

The :class:`~repro.simulator.network.Network` a run takes only
describes the scenario.  :class:`ObjectNetwork` builds the link and host
objects from one, installs defense plans on them and moves typed
packets hop by hop; everything else it reads from the description.

The per-tick pipeline follows the paper's ns-2 setup:

1. **scan** — every infected host emits scans at expected rate ``beta``
   per tick (subject to its host-level filter, if one is deployed), each
   addressed to a target chosen by the worm strategy;
2. **transmit** — every link forwards at most its rate limit's worth of
   queued packets one hop; leftovers stay queued;
3. **deliver** — infection packets arriving at susceptible hosts infect
   them;
4. **immunize** — the dynamic-quarantine control loop (when configured)
   and delayed patching run;
5. **observe** — the recorder samples the state by walking every host.

:func:`run_oracle` is the oracle counterpart of
:func:`repro.runner.build.execute_run` for the specs the exact engine
runs.  The module also holds the host and link walks only the oracle
and the tests read: state counts, rate-limited links, queued packets,
the per-link histograms and the host scan throttle; :func:`as_built`,
everything a network holds, for the checks that runs leave it as
built; and :func:`result_state`, which reads a finished run in one
form whether the oracle left it on the objects or an engine in its
arrays.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.models.base import Trajectory
from repro.observability.instrumentation import (
    Instrumentation,
    InstrumentationOptions,
)
from repro.observability.stats import histogram
from repro.observability.trace import tick_record
from repro.runner import build
from repro.runner.results import RunMetrics, RunResult
from repro.runner.spec import RunSpec
from repro.simulator.defense import DefensePlan
from repro.simulator.dynamic import DynamicQuarantine
from repro.simulator.engine import Phase, TickSimulation
from repro.simulator.immunization import ImmunizationPolicy
from repro.simulator.links import TokenBucket
from repro.simulator.network import Network
from repro.simulator.observers import CurveRecorder
from repro.simulator.worms import WormStrategy, scans_this_tick
from repro.topology.graphs import TopologyError
from repro.topology.subnets import NO_SUBNET

__all__ = [
    "DirectedLink",
    "HOST_STATES",
    "Host",
    "HostState",
    "ObjectNetwork",
    "Packet",
    "PacketKind",
    "ImmunizationProcess",
    "SamplingRecorder",
    "WormSimulation",
    "allow_scan",
    "as_built",
    "count_states",
    "immunize",
    "infect",
    "infected_at_row",
    "drop_histogram",
    "link_keys",
    "last_sample",
    "queue_histogram",
    "rate_limited_links",
    "result_state",
    "run_oracle",
    "tick_throttle",
    "total_queued",
]


# ----------------------------------------------------------------------
# The typed-packet object model
# ----------------------------------------------------------------------


class PacketKind(Enum):
    """What a packet is trying to do when it arrives."""

    #: A worm scan/exploit packet; infects a susceptible destination.
    INFECTION = "infection"
    #: Background traffic; used by the legitimate-traffic-impact ablation.
    LEGITIMATE = "legitimate"


@dataclass(slots=True)
class Packet:
    """One packet in flight.

    ``src`` and ``dst`` are the origin and final destination nodes,
    ``created_tick`` the tick it entered the network and ``hops`` the
    links it has traversed so far (updated by the links).
    """

    src: int
    dst: int
    kind: PacketKind
    created_tick: int
    hops: int = 0


class HostState(Enum):
    """Epidemiological state of a host."""

    SUSCEPTIBLE = "susceptible"
    INFECTED = "infected"
    IMMUNE = "immune"


@dataclass
class Host:
    """One infectable end system.

    ``subnet`` is ``-1`` for hosts outside any subnet; ``infected_at``
    and ``immunized_at`` are ``None`` until the transition happens.
    ``scan_throttle`` is the host-level rate-limiting filter
    (Williamson-style): a token bucket capping how many scans the host
    may emit per tick, ``None`` when unthrottled.
    """

    node: int
    subnet: int = -1
    state: HostState = HostState.SUSCEPTIBLE
    infected_at: int | None = None
    immunized_at: int | None = None
    scan_throttle: TokenBucket | None = field(default=None, repr=False)


@dataclass
class LinkStats:
    """Per-link counters for the experiment reports."""

    forwarded: int = 0
    dropped: int = 0
    enqueued: int = 0
    peak_queue: int = 0
    #: Drained packets pushed back by a downstream forwarding budget.
    requeued: int = 0


class DirectedLink:
    """One direction of a network link, with optional rate limiting.

    Packets are offered to the link's FIFO queue and drained by the
    transmit phase: an unlimited link forwards everything, a limited link
    forwards while its token bucket has credit.  The queue is bounded
    (drop-tail) so pathological scenarios cannot exhaust memory; drops are
    counted, mirroring what a real router under worm load would do.
    """

    def __init__(
        self,
        src: int,
        dst: int,
        *,
        rate_limit: float | None = None,
        max_queue: int = 100_000,
    ) -> None:
        if max_queue <= 0:
            raise ValueError(f"max_queue must be positive, got {max_queue}")
        self.src = src
        self.dst = dst
        self._bucket = TokenBucket(rate_limit) if rate_limit is not None else None
        self._queue: deque[Packet] = deque()
        self._max_queue = max_queue
        self.stats = LinkStats()

    @property
    def is_rate_limited(self) -> bool:
        """Whether this direction carries a rate limit."""
        return self._bucket is not None

    @property
    def rate_limit(self) -> float | None:
        """Configured rate in packets/tick, or ``None`` if unlimited."""
        return self._bucket.rate if self._bucket else None

    @property
    def bucket(self) -> TokenBucket | None:
        """The installed token bucket, or ``None`` if unlimited."""
        return self._bucket

    @property
    def max_queue(self) -> int:
        """Drop-tail queue bound in packets."""
        return self._max_queue

    @property
    def queue_length(self) -> int:
        """Packets currently waiting on this link."""
        return len(self._queue)

    def set_rate_limit(
        self, rate: float | None, burst: float | None = None
    ) -> None:
        """Install (or remove, with ``None``) a rate limit on this link."""
        self._bucket = TokenBucket(rate, burst) if rate is not None else None

    def offer(self, packet: Packet) -> bool:
        """Queue a packet for transmission; False if drop-tail discarded it."""
        if len(self._queue) >= self._max_queue:
            self.stats.dropped += 1
            return False
        self._queue.append(packet)
        self.stats.enqueued += 1
        if len(self._queue) > self.stats.peak_queue:
            self.stats.peak_queue = len(self._queue)
        return True

    def requeue_front(self, packet: Packet) -> None:
        """Return an already-drained packet to the head of the queue.

        Used when a downstream node's forwarding budget blocks a packet
        after the link itself released it: the packet keeps its FIFO slot
        and retries next tick.  The hop counted by :meth:`drain` is
        reverted.
        """
        packet.hops -= 1
        self.stats.forwarded -= 1
        self.stats.requeued += 1
        self._queue.appendleft(packet)

    def drain(self) -> list[Packet]:
        """Forward this tick's worth of packets (token-bucket limited)."""
        if self._bucket is not None:
            self._bucket.refill()
        delivered: list[Packet] = []
        while self._queue:
            if self._bucket is not None and not self._bucket.try_consume():
                break
            packet = self._queue.popleft()
            packet.hops += 1
            delivered.append(packet)
            self.stats.forwarded += 1
        return delivered


@dataclass
class NetworkStats:
    """Aggregate delivery counters."""

    packets_injected: int = 0
    packets_delivered: int = 0
    packets_dropped: int = 0


def link_keys(network: Network) -> list[tuple[int, int]]:
    """Every directed link as ``(u, v)``, in edge order.

    ``(u, v)`` then ``(v, u)`` for each edge of ``topology.edges``: the
    order the engines list per-link results and histogram buckets in.
    """
    return [
        key for u, v in network.topology.edges for key in ((u, v), (v, u))
    ]


class ObjectNetwork:
    """A network's link and host objects, and the typed-packet sweep.

    Built from a :class:`~repro.simulator.network.Network`: one
    :class:`DirectedLink` per directed link in edge order, each bounded
    by the network's ``max_queue``, and one susceptible :class:`Host`
    per infectable node.  Attributes it does not define (topology,
    roles, subnets, routing, ``infectable``...) are the description's,
    so worms and recorders take it in place of the network.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self.links: dict[tuple[int, int], DirectedLink] = {
            (u, v): DirectedLink(u, v, max_queue=network.max_queue)
            for u, v in link_keys(network)
        }
        subnet_of = (
            network.subnets.subnet_of if network.subnets is not None else None
        )
        self.hosts: dict[int, Host] = {
            node: Host(
                node=node,
                subnet=subnet_of[node] if subnet_of is not None else NO_SUBNET,
            )
            for node in network.infectable
        }
        #: Node-level forwarding budgets (hub rate limiting); keyed by node.
        self.forward_budgets: dict[int, TokenBucket] = {}
        self.stats = NetworkStats()

    def __getattr__(self, name: str):
        return getattr(self.network, name)

    def host(self, node: int) -> Host:
        """The :class:`Host` for an infectable node."""
        return self.hosts[node]

    def link(self, u: int, v: int) -> DirectedLink:
        """The directed link u→v."""
        try:
            return self.links[(u, v)]
        except KeyError:
            raise TopologyError(f"no link {u}->{v} in topology") from None

    def install_plan(self, plan: DefensePlan) -> None:
        """Put a plan's filters on the link and host objects.

        Each filter gets a fresh, empty :class:`TokenBucket`, as the
        engines apply a plan to their arrays.
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


# ----------------------------------------------------------------------
# Network and host queries
# ----------------------------------------------------------------------


def infect(host: Host, tick: int) -> bool:
    """S → I; True if ``host`` was susceptible and is now infected.

    Infection attempts against infected or immune hosts are wasted
    scans (the common case for a random worm late in an outbreak).
    """
    if host.state is not HostState.SUSCEPTIBLE:
        return False
    host.state = HostState.INFECTED
    host.infected_at = tick
    return True


def immunize(host: Host, tick: int) -> bool:
    """S/I → R; True if ``host`` was not immune yet.

    Both susceptible and infected hosts can be patched: the paper's
    dynamic-immunization model removes either kind from play.
    """
    if host.state is HostState.IMMUNE:
        return False
    host.state = HostState.IMMUNE
    host.immunized_at = tick
    return True


def count_states(network: ObjectNetwork) -> tuple[int, int, int]:
    """(susceptible, infected, immune) counts, by walking every host."""
    susceptible = infected = immune = 0
    for host in network.hosts.values():
        if host.state is HostState.SUSCEPTIBLE:
            susceptible += 1
        elif host.state is HostState.INFECTED:
            infected += 1
        else:
            immune += 1
    return susceptible, infected, immune


def rate_limited_links(network: ObjectNetwork) -> list[DirectedLink]:
    """All directed links that currently carry a rate limit."""
    return [link for link in network.links.values() if link.is_rate_limited]


def total_queued(network: ObjectNetwork) -> int:
    """Packets queued on any directed link, by walking the links."""
    return sum(link.queue_length for link in network.links.values())


def queue_histogram(network: ObjectNetwork) -> dict[str, int]:
    """Distribution of per-link *peak* queue depths, from the link objects."""
    return histogram(
        link.stats.peak_queue for link in network.links.values()
    )


def drop_histogram(network: ObjectNetwork) -> dict[str, int]:
    """Distribution of per-link drop-tail discard counts, from the links."""
    return histogram(link.stats.dropped for link in network.links.values())


def as_built(network: Network) -> tuple:
    """Everything a network holds, copied out of reach of later writes.

    Its attribute names, the topology's edges, roles, subnets, the
    infectable hosts, the routing arrays and link weights, and the
    queue bound.
    """
    routing = network.routing
    src = routing.link_src.tolist()
    dst = routing.link_dst.tolist()
    return (
        sorted(vars(network)),
        network.topology.edges,
        network.roles,
        network.subnets,
        network.infectable,
        network.infectable_set,
        src,
        dst,
        routing.next_link.tobytes(),
        [routing.link_weight(u, v) for u, v in zip(src, dst)],
        network.max_queue,
    )


#: :class:`HostState` by the engines' status code.
HOST_STATES = (HostState.SUSCEPTIBLE, HostState.INFECTED, HostState.IMMUNE)


def result_state(network: Network | ObjectNetwork, run=None) -> dict:
    """Everything the results layer reads of a finished run.

    ``"stats"`` holds the injected, delivered and dropped packet totals;
    ``"hosts"`` maps each infectable node to its state and infection and
    patch ticks; ``"links"`` maps each link key, in edge order
    (:func:`link_keys`), to its forwarded, dropped, enqueued, peak,
    requeued and residual queued counts.  Without ``run`` these are
    read off the :class:`ObjectNetwork` the oracle ran on.  With a
    :class:`~repro.simulator.fastpath.FastWormSimulation` or a vector
    :class:`~repro.simulator.fastpath.vector.ReplicaState` they are
    read from the run's host row and transport, in the same form.
    """
    if run is None:
        stats = network.stats
        return {
            "stats": (
                stats.packets_injected,
                stats.packets_delivered,
                stats.packets_dropped,
            ),
            "hosts": {
                node: (host.state, host.infected_at, host.immunized_at)
                for node, host in sorted(network.hosts.items())
            },
            "links": {
                key: (
                    link.stats.forwarded,
                    link.stats.dropped,
                    link.stats.enqueued,
                    link.stats.peak_queue,
                    link.stats.requeued,
                    link.queue_length,
                )
                for key, link in network.links.items()
            },
        }
    row = getattr(run, "replica", 0)
    hosts = run.hosts
    status, infected_at, immunized_at = (
        array[row].tolist()
        for array in (hosts.status, hosts.infected_at, hosts.immunized_at)
    )
    transport = run.transport
    columns = zip(*(array.tolist() for array in transport.link_arrays()))
    return {
        "stats": (
            transport.injected,
            transport.delivered,
            transport.dropped_total,
        ),
        "hosts": {
            node: (
                HOST_STATES[status[node]],
                infected_at[node] if infected_at[node] >= 0 else None,
                immunized_at[node] if immunized_at[node] >= 0 else None,
            )
            for node in network.infectable
        },
        "links": dict(zip(link_keys(network), columns)),
    }


def infected_at_row(network: ObjectNetwork) -> np.ndarray:
    """The hosts' infection ticks by node (-1: never), as engines keep them."""
    row = np.full(network.topology.num_nodes, -1, dtype=np.int64)
    for node, host in network.hosts.items():
        if host.infected_at is not None:
            row[node] = host.infected_at
    return row


def last_sample(
    recorder: CurveRecorder,
) -> tuple[int, int, int, int, int] | None:
    """A recorder's latest ``(tick, S, I, R, ever_infected)`` row.

    ``None`` before the first sample.
    """
    if not recorder.num_samples:
        return None
    return (
        recorder._ticks[-1],
        recorder._susceptible[-1],
        recorder._infected[-1],
        recorder._immune[-1],
        recorder._ever_infected[-1],
    )


def allow_scan(host: Host) -> bool:
    """Whether the host-level filter permits emitting one more scan."""
    if host.scan_throttle is None:
        return True
    return host.scan_throttle.try_consume()


def tick_throttle(host: Host) -> None:
    """Advance the host filter's token bucket by one tick."""
    if host.scan_throttle is not None:
        host.scan_throttle.refill()


# ----------------------------------------------------------------------
# Recorder and patching
# ----------------------------------------------------------------------


class SamplingRecorder(CurveRecorder):
    """A :class:`CurveRecorder` that counts states by walking the hosts."""

    def sample(self, tick: int) -> None:
        """Record the network state at the end of ``tick``."""
        self.record_counts(tick, *count_states(self._network))


class ImmunizationProcess:
    """Executes an :class:`ImmunizationPolicy` against the host objects.

    The process starts at an absolute tick, or when the ever-infected
    fraction first reaches the policy's trigger; once active, every
    non-immune host (infected ones only when ``patch_infected``) is
    patched with probability ``mu`` each tick, one draw per eligible
    host in ``network.infectable`` order.
    """

    def __init__(
        self,
        network: ObjectNetwork,
        policy: ImmunizationPolicy,
        rng: random.Random,
    ) -> None:
        self._network = network
        self._policy = policy
        self._rng = rng
        self._active = False

    def _should_start(self, tick: int, ever_infected: int) -> bool:
        if self._policy.start_tick is not None:
            return tick >= self._policy.start_tick
        fraction = ever_infected / self._network.num_infectable
        return fraction >= self._policy.start_fraction

    def step(self, tick: int, ever_infected: int) -> None:
        """Run one tick of patching."""
        if not self._active:
            if not self._should_start(tick, ever_infected):
                return
            self._active = True
        rng = self._rng
        mu = self._policy.mu
        for node in self._network.infectable:
            host = self._network.host(node)
            if host.state is HostState.IMMUNE:
                continue
            if (
                host.state is HostState.INFECTED
                and not self._policy.patch_infected
            ):
                continue
            if rng.random() < mu:
                immunize(host, tick)


# ----------------------------------------------------------------------
# The reference engine
# ----------------------------------------------------------------------


class WormSimulation:
    """A single seeded worm-outbreak run on the host and link objects.

    Takes the arguments of :class:`~repro.simulator.fastpath.
    FastWormSimulation` (see its docstring for their semantics), builds
    the network's objects (:attr:`network`, an :class:`ObjectNetwork`)
    and moves one :class:`Packet` per scan through their links.  The
    defense plans, static and quarantine, are installed on the objects
    (:meth:`ObjectNetwork.install_plan`).
    """

    def __init__(
        self,
        network: Network,
        worm: WormStrategy,
        *,
        scan_rate: float,
        initial_infections: int = 1,
        immunization: ImmunizationPolicy | None = None,
        lan_delivery: bool = False,
        defense: DefensePlan | None = None,
        quarantine: DynamicQuarantine | None = None,
        seed: int | None = None,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        if scan_rate <= 0:
            raise ValueError(f"scan_rate must be positive, got {scan_rate}")
        if not 1 <= initial_infections < network.num_infectable:
            raise ValueError(
                f"initial_infections must be in [1, {network.num_infectable}),"
                f" got {initial_infections}"
            )
        network = ObjectNetwork(network)
        if defense is not None:
            network.install_plan(defense)
        #: The link and host objects the run moves and infects.
        self.network = network
        self.worm = worm
        self.scan_rate = float(scan_rate)
        self.lan_delivery = lan_delivery
        self.quarantine = quarantine
        self.rng = random.Random(seed)
        self.recorder = SamplingRecorder(network)
        self.instrumentation = instrumentation
        #: Same-subnet packets awaiting next-tick LAN delivery.
        self._lan_queue: list[Packet] = []
        self.immunization = (
            ImmunizationProcess(network, immunization, self.rng)
            if immunization is not None
            else None
        )

        seeds = self.rng.sample(list(network.infectable), initial_infections)
        for node in seeds:
            if infect(network.host(node), tick=0):
                self.recorder.note_infection()

        self._arrived: list[Packet] = []
        self._sim = TickSimulation(instrumentation=instrumentation)
        self._sim.on(Phase.SCAN, self._scan_phase)
        self._sim.on(Phase.TRANSMIT, self._transmit_phase)
        self._sim.on(Phase.DELIVER, self._deliver_phase)
        self._sim.on(Phase.IMMUNIZE, self._immunize_phase)
        self._sim.on(Phase.OBSERVE, self._observe_phase)
        self._sim.add_stop_condition(self._epidemic_over)

    def _scan_phase(self, tick: int) -> None:
        network = self.network
        rng = self.rng
        instr = self.instrumentation
        for node in network.infectable:
            host = network.hosts[node]
            tick_throttle(host)
            if host.state is not HostState.INFECTED:
                continue
            for _ in range(scans_this_tick(rng, self.scan_rate)):
                if not allow_scan(host):
                    if instr is not None:
                        instr.count("scans_throttled")
                    break
                target = self.worm.pick_target(rng, node, network)
                if target is None:
                    # The scan hit unused address space; the telescope
                    # may have seen it.
                    if self.quarantine is not None:
                        self.quarantine.note_missed_scan(rng)
                    if instr is not None:
                        instr.count("scans_dark")
                    continue
                packet = Packet(
                    src=node,
                    dst=target,
                    kind=PacketKind.INFECTION,
                    created_tick=tick,
                )
                if self.lan_delivery and self._same_subnet(node, target):
                    self._lan_queue.append(packet)
                    if instr is not None:
                        instr.count("scans_lan")
                else:
                    network.inject(packet)
                    if instr is not None:
                        instr.count("scans_routed")

    def _same_subnet(self, a: int, b: int) -> bool:
        subnets = self.network.subnets
        if subnets is None:
            return False
        subnet = subnets.subnet_of[a]
        return subnet != -1 and subnet == subnets.subnet_of[b]

    def _transmit_phase(self, tick: int) -> None:
        self._arrived = self.network.transmit_tick()
        if self._lan_queue:
            # LAN packets emitted last tick arrive now (one-tick latency).
            still_queued: list[Packet] = []
            for packet in self._lan_queue:
                if packet.created_tick < tick:
                    self._arrived.append(packet)
                else:
                    still_queued.append(packet)
            self._lan_queue = still_queued

    def _deliver_phase(self, tick: int) -> None:
        instr = self.instrumentation
        for packet in self._arrived:
            if packet.kind is not PacketKind.INFECTION:
                continue
            host = self.network.hosts.get(packet.dst)
            if host is not None and infect(host, tick):
                self.recorder.note_infection()
                if instr is not None:
                    instr.count("infections")
        self._arrived = []

    def _immunize_phase(self, tick: int) -> None:
        quarantine = self.quarantine
        if quarantine is not None and quarantine.step(tick):
            self.network.install_plan(quarantine.response(self.network))
        if self.immunization is not None:
            self.immunization.step(tick, self.recorder.ever_infected)

    def _observe_phase(self, tick: int) -> None:
        self.recorder.sample(tick)
        instr = self.instrumentation
        if instr is not None and instr.sink is not None:
            _, susceptible, infected, immune, ever = last_sample(
                self.recorder
            )
            stats = self.network.stats
            instr.emit(
                tick_record(
                    tick=tick,
                    susceptible=susceptible,
                    infected=infected,
                    immune=immune,
                    ever_infected=ever,
                    packets_injected=stats.packets_injected,
                    packets_delivered=stats.packets_delivered,
                    packets_dropped=stats.packets_dropped,
                    in_flight=total_queued(self.network),
                    lan_queue=len(self._lan_queue),
                )
            )

    def _epidemic_over(self, tick: int) -> bool:
        _, susceptible, infected, _immune, _ever = last_sample(self.recorder)
        if susceptible == 0:
            return True
        # With patching, the worm can die out before saturating.
        return infected == 0

    @property
    def ticks_executed(self) -> int:
        """Ticks run so far (stop conditions can end a run early)."""
        return self.recorder.num_samples

    def run(self, max_ticks: int) -> Trajectory:
        """Run up to ``max_ticks`` ticks and return the infection curve."""
        self._sim.run(max_ticks)
        return self.recorder.trajectory()


def run_oracle(
    spec: RunSpec, options: InstrumentationOptions | None = None
) -> RunResult:
    """:func:`~repro.runner.build.execute_run` on the reference engine.

    Builds the scenario with the runner's own builders, runs
    :class:`WormSimulation` on it and reads the link histograms off the
    link objects.  For every spec the exact engine runs, the result
    equals ``execute_run(spec, options)`` apart from the wall-clock
    fields (``wall_time`` and ``phase_seconds``).
    """
    start = time.perf_counter()
    network = build.build_network(spec.topology, run_seed=spec.seed)
    plan = build.apply_defense(network, spec.defense)
    instrumentation = Instrumentation.from_options(options)
    simulation = WormSimulation(
        network,
        build.build_worm(spec.worm),
        scan_rate=spec.scan_rate,
        initial_infections=spec.initial_infections,
        immunization=spec.immunization,
        lan_delivery=spec.lan_delivery,
        defense=plan,
        quarantine=(
            build.build_quarantine(spec.quarantine)
            if spec.quarantine is not None
            else None
        ),
        seed=spec.seed,
        instrumentation=instrumentation,
    )
    trajectory = simulation.run(spec.max_ticks)
    objects = simulation.network
    if spec.observe == "seed_subnets":
        trajectory = build._seed_subnet_curve(
            network, infected_at_row(objects), spec.max_ticks
        )
    stats = objects.stats
    metrics = RunMetrics(
        ticks_executed=simulation.ticks_executed,
        packets_injected=stats.packets_injected,
        packets_delivered=stats.packets_delivered,
        packets_dropped=stats.packets_dropped,
        queue_histogram=queue_histogram(objects),
        drop_histogram=drop_histogram(objects),
        wall_time=time.perf_counter() - start,
        phase_seconds=(
            dict(instrumentation.phase_seconds) if instrumentation else {}
        ),
        phase_calls=(
            dict(instrumentation.phase_calls) if instrumentation else {}
        ),
        counters=dict(instrumentation.counters) if instrumentation else {},
    )
    return RunResult(
        spec=spec,
        trajectory=trajectory,
        metrics=metrics,
        defense_name=plan.name,
        limited_links=plan.limited_links,
        throttled_hosts=plan.throttled_hosts,
        trace=build._trace(instrumentation),
    )
