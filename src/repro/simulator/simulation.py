"""The worm propagation simulation: wiring worms, defenses, and patching
into the tick engine.

One :class:`WormSimulation` is a single seeded run.  The per-tick pipeline
follows the paper's ns-2 setup:

1. **scan** — every infected host emits scans at expected rate ``beta``
   per tick (subject to its host-level filter, if one is deployed), each
   addressed to a target chosen by the worm strategy;
2. **transmit** — every link forwards at most its rate limit's worth of
   queued packets one hop; leftovers stay queued;
3. **deliver** — infection packets arriving at susceptible hosts infect
   them;
4. **immunize** — the dynamic-quarantine control loop (when configured)
   and delayed patching run;
5. **observe** — the recorder samples the state.
"""

from __future__ import annotations

import random

from ..models.base import Trajectory
from ..observability.instrumentation import Instrumentation
from ..observability.trace import tick_record
from .dynamic import DynamicQuarantine
from .engine import Phase, TickSimulation
from .immunization import ImmunizationPolicy, ImmunizationProcess
from .network import Network
from .observers import CurveRecorder
from .packet import Packet, PacketKind
from .worms import WormStrategy, scans_this_tick

__all__ = ["WormSimulation"]


class WormSimulation:
    """A single seeded worm-outbreak run on a configured network.

    Parameters
    ----------
    network:
        The (already defense-configured) network to attack.
    worm:
        Target-selection strategy.
    scan_rate:
        ``beta`` — expected scans per infected host per tick.
    initial_infections:
        Number of hosts infected at tick 0, chosen uniformly by ``seed``.
    immunization:
        Optional delayed-patching policy.
    lan_delivery:
        When true, scans aimed at a target in the *same subnet* are
        delivered over the local LAN (one tick, no routed links) instead
        of through the graph.  This models a subnet as a broadcast domain
        — the reason edge-router filters never see intra-subnet worm
        traffic (Sections 5.2/5.4).  Leave false for the star topology,
        where the hub *is* the local interconnect being rate limited.
    quarantine:
        Optional :class:`~repro.simulator.dynamic.DynamicQuarantine`
        control loop: missed scans feed its telescope, and once its
        detector fires (plus reaction delay) its response deploys filters
        mid-run.
    seed:
        Seed for this run's private RNG; same seed, same run.
    instrumentation:
        Optional :class:`~repro.observability.Instrumentation`: the tick
        engine times each phase into it, the phases count scan outcomes
        on it, and the observe phase emits one structured trace record
        per tick to its sink.  ``None`` (the default) keeps the run on
        the uninstrumented fast path.
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
        self.network = network
        self.worm = worm
        self.scan_rate = float(scan_rate)
        self.lan_delivery = lan_delivery
        self.quarantine = quarantine
        self.rng = random.Random(seed)
        self.recorder = CurveRecorder(network)
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
            if network.host(node).infect(tick=0):
                self.recorder.note_infection()

        self._arrived: list[Packet] = []
        self._sim = TickSimulation(instrumentation=instrumentation)
        self._sim.on(Phase.SCAN, self._scan_phase)
        self._sim.on(Phase.TRANSMIT, self._transmit_phase)
        self._sim.on(Phase.DELIVER, self._deliver_phase)
        self._sim.on(Phase.IMMUNIZE, self._immunize_phase)
        self._sim.on(Phase.OBSERVE, self._observe_phase)
        self._sim.add_stop_condition(self._epidemic_over)

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def _scan_phase(self, tick: int) -> None:
        network = self.network
        rng = self.rng
        instr = self.instrumentation
        for node in network.infectable:
            host = network.hosts[node]
            host.tick_throttle()
            if not host.is_infected:
                continue
            for _ in range(scans_this_tick(rng, self.scan_rate)):
                if not host.allow_scan():
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
            # LAN packets emitted last tick arrive now (one-tick latency);
            # partition in a single pass rather than scanning twice.
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
            if host is not None and host.infect(tick):
                self.recorder.note_infection()
                if instr is not None:
                    instr.count("infections")
        self._arrived = []

    def _immunize_phase(self, tick: int) -> None:
        if self.quarantine is not None:
            self.quarantine.step(tick, self.network)
        if self.immunization is not None:
            self.immunization.step(tick, self.recorder.ever_infected)

    def _observe_phase(self, tick: int) -> None:
        self.recorder.sample(tick)
        instr = self.instrumentation
        if instr is not None and instr.sink is not None:
            sample = self.recorder.last_sample()
            assert sample is not None  # sample() just ran
            _, susceptible, infected, immune, ever = sample
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
                    in_flight=self.network.total_queued(),
                    lan_queue=len(self._lan_queue),
                )
            )

    def _epidemic_over(self, tick: int) -> bool:
        # Stop conditions run after the observe phase, so the recorder's
        # latest sample is this tick's state — no O(N) host rescan needed.
        sample = self.recorder.last_sample()
        assert sample is not None  # observe ran earlier this tick
        _, susceptible, infected, _immune, _ever = sample
        if susceptible == 0:
            return True
        # With patching, the worm can die out before saturating.
        return infected == 0

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    @property
    def ticks_executed(self) -> int:
        """Ticks run so far (stop conditions can end a run early)."""
        return self.recorder.num_samples

    def run(self, max_ticks: int) -> Trajectory:
        """Run up to ``max_ticks`` ticks and return the infection curve."""
        self._sim.run(max_ticks)
        return self.recorder.trajectory()
