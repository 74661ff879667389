"""The exact engine (the *mirror*): per-host semantics over flat arrays.

:class:`FastWormSimulation` runs one seeded outbreak through the
paper's ns-2-style tick pipeline on a
:class:`~repro.simulator.engine.TickSimulation`:

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

Host state lives in :class:`~repro.simulator.fastpath.state.HostArrays`
(:attr:`FastWormSimulation.hosts`) and packet transport in
:class:`~repro.simulator.fastpath.transport.MirrorTransport`
(:attr:`FastWormSimulation.transport`), built from the network and the
static defense plan; a quarantine's plan deploys onto them, and they
are where a finished run's results are read, since the network is only
the run's input.  A run is a pure function of its arguments and seed:
it draws from the run RNG in the order of the object-per-host
formulation — one host object per host, one packet object per scan —
that the test suite keeps as its oracle (``tests/oracle.py``) and
matches bit for bit: trajectories, traces, counters, final host and
link state.  Batch-sampled runs go through
:class:`~repro.simulator.fastpath.vector.VectorReplicaSimulation`
instead.

The draw order:

* constructor: ``random.Random(seed)`` → immunization process (no
  draws) → ``rng.sample`` for the initial infections;
* scan phase: hosts are visited in sorted order and only *infected*
  hosts draw (``scans_this_tick`` then one draw per scan from the worm /
  telescope); since ``Network.infectable`` is sorted, walking the
  sorted infected index gives that sequence without an O(N) walk of
  the susceptible hosts;
* immunization: one draw per patch-eligible host in
  ``network.infectable`` order, read from the status array.

Host throttles refill vectorized before the scan loop instead of
interleaved with it; buckets are per-host independent and each still
refills exactly once before its own consumption.
"""

from __future__ import annotations

import random

from ...models.base import Trajectory
from ...observability.instrumentation import Instrumentation
from ...observability.trace import tick_record
from ..defense import DefensePlan
from ..dynamic import DynamicQuarantine
from ..engine import Phase, TickSimulation
from ..immunization import ImmunizationPolicy
from ..network import Network
from ..observers import CurveRecorder
from ..worms import WormStrategy, scans_this_tick
from .state import IMMUNE, INFECTED, HostArrays
from .transport import MirrorTransport

__all__ = ["FastWormSimulation"]


class FastImmunization:
    """Executes an :class:`ImmunizationPolicy` on :class:`HostArrays`.

    Patching starts at the policy's tick, or the first tick the
    ever-infected fraction reaches its trigger; then it draws once per
    patch-eligible host per tick, in ``network.infectable`` order.
    """

    def __init__(
        self,
        network: Network,
        policy: ImmunizationPolicy,
        rng: random.Random,
    ) -> None:
        self._network = network
        self._policy = policy
        self._rng = rng
        self._active = False
        self.started_at: int | None = None
        self.patched = 0

    @property
    def is_active(self) -> bool:
        """Whether patching has begun."""
        return self._active

    def _should_start(self, tick: int, ever_infected: int) -> bool:
        if self._policy.start_tick is not None:
            return tick >= self._policy.start_tick
        fraction = ever_infected / self._network.num_infectable
        return fraction >= self._policy.start_fraction

    def step(self, tick: int, ever_infected: int, hosts: HostArrays) -> int:
        """Run one tick of patching; returns the number patched this tick."""
        if not self._active:
            if not self._should_start(tick, ever_infected):
                return 0
            self._active = True
            self.started_at = tick
        rng = self._rng
        mu = self._policy.mu
        patch_infected = self._policy.patch_infected
        status = hosts.status_row
        patched_now = 0
        for node in self._network.infectable:
            code = status[node]
            if code == IMMUNE:
                continue
            if code == INFECTED and not patch_infected:
                continue
            if rng.random() < mu:
                hosts.immunize(node, tick)
                patched_now += 1
        self.patched += patched_now
        return patched_now


class FastWormSimulation:
    """A single seeded worm-outbreak run on the exact engine.

    Parameters
    ----------
    network:
        The network to attack.
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
    defense:
        Optional static :class:`~repro.simulator.defense.DefensePlan`,
        in force from tick 0.
    quarantine:
        Optional :class:`~repro.simulator.dynamic.DynamicQuarantine`
        control loop: missed scans feed its telescope, and once its
        detector fires (plus reaction delay) its response's plan
        deploys mid-run.
    seed:
        Seed for this run's private RNG; same seed, same run.
    instrumentation:
        Optional :class:`~repro.observability.Instrumentation`: the tick
        engine times each phase into it, the phases count scan outcomes
        on it, and the observe phase emits one structured trace record
        per tick to its sink.  ``None`` (the default) keeps the run on
        the uninstrumented path.
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
        self.network = network
        self.worm = worm
        self.scan_rate = float(scan_rate)
        self.lan_delivery = lan_delivery
        self.quarantine = quarantine
        self.rng = random.Random(seed)
        self.recorder = CurveRecorder(network)
        self.instrumentation = instrumentation
        self.hosts = HostArrays(network, defense=defense)
        self.transport = MirrorTransport(network, defense)
        #: LAN ring: scans land in ``_lan_pending`` and rotate to
        #: ``_lan_ready`` at transmit, delivering one tick later.
        self._lan_pending: list[int] = []
        self._lan_ready: list[int] = []

        seeds = self.rng.sample(list(network.infectable), initial_infections)
        for node in seeds:
            if self.hosts.infect(node, tick=0):
                self.recorder.note_infection()

        # The immunization process consumes no randomness at
        # construction.
        self.immunization = (
            FastImmunization(network, immunization, self.rng)
            if immunization is not None
            else None
        )
        self._arrived: list[int] = []
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
        hosts = self.hosts
        hosts.refill_throttles()
        rng = self.rng
        worm = self.worm
        network = self.network
        quarantine = self.quarantine
        transport = self.transport
        scan_rate = self.scan_rate
        lan = self.lan_delivery
        subnets = network.subnets
        subnet_of = subnets.subnet_of if subnets is not None else None
        throttle_pos = hosts.throttle_pos
        tokens = hosts.throttle_tokens
        throttled = dark = lan_count = routed = 0
        for node in hosts.infected_sorted():
            pos = throttle_pos.get(node)
            for _ in range(scans_this_tick(rng, scan_rate)):
                if pos is not None:
                    if tokens[pos] + 1e-12 >= 1.0:
                        tokens[pos] -= 1.0
                    else:
                        throttled += 1
                        break
                target = worm.pick_target(rng, node, network)
                if target is None:
                    if quarantine is not None:
                        quarantine.note_missed_scan(rng)
                    dark += 1
                    continue
                if (
                    lan
                    and subnet_of is not None
                    and subnet_of[node] != -1
                    and subnet_of[node] == subnet_of[target]
                ):
                    self._lan_pending.append(target)
                    lan_count += 1
                else:
                    transport.inject(node, target)
                    routed += 1
        instr = self.instrumentation
        if instr is not None:
            if throttled:
                instr.count("scans_throttled", throttled)
            if dark:
                instr.count("scans_dark", dark)
            if lan_count:
                instr.count("scans_lan", lan_count)
            if routed:
                instr.count("scans_routed", routed)

    def _transmit_phase(self, tick: int) -> None:
        self._arrived = self.transport.transmit_tick()
        if self._lan_ready:
            self._arrived.extend(self._lan_ready)
        self._lan_ready = self._lan_pending
        self._lan_pending = []

    def _deliver_phase(self, tick: int) -> None:
        hosts = self.hosts
        infections = 0
        for dst in self._arrived:
            if hosts.infect(dst, tick):
                infections += 1
        if infections:
            self.recorder.note_infection(infections)
            if self.instrumentation is not None:
                self.instrumentation.count("infections", infections)
        self._arrived = []

    def _immunize_phase(self, tick: int) -> None:
        quarantine = self.quarantine
        if quarantine is not None and quarantine.step(tick):
            plan = quarantine.response(self.network)
            self.hosts.register_latent_throttles(plan.throttles)
            self.hosts.activate_latent(0)
            self.transport.apply_limit_plan(plan)
        if self.immunization is not None:
            self.immunization.step(
                tick, self.recorder.ever_infected, self.hosts
            )

    def _observe_phase(self, tick: int) -> None:
        hosts = self.hosts
        self.recorder.record_counts(
            tick, hosts.susceptible, hosts.infected, hosts.immune
        )
        instr = self.instrumentation
        if instr is not None and instr.sink is not None:
            transport = self.transport
            instr.emit(
                tick_record(
                    tick=tick,
                    susceptible=hosts.susceptible,
                    infected=hosts.infected,
                    immune=hosts.immune,
                    ever_infected=self.recorder.ever_infected,
                    packets_injected=transport.injected,
                    packets_delivered=transport.delivered,
                    packets_dropped=transport.dropped_total,
                    in_flight=transport.queued_total,
                    lan_queue=len(self._lan_ready),
                )
            )

    def _epidemic_over(self, tick: int) -> bool:
        hosts = self.hosts
        if hosts.susceptible == 0:
            return True
        return hosts.infected == 0

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    @property
    def ticks_executed(self) -> int:
        """Ticks run so far (stop conditions can end a run early)."""
        return self.recorder.num_samples

    def run(self, max_ticks: int) -> Trajectory:
        """Run up to ``max_ticks`` ticks and return the infection curve.

        Everything else the run produced stays where it ran: host state
        in :attr:`hosts`, packet totals and per-link results in
        :attr:`transport` (:meth:`~repro.simulator.fastpath.transport.
        FastTransport.link_arrays`).
        """
        self._sim.run(max_ticks)
        return self.recorder.trajectory()
