"""The mirror engine: reference semantics over flat arrays.

:class:`FastWormSimulation` is a drop-in replacement for
:class:`~repro.simulator.simulation.WormSimulation` — same constructor,
same five-phase tick pipeline on the same
:class:`~repro.simulator.engine.TickSimulation`, same stop condition,
same :class:`~repro.models.base.Trajectory` out — but host state lives
in :class:`~repro.simulator.fastpath.state.HostArrays` and packet
transport in :class:`~repro.simulator.fastpath.transport.FastTransport`.
Given the same arguments and seed, a run is *bit-identical* to the
reference engine — trajectories, traces, counters, final host and link
state.  Batch-sampled runs go through
:class:`~repro.simulator.fastpath.vector.VectorReplicaSimulation`
instead.

Bit-identical equivalence hinges on drawing from the run RNG in exactly
the reference order:

* constructor: ``random.Random(seed)`` → immunization process (no
  draws) → ``rng.sample`` for the initial infections;
* scan phase: the reference walks every infectable host in sorted order
  but only *infected* hosts draw (``scans_this_tick`` then one draw per
  scan from the worm / telescope); since ``Network.infectable`` is
  sorted, walking the sorted infected index reproduces the identical
  draw sequence while skipping the O(N) susceptible walk;
* immunization: the reference draws once per non-immune host in
  ``network.infectable`` order — the fast process walks the same tuple
  and consults the status array instead of the host objects.

Host throttles refill vectorized before the scan loop instead of
interleaved with it; buckets are per-host independent and each still
refills exactly once before its own consumption, so token trajectories
are bit-identical.
"""

from __future__ import annotations

import random

from ...models.base import Trajectory
from ...observability.instrumentation import Instrumentation
from ...observability.trace import tick_record
from ..dynamic import DynamicQuarantine
from ..engine import Phase, TickSimulation
from ..immunization import ImmunizationPolicy
from ..network import Network
from ..observers import CurveRecorder
from ..worms import WormStrategy, scans_this_tick
from .state import IMMUNE, INFECTED, HostArrays
from .transport import FastTransport

__all__ = ["FastWormSimulation", "WRITEBACK_MODES"]

#: Supported values for ``run(writeback=...)``: what a finished run
#: copies back onto the network (see :meth:`FastWormSimulation.run`).
WRITEBACK_MODES = ("full", "stats")


class FastImmunization:
    """Array-backed twin of :class:`ImmunizationProcess`.

    Same activation logic and the same RNG draw sequence (one draw per
    patch-eligible host per active tick, in ``network.infectable``
    order), reading and writing :class:`HostArrays` instead of host
    objects.
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
    """A single seeded worm-outbreak run on the mirror engine.

    Accepts the arguments of
    :class:`~repro.simulator.simulation.WormSimulation` (see its
    docstring for their semantics) and replays the reference run
    draw for draw.
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
        self.hosts = HostArrays(network)
        self.transport = FastTransport(network)
        # Trace records report cumulative NetworkStats; the transport
        # counts from zero, so remember what the network already saw.
        stats = network.stats
        self._base_injected = stats.packets_injected
        self._base_delivered = stats.packets_delivered
        self._base_dropped = stats.packets_dropped
        #: LAN ring: scans land in ``_lan_pending`` and rotate to
        #: ``_lan_ready`` at transmit, delivering one tick later —
        #: identical latency to the reference's ``created_tick`` check.
        self._lan_pending: list[int] = []
        self._lan_ready: list[int] = []

        seeds = self.rng.sample(list(network.infectable), initial_infections)
        for node in seeds:
            if self.hosts.infect(node, tick=0):
                self.recorder.note_infection()

        # The immunization process consumes no randomness at
        # construction, so the draw order matches the reference's.
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
        self._final_tick = 0

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
        if self.quarantine is not None:
            if self.quarantine.step(tick, self.network):
                # Filters just deployed onto the network objects; fold
                # the new buckets/budgets into the array mirrors.
                self.hosts.sync_throttles()
                self.transport.sync_limits()
        if self.immunization is not None:
            self.immunization.step(
                tick, self.recorder.ever_infected, self.hosts
            )

    def _observe_phase(self, tick: int) -> None:
        hosts = self.hosts
        self.recorder.record_counts(
            tick, hosts.susceptible, hosts.infected, hosts.immune
        )
        self._final_tick = tick
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
                    packets_injected=self._base_injected + transport.injected,
                    packets_delivered=(
                        self._base_delivered + transport.delivered
                    ),
                    packets_dropped=(
                        self._base_dropped + transport.dropped_total
                    ),
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

    @property
    def events_executed(self) -> int:
        """Ad-hoc scheduler events run (0 for purely tick-driven runs)."""
        return self._sim.scheduler.events_executed

    def run(self, max_ticks: int, *, writeback: str = "full") -> Trajectory:
        """Run up to ``max_ticks`` ticks and return the infection curve.

        ``writeback="full"`` (default) writes the array state back onto
        the network's host and link objects, so post-run inspection
        (state counts, ``infected_at`` curves, link stats, queue depths)
        matches a reference run.  ``"stats"`` writes only the aggregate
        ``network.stats`` counters; per-link results stay readable
        through ``transport.link_stat_arrays()``.
        """
        if writeback not in WRITEBACK_MODES:
            raise ValueError(
                f"writeback must be one of {WRITEBACK_MODES}, got {writeback!r}"
            )
        self._sim.run(max_ticks)
        full = writeback == "full"
        if full:
            self.hosts.writeback()
        self.transport.writeback(self._final_tick, links=full)
        return self.recorder.trajectory()
