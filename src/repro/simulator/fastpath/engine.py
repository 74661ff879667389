"""The fast worm simulation: reference semantics over flat arrays.

:class:`FastWormSimulation` is a drop-in replacement for
:class:`~repro.simulator.simulation.WormSimulation` — same constructor,
same five-phase tick pipeline on the same
:class:`~repro.simulator.engine.TickSimulation`, same stop condition,
same :class:`~repro.models.base.Trajectory` out — but host state lives
in :class:`~repro.simulator.fastpath.state.HostArrays` and packet
transport in :class:`~repro.simulator.fastpath.transport.FastTransport`.

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

import numpy as np

from ...models.base import Trajectory
from ...observability.instrumentation import Instrumentation
from ...observability.trace import tick_record
from ..dynamic import DynamicQuarantine
from ..engine import Phase, TickSimulation
from ..immunization import ImmunizationPolicy
from ..network import Network
from ..observers import CurveRecorder
from ..worms import (
    LocalPreferentialWorm,
    RandomScanWorm,
    WormStrategy,
    scans_this_tick,
)
from .state import IMMUNE, INFECTED, SUSCEPTIBLE, HostArrays
from .transport import FastTransport

__all__ = [
    "FastWormSimulation",
    "FastBatchImmunization",
    "SCAN_MODES",
    "SubnetTables",
    "WRITEBACK_MODES",
    "pick_targets_local_pref",
]

#: Supported values for ``FastWormSimulation(scan_mode=...)``.
SCAN_MODES = ("auto", "mirror", "batch")

#: Supported values for ``run(writeback=...)``: what a finished run
#: copies back onto the network (see :meth:`FastWormSimulation.run`).
WRITEBACK_MODES = ("full", "stats")

#: ``scan_mode="auto"`` switches from draw-for-draw mirroring to
#: aggregated batch sampling above this population size: below it, exact
#: replay costs little and buys bit-identical differential testing;
#: above it, the per-draw Python overhead dominates the tick.
BATCH_MIN_HOSTS = 512


class SubnetTables:
    """Subnet membership of the infectable population, sliced flat.

    ``members`` lists infectable hosts grouped by subnet; ``start`` /
    ``count`` index each subnet's slice.  Hosts outside any subnet (or
    a network without subnets at all) take the uniform fallback,
    matching the reference's lone-host fall-through to
    :class:`RandomScanWorm`.  Pure function of the network, so one
    instance serves every replica of a vectorized ensemble.
    """

    __slots__ = ("members", "start", "count")

    def __init__(
        self, infectable_arr: np.ndarray, subnet_arr: np.ndarray | None
    ) -> None:
        self.members: np.ndarray | None = None
        self.start: np.ndarray | None = None
        self.count: np.ndarray | None = None
        if subnet_arr is None:
            return
        subs = subnet_arr[infectable_arr]
        keep = subs >= 0
        members = infectable_arr[keep]
        subs = subs[keep]
        if members.size == 0:
            return
        order = np.argsort(subs, kind="stable")
        members = members[order]
        counts = np.bincount(subs[order], minlength=int(subs.max()) + 1)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        self.members = members
        self.start = starts.astype(np.int64)
        self.count = counts.astype(np.int64)


def pick_targets_local_pref(
    gen: np.random.Generator,
    pool: np.ndarray,
    subnet_arr: np.ndarray | None,
    tables: SubnetTables,
    local_pref: float,
    origins: np.ndarray,
) -> np.ndarray:
    """Batch twin of :meth:`LocalPreferentialWorm.pick_target`.

    With probability ``local_pref`` a scan draws uniformly from the
    origin's subnet peers; lone hosts and the remaining scans draw
    uniformly from the whole infectable pool minus the origin (the
    reference's fallback random worm, hit 1.0).  The draw sequence is
    a pure function of ``gen`` and ``origins``, which is what lets the
    vectorized replica engine replay a solo run's stream exactly.
    """
    total = origins.size
    targets = np.empty(total, dtype=np.int64)
    local = np.zeros(total, dtype=bool)
    if tables.members is not None:
        subs = subnet_arr[origins]
        valid = subs >= 0
        cnt = np.zeros(total, dtype=np.int64)
        cnt[valid] = tables.count[subs[valid]]
        local = (gen.random(total) < local_pref) & (cnt >= 2)
        if local.any():
            size = cnt[local]
            start = tables.start[subs[local]]
            # Uniform over the subnet's ``size - 1`` peers: draw from
            # the first ``size - 1`` slots and remap a self-draw to the
            # slice's last member (a swap trick — every peer keeps
            # probability 1/(size-1)).
            j = gen.integers(0, size - 1)
            cand = tables.members[start + j]
            clash = cand == origins[local]
            if clash.any():
                cand[clash] = tables.members[(start + size - 1)[clash]]
            targets[local] = cand
    rest = ~local
    n_rest = int(rest.sum())
    if n_rest:
        r_orig = origins[rest]
        cand = pool[gen.integers(0, pool.size, size=n_rest)]
        while True:
            bad = cand == r_orig
            misses = int(bad.sum())
            if not misses:
                break
            cand[bad] = pool[gen.integers(0, pool.size, size=misses)]
        targets[rest] = cand
    return targets


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


class FastBatchImmunization:
    """Vectorized immunization process for batch-sampling mode.

    Same activation logic as :class:`FastImmunization`, but the per-host
    Bernoulli draws come in one bulk sample from the engine's numpy
    generator (batch mode's own random stream) and patches land through
    :meth:`HostArrays.immunize_many`.  Statistically equivalent to the
    reference process — same per-host patch probability per active tick
    — on a different stream, exactly like batch scanning itself.
    """

    def __init__(
        self,
        network: Network,
        policy: ImmunizationPolicy,
        gen: np.random.Generator,
        infectable_arr: np.ndarray,
    ) -> None:
        self._network = network
        self._policy = policy
        self._gen = gen
        self._infectable = infectable_arr
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
        codes = hosts.status_row[self._infectable]
        eligible = codes == SUSCEPTIBLE
        if self._policy.patch_infected:
            eligible |= codes == INFECTED
        candidates = self._infectable[eligible]
        if candidates.size == 0:
            return 0
        draws = self._gen.random(candidates.size)
        chosen = candidates[draws < self._policy.mu]
        patched_now = hosts.immunize_many(chosen, tick)
        self.patched += patched_now
        return patched_now


class FastWormSimulation:
    """A single seeded worm-outbreak run on the fast engine.

    Accepts the arguments of
    :class:`~repro.simulator.simulation.WormSimulation` (see its
    docstring for their semantics) plus ``scan_mode``:

    ``"mirror"``
        Draw from the run RNG in exactly the reference order.  Given
        the same arguments and seed, the run is *bit-identical* to the
        reference engine — trajectories, traces, counters, final host
        and link state.
    ``"batch"``
        Aggregated sampling: per-tick scan counts, targets, and
        telescope observations are drawn in bulk from a numpy generator
        (seeded from the run RNG), and transport moves packet arrays.
        Statistically equivalent, not bit-identical; supported for
        :class:`RandomScanWorm` and :class:`LocalPreferentialWorm`
        (dynamic immunization and quarantine/throttle defenses batch
        alongside either).
    ``"auto"`` (default)
        ``batch`` when the worm supports it and the infectable
        population is at least ``BATCH_MIN_HOSTS``, else ``mirror`` —
        small scenarios keep exact replay, large ones keep speed.

    ``hosts`` and ``transport`` are sharing hooks for the replica
    engine (:class:`~repro.simulator.fastpath.VectorReplicaSimulation`):
    a pre-built :class:`HostArrays` (with its active-replica cursor
    already pointing at this run's row) and a :class:`FastTransport`
    built over a shared :class:`TransportLayout`.  The replica engine
    runs its own cross-replica tick loop and uses these instances for
    per-replica state only.  Leave both ``None`` for the classic
    single-run construction.
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
        scan_mode: str = "auto",
        hosts: HostArrays | None = None,
        transport: FastTransport | None = None,
    ) -> None:
        if scan_rate <= 0:
            raise ValueError(f"scan_rate must be positive, got {scan_rate}")
        if scan_mode not in SCAN_MODES:
            raise ValueError(
                f"scan_mode must be one of {SCAN_MODES}, got {scan_mode!r}"
            )
        batchable = isinstance(
            worm, (RandomScanWorm, LocalPreferentialWorm)
        )
        if scan_mode == "batch" and not batchable:
            raise ValueError(
                f"scan_mode='batch' requires a RandomScanWorm or"
                f" LocalPreferentialWorm, got {type(worm).__name__}"
            )
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
        self.hosts = hosts if hosts is not None else HostArrays(network)
        self.transport = (
            transport if transport is not None else FastTransport(network)
        )
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

        self.batch_sampling = scan_mode == "batch" or (
            scan_mode == "auto"
            and batchable
            and network.num_infectable >= BATCH_MIN_HOSTS
        )
        if self.batch_sampling:
            # Seeded from the run RNG after initial-infection placement,
            # so the same seed attacks the same hosts on every engine.
            self._gen = np.random.default_rng(self.rng.getrandbits(64))
            self._infectable_arr = np.array(
                network.infectable, dtype=np.int64
            )
            self._subnet_arr = (
                np.array(network.subnets.subnet_of, dtype=np.int64)
                if network.subnets is not None
                else None
            )
            self._scan_whole = int(self.scan_rate)
            self._scan_frac = self.scan_rate - self._scan_whole
            if isinstance(worm, LocalPreferentialWorm):
                # Local-pref batch kernel: a miss in the fallback branch
                # never happens (the reference fallback scans with
                # hit probability 1.0), and subnet membership tables
                # vectorize the peer draws.
                self._hit = 1.0
                self._local_pref = worm.local_preference
                self._subnet_tables = SubnetTables(
                    self._infectable_arr, self._subnet_arr
                )
            else:
                self._hit = worm.hit_probability
                self._local_pref = None

        # Created after batch setup because the batch process draws from
        # the numpy generator; neither constructor consumes randomness,
        # so mirror mode's draw order is unchanged.
        if immunization is None:
            self.immunization = None
        elif self.batch_sampling:
            self.immunization = FastBatchImmunization(
                network, immunization, self._gen, self._infectable_arr
            )
        else:
            self.immunization = FastImmunization(
                network, immunization, self.rng
            )

        self._arrived: list[int] = []
        self._sim = TickSimulation(instrumentation=instrumentation)
        self._sim.on(
            Phase.SCAN,
            self._scan_phase_batch if self.batch_sampling else self._scan_phase,
        )
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

    def _scan_phase_batch(self, tick: int) -> None:
        hosts = self.hosts
        hosts.refill_throttles()
        infected = hosts.infected_sorted()
        if not infected:
            return
        gen = self._gen
        origins_all = np.asarray(infected, dtype=np.int64)
        count = origins_all.size
        if self._scan_frac > 0.0:
            counts = self._scan_whole + (
                gen.random(count) < self._scan_frac
            ).astype(np.int64)
        else:
            counts = np.full(count, self._scan_whole, dtype=np.int64)
        throttled = 0
        if hosts.throttle_pos:
            pos = hosts.throttle_pos_arr[origins_all]
            idx = np.flatnonzero(pos >= 0)
            if idx.size:
                tpos = pos[idx]
                act = hosts.throttle_active[tpos]
                if not act.all():
                    # Latent columns (throttles pre-registered for a
                    # quarantine deploy that hasn't fired on this
                    # replica yet) gate nothing.
                    idx = idx[act]
                    tpos = tpos[act]
            if idx.size:
                tokens = hosts.throttle_tokens
                usable = np.floor(tokens[tpos] + 1e-12).astype(np.int64)
                np.maximum(usable, 0, out=usable)
                want = counts[idx]
                allowed = np.minimum(want, usable)
                # One throttled event per host whose burst was cut, like
                # the reference's per-host break.
                throttled = int((want > allowed).sum())
                tokens[tpos] -= allowed
                counts[idx] = allowed
        total = int(counts.sum())
        dark = lan_count = routed = 0
        if total:
            origins = np.repeat(origins_all, counts)
            if self._hit < 1.0:
                hit_mask = gen.random(total) < self._hit
                origins = origins[hit_mask]
                dark = total - origins.size
            pool = self._infectable_arr
            if origins.size and pool.size >= 2:
                if self._local_pref is not None:
                    targets = self._pick_targets_local_pref(origins)
                else:
                    targets = pool[
                        gen.integers(0, pool.size, size=origins.size)
                    ]
                    while True:
                        bad = targets == origins
                        misses = int(bad.sum())
                        if not misses:
                            break
                        targets[bad] = pool[
                            gen.integers(0, pool.size, size=misses)
                        ]
                if self.lan_delivery and self._subnet_arr is not None:
                    origin_subnet = self._subnet_arr[origins]
                    local = (origin_subnet != -1) & (
                        origin_subnet == self._subnet_arr[targets]
                    )
                    if local.any():
                        lan_targets = targets[local]
                        self._lan_pending.extend(lan_targets.tolist())
                        lan_count = lan_targets.size
                        remote = ~local
                        origins = origins[remote]
                        targets = targets[remote]
                if origins.size:
                    self.transport.inject_batch(origins, targets)
                    routed = origins.size
            if dark and self.quarantine is not None:
                telescope = self.quarantine.telescope
                seen = int(gen.binomial(dark, telescope.coverage))
                if seen:
                    telescope.record_hits(seen)
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

    def _pick_targets_local_pref(self, origins: np.ndarray) -> np.ndarray:
        return pick_targets_local_pref(
            self._gen,
            self._infectable_arr,
            self._subnet_arr,
            self._subnet_tables,
            self._local_pref,
            origins,
        )

    def _transmit_phase(self, tick: int) -> None:
        transport = self.transport
        self._arrived = (
            transport.transmit_tick_batch()
            if self.batch_sampling
            else transport.transmit_tick()
        )
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
