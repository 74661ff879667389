"""The batch-sampling engine: seeded runs of one scenario, advanced together.

Every batch-sampled run — a lone large-population ``engine="fast"`` run
as much as a thousand-replica die-out ensemble — goes through
:class:`VectorReplicaSimulation`; a solo run is a group of width one.
Building a scenario — topology sampling, routing tables, defense
deployment — dominates small-run wall clock, and the fast-engine state
(host arrays, transport layout) is mostly scenario-determined too, so a
group shares all of it: one network, one
:class:`~repro.simulator.fastpath.transport.TransportLayout`, one 2-D
:class:`~repro.simulator.fastpath.state.HostArrays` block with a
``(replica, host)`` axis.  Each replica keeps only its private run state
in a :class:`ReplicaState` record: RNG, recorder, quarantine loop,
transport and optional instrumentation.  The tick loop advances *all*
live replicas through each phase in one pass over the shared
``(replica, host)`` and ``(replica, link)`` state.  A live-replica mask
shrinks the working set as replicas die out, so a 1000-replica
near-critical sweep pays for the few replicas that take off, not the
many that die at tick 2.

Sampling model
--------------
Per-host scan counts, hit masks, targets, telescope observations and
immunization draws come in bulk from each replica's numpy generator
(seeded from ``random.Random(seed)`` right after the initial infections
are placed, so a seed attacks the same hosts on every engine).  Runs are
*statistically* equivalent to the reference engine — same epidemic law,
different random stream — and the transport relaxations documented on
the wave cascade below apply.

Width invariance
----------------
Each replica owns an isolated ``numpy.random.Generator``, so a
replica's results depend only on the *per-replica draw order within a
tick*, which the loop fixes —

1. scan counts (``gen.random(n_infected) < frac``, only when the scan
   rate has a fractional part),
2. throttle gating (no draws),
3. hit mask (``gen.random(total)``, only when hit probability < 1),
4. targets (uniform with resample, or the local-preference kernel),
5. telescope observation (``gen.binomial``, only when scans went dark
   and a quarantine is watching),
6. immunization draws (``gen.random(n_candidates)``, only when the
   policy is active and candidates exist)

— while everything between draws (state flips, token arithmetic,
packet transport) is computed cross-replica.  Transport waves are
merged globally, but every per-replica *subsequence* of the global
packet arrays keeps the order that replica would see alone, and all
counter updates key on ``replica * L + link``, so a replica's per-link
statistics, queue contents and drop-tail victims do not depend on its
neighbours.  The equivalence suite pins width-1 and grouped runs to the
same golden grid.

Transport relaxations
---------------------
Totals (packet counters, per-link forwarded/enqueued/dropped, queue
depths at tick end) follow the reference sweep; what is relaxed is
intra-tick interleaving: same-tick multi-hop cascades run in breadth
waves rather than strict sorted-link order, so when several packets race
into one rate-cut queue in a single tick, *which* of them waits can
differ from the reference, and peak depths of unlimited links record
per-tick batch sizes rather than transient per-packet depths.

Node forwarding budgets
-----------------------
Budgets serialize per-packet decisions, so a budgeted replica moves its
packets on the exact scalar sweep (:meth:`FastTransport.transmit_tick`).
A replica is *budgeted* from tick 0 when the static defense installs
budgets, or from the tick its quarantine deploys a plan with budgets.
A budgeted replica's scan injections join its real queues, it skips the
shared token refill and the global pending store, and it transmits on
its own transport's exact sweep; everything else about it (draws,
infection, immunization, harvest) stays vectorized.

Dynamic quarantine
------------------
Replicas share one network, so a deploy cannot touch it: each replica
whose detector fires replays a plan captured at construction
(:mod:`.replicas`) onto its private row and transport, and the network
is left undeployed.  Host epidemic state, link statistics, and residual
queues — everything the results layer reads — are written back per
replica.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from itertools import chain
from time import perf_counter

import numpy as np

from ...observability.instrumentation import Instrumentation
from ...observability.trace import tick_record
from ..dynamic import DynamicQuarantine
from ..engine import PHASE_NAMES, Phase
from ..immunization import ImmunizationPolicy
from ..links import LinkStats
from ..network import Network
from ..observers import CurveRecorder
from ..worms import LocalPreferentialWorm, RandomScanWorm, WormStrategy
from .engine import WRITEBACK_MODES
from .replicas import DeploymentPlan, capture_deployment_plan
from .state import IMMUNE, INFECTED, SUSCEPTIBLE, HostArrays
from .transport import FastTransport, TransportLayout

__all__ = ["ReplicaState", "VectorReplicaSimulation"]

_SCAN = PHASE_NAMES[Phase.SCAN]
_TRANSMIT = PHASE_NAMES[Phase.TRANSMIT]
_DELIVER = PHASE_NAMES[Phase.DELIVER]
_IMMUNIZE = PHASE_NAMES[Phase.IMMUNIZE]
_OBSERVE = PHASE_NAMES[Phase.OBSERVE]


class SubnetTables:
    """Subnet membership of the infectable population, sliced flat.

    ``members`` lists infectable hosts grouped by subnet; ``start`` /
    ``count`` index each subnet's slice.  Hosts outside any subnet (or
    a network without subnets at all) take the uniform fallback,
    matching the reference's lone-host fall-through to
    :class:`RandomScanWorm`.  Pure function of the network, so one
    instance serves every replica.
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
    a pure function of ``gen`` and ``origins``.
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


class ReplicaState:
    """One replica's private run state inside a vector group.

    This is what the harvest callback receives: the replica's curve
    (``recorder``), its transport (per-link arrays and packet totals),
    its quarantine loop and its instrumentation.
    """

    __slots__ = (
        "gen",
        "recorder",
        "quarantine",
        "transport",
        "instrumentation",
        "patching",
        "final_tick",
    )

    #: The vector loop schedules no ad-hoc events.
    events_executed = 0

    def __init__(
        self,
        gen: np.random.Generator,
        recorder: CurveRecorder,
        quarantine: DynamicQuarantine | None,
        transport: FastTransport,
        instrumentation: Instrumentation | None,
    ) -> None:
        self.gen = gen
        self.recorder = recorder
        self.quarantine = quarantine
        self.transport = transport
        self.instrumentation = instrumentation
        #: Whether the immunization policy has started patching.
        self.patching = False
        self.final_tick = 0

    @property
    def ticks_executed(self) -> int:
        """Ticks this replica ran (replicas stop individually)."""
        return self.recorder.num_samples


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct values of *sorted* ``keys``, each run's start and length.

    ``np.unique`` without its re-sort and wrapper overhead, which
    dominate on the small per-tick arrays of the wave cascade.
    """
    edge = np.empty(keys.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)
    starts = bounds[:-1]
    return keys[starts], starts, bounds[1:] - starts


def _credit_phase(
    instrs: list[Instrumentation | None],
    live_list: list[int],
    name: str,
    seconds: float,
) -> None:
    """Split one group phase's time evenly over its live replicas."""
    share = seconds / len(live_list)
    for r in live_list:
        instr = instrs[r]
        if instr is not None and instr.profile:
            instr.record_phase(name, share)


class VectorReplicaSimulation:
    """``R`` seeded batch-sampled runs of one scenario, advanced together.

    Parameters mirror :class:`~repro.simulator.fastpath.FastWormSimulation`
    where shared, plus:

    seeds:
        One RNG seed per replica; ``len(seeds)`` is the group width.
    quarantine_factory:
        Zero-argument callable producing a fresh
        :class:`DynamicQuarantine` (telescope + detector + response);
        called once per replica.  Each replica's control loop runs
        independently — detection tick and deployment are per replica.
    writeback:
        ``"full"`` (default) writes host stamps, per-link stats and
        residual queues back onto the network before each harvest —
        the callback observes what the run left behind.  ``"stats"``
        restores only the aggregate packet counters (``network.stats``)
        and leaves hosts/links untouched: for harvests that read
        trajectories, totals, and the transport's arrays directly, it
        skips the per-replica whole-topology writeback walk entirely.
    instrumentation:
        Optional per-replica :class:`Instrumentation` (one entry per
        seed, ``None`` entries allowed): scan/infection counters, tick
        records, and per-phase timings, each group phase's time split
        evenly over its live replicas.

    The worm must be a :class:`RandomScanWorm` or a
    :class:`LocalPreferentialWorm`, the two strategies with a batch
    sampling kernel.  Replicas stop individually under the reference
    stop condition and are harvested — network writeback plus a caller
    callback — as they finish; the network's mutable result state
    (stats, link stats, queues) is reset between harvests so each
    callback observes only its own replica.
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
        instrumentation: Sequence[Instrumentation | None] | None = None,
    ) -> None:
        if not seeds:
            raise ValueError("seeds must be non-empty")
        if scan_rate <= 0:
            raise ValueError(f"scan_rate must be positive, got {scan_rate}")
        if not isinstance(worm, (RandomScanWorm, LocalPreferentialWorm)):
            raise ValueError(
                f"batch sampling requires a RandomScanWorm or"
                f" LocalPreferentialWorm, got {type(worm).__name__}"
            )
        if not 1 <= initial_infections < network.num_infectable:
            raise ValueError(
                f"initial_infections must be in [1, {network.num_infectable}),"
                f" got {initial_infections}"
            )
        if writeback not in WRITEBACK_MODES:
            raise ValueError(
                f"writeback must be one of {WRITEBACK_MODES}, got {writeback!r}"
            )
        replicas = len(seeds)
        if instrumentation is None:
            instrumentation = [None] * replicas
        self.network = network
        self.replicas = replicas
        self.lan_delivery = lan_delivery
        self._writeback = writeback
        self._policy = immunization
        # The layout templates the pre-deploy (static defenses only)
        # rate-limit state, which the plan capture restores.
        self.layout = TransportLayout(network)
        quarantines: list[DynamicQuarantine | None] = [None] * replicas
        self._plan: DeploymentPlan | None = None
        if quarantine_factory is not None:
            quarantines = [quarantine_factory() for _ in range(replicas)]
            self._plan = capture_deployment_plan(
                self.layout, quarantines[0].response
            )
            descriptor = self._plan.descriptor
            for quarantine in quarantines:
                # The replica replays the captured plan itself; the
                # response just reports what "deployed".
                quarantine.response = lambda _net: descriptor
        self.hosts = HostArrays(network, replicas=replicas)
        if self._plan is not None and self._plan.throttles:
            self.hosts.register_latent_throttles(self._plan.throttles)

        # Scan parameters are scenario-determined, shared by replicas.
        self._whole = int(scan_rate)
        self._frac = scan_rate - self._whole
        self._pool = np.array(network.infectable, dtype=np.int64)
        self._subnet_arr = (
            np.array(network.subnets.subnet_of, dtype=np.int64)
            if network.subnets is not None
            else None
        )
        if isinstance(worm, LocalPreferentialWorm):
            # A miss in the fallback branch never happens (the reference
            # fallback scans with hit probability 1.0), and subnet
            # membership tables vectorize the peer draws.
            self._hit = 1.0
            self._local_pref: float | None = worm.local_preference
            self._tables: SubnetTables | None = SubnetTables(
                self._pool, self._subnet_arr
            )
        else:
            self._hit = worm.hit_probability
            self._local_pref = None
            self._tables = None

        infectable = list(network.infectable)
        seeded: list[int] = []
        self.states: list[ReplicaState] = []
        for replica, seed in enumerate(seeds):
            rng = random.Random(seed)
            seeded.extend(rng.sample(infectable, initial_infections))
            # Seeded after initial-infection placement, so the same
            # seed attacks the same hosts on every engine.
            gen = np.random.default_rng(rng.getrandbits(64))
            self.states.append(
                ReplicaState(
                    gen,
                    CurveRecorder(network),
                    quarantines[replica],
                    FastTransport(network, layout=self.layout),
                    instrumentation[replica],
                )
            )
        seed_reps = self.hosts.infect_grouped(
            np.repeat(np.arange(replicas), initial_infections),
            np.asarray(seeded, dtype=np.int64),
            0,
        )
        for replica, count in enumerate(
            np.bincount(seed_reps, minlength=replicas).tolist()
        ):
            if count:
                self.states[replica].recorder.note_infection(count)
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
        state: ReplicaState,
        harvest: Callable[[int, ReplicaState], None],
    ) -> None:
        self._reset_network()
        full = self._writeback == "full"
        if full:
            self.hosts.writeback(replica)
        self._touched = state.transport.writeback(
            state.final_tick, links=full
        )
        harvest(replica, state)

    @staticmethod
    def _inject_guarded(
        t: FastTransport,
        li: np.ndarray,
        dsts: np.ndarray,
        rep: int,
        wave_li: list[np.ndarray],
        wave_dst: list[np.ndarray],
        wave_rep: list[np.ndarray],
    ) -> None:
        """Drop-tail guard for one replica's unlimited injections.

        Used when queuing the replica's whole share could overflow a
        queue: links without room for their whole share get the
        per-packet treatment, survivors are credited and handed to the
        global wave.
        """
        uniq, counts = np.unique(li, return_counts=True)
        queues = t.queues
        max_queue = t.max_queue
        pend = t.pending_depth
        tight = [
            link
            for link, incoming in zip(uniq.tolist(), counts.tolist())
            if len(queues[link]) + int(pend[link]) + incoming
            > max_queue[link]
        ]
        if tight:
            mask = np.isin(li, np.asarray(tight, dtype=np.int64))
            t._enqueue_pairs(li[mask], dsts[mask])
            keep = ~mask
            li = li[keep]
            dsts = dsts[keep]
            if li.size == 0:
                return
            uniq, counts = np.unique(li, return_counts=True)
        t.enq_vec[uniq] += counts
        t.fwd_vec[uniq] += counts
        t.peak_vec[uniq] = np.maximum(t.peak_vec[uniq], counts)
        wave_li.append(li)
        wave_dst.append(dsts)
        wave_rep.append(np.full(li.size, rep, dtype=np.int64))

    @staticmethod
    def _enqueue_limited_waiters(
        transports: list[FastTransport],
        w_rep: np.ndarray,
        w_lj: np.ndarray,
        w_dst: np.ndarray,
        link_count: int,
    ) -> None:
        """Queue cascade waiters bound for rate-limited links.

        Grouped by ``(replica, link)`` with one global stable sort, which
        preserves each replica's FIFO order per link; each group is
        drop-tail bounded and credited as enqueued.  Peak depth of a
        rate-limited link is tracked lazily: its queue only shrinks at
        trickle drains, so the high-water mark is read right before a
        drain and once more at writeback.
        """
        key = w_rep * link_count + w_lj
        order = np.argsort(key, kind="stable")
        dst_s = w_dst[order].tolist()
        uk, starts, _counts = _runs(key[order])
        bounds = starts.tolist()
        bounds.append(len(dst_s))
        for g, k in enumerate(uk.tolist()):
            t = transports[k // link_count]
            link = k % link_count
            a = bounds[g]
            incoming = bounds[g + 1] - a
            queue = t.queues[link]
            depth = len(queue)
            space = t.max_queue[link] - depth
            if incoming > space:
                accepted = space if space > 0 else 0
                t.drop_list[link] += incoming - accepted
                t.dropped_total += incoming - accepted
            else:
                accepted = incoming
            if accepted:
                queue.extend(dst_s[a : a + accepted])
                t.enq_list[link] += accepted
                t.queued_total += accepted
                if depth == 0:
                    t.nonempty_l.add(link)

    def run(
        self,
        max_ticks: int,
        harvest: Callable[[int, ReplicaState], None],
    ) -> None:
        """Advance every replica to completion, harvesting each.

        ``harvest(replica, state)`` runs once per replica, immediately
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
        states = self.states
        hosts = self.hosts
        network = self.network
        layout = self.layout
        plan = self._plan
        replicas = self.replicas
        link_count = len(layout.keys)
        n = layout.n

        transports = [state.transport for state in states]
        gens = [state.gen for state in states]
        recorders = [state.recorder for state in states]
        quars = [state.quarantine for state in states]
        instrs = [state.instrumentation for state in states]
        counting = any(instr is not None for instr in instrs)
        tracing = any(
            instr is not None and instr.sink is not None for instr in instrs
        )
        profiling = any(
            instr is not None and instr.profile for instr in instrs
        )

        whole = self._whole
        frac = self._frac
        hit = self._hit
        local_pref = self._local_pref
        tables = self._tables
        pool = self._pool
        subnet_arr = self._subnet_arr
        lan = self.lan_delivery and subnet_arr is not None

        # Shared (replica, link) counter matrices: each transport's
        # vectorized-track arrays are rebound to one row, so global
        # flat-key updates and the per-replica scalar paths (enqueue,
        # trickle, writeback, apply_limit_plan) address one memory.
        fwd2 = np.zeros((replicas, link_count), dtype=np.int64)
        enq2 = np.zeros((replicas, link_count), dtype=np.int64)
        peak2 = np.zeros((replicas, link_count), dtype=np.int64)
        tok2 = np.tile(layout.l_tokens0, (replicas, 1))
        for r, t in enumerate(transports):
            t.fwd_vec = fwd2[r]
            t.enq_vec = enq2[r]
            t.peak_vec = peak2[r]
            t.l_tokens = tok2[r]
        fwd_flat = fwd2.reshape(-1)
        enq_flat = enq2.reshape(-1)
        peak_flat = peak2.reshape(-1)

        # Token refill splits: pre-deploy rows refill the static
        # template columns; deployed rows refill static ∪ plan columns
        # at post-deploy rates.  Elementwise min(tokens + rate, burst)
        # either way — IEEE-identical to each transport's own refill.
        static_idx = layout.limited_idx
        static_limited = layout.limited_arr
        rate_static = layout.l_rate[static_idx]
        burst_static = layout.l_burst[static_idx]
        plan_member = np.zeros(link_count, dtype=bool)
        dep_idx = static_idx
        has_plan_links = plan is not None and plan.link_idx.size > 0
        if has_plan_links:
            plan_member[plan.link_idx] = True
            rate_all = layout.l_rate.copy()
            burst_all = layout.l_burst.copy()
            rate_all[plan.link_idx] = plan.link_rates
            burst_all[plan.link_idx] = plan.link_bursts
            dep_idx = np.unique(
                np.concatenate([static_idx, plan.link_idx])
            )
        else:
            rate_all = layout.l_rate
            burst_all = layout.l_burst
        rate_dep = rate_all[dep_idx]
        burst_dep = burst_all[dep_idx]
        deployed = np.zeros(replicas, dtype=bool)

        # Budgeted replicas (see module docstring) run their transport on
        # the exact scalar sweep; ``exact`` holds the live ones, so an
        # empty set keeps every budget check off the vectorized path.
        plan_budgets = plan is not None and bool(plan.budgets)
        budgeted = np.zeros(replicas, dtype=bool)
        exact: set[int] = set()
        held: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if layout.budget_buckets:
            budgeted[:] = True
            exact.update(range(replicas))

        status = hosts.status
        sus_arr = (status == SUSCEPTIBLE).sum(axis=1)
        inf_arr = (status == INFECTED).sum(axis=1)
        imm_arr = (status == IMMUNE).sum(axis=1)
        injected_arr = np.zeros(replicas, dtype=np.int64)
        delivered_arr = np.zeros(replicas, dtype=np.int64)

        # LAN ring: same-subnet scans of tick t wait in ``lan_pending``
        # as ``(replicas, destinations)``, rotate to ``lan_ready`` at
        # delivery and land one tick later — the reference's one-tick
        # LAN latency.
        no_lan = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        lan_pending = no_lan
        lan_ready_rep, lan_ready_dst = no_lan

        parent = layout.parent
        key_array = layout.key_array
        link_dst_arr = layout.link_dst_arr
        min_cap = layout.min_cap
        max_q_arr = np.asarray(layout.max_queue, dtype=np.int64)

        # Global store for unlimited-link waiters.  A cascade waiter
        # waits for the next tick's sweep; the waiters of *all*
        # replicas live in shared chunk arrays keyed by
        # ``replica * L + link``, with per-key depths for the drop-tail
        # bound, so both the enqueue and the next sweep are single
        # sorted passes instead of per-replica loops.  Invariant: outside
        # the guard/trickle window of a tick, every real unlimited deque
        # is empty — the only scalar writers (the inject guard, the
        # limited trickle, a deploy flush) mark their replica in
        # ``dirty``, and the sweep drains those deques alongside the
        # store, in chronological order.
        depth2 = np.zeros((replicas, link_count), dtype=np.int64)
        depth_flat = depth2.reshape(-1)
        pend_count = np.zeros(replicas, dtype=np.int64)
        pend_rep: list[np.ndarray] = []
        pend_lj: list[np.ndarray] = []
        pend_dst: list[np.ndarray] = []
        dirty: set[int] = set()
        # Budgeted replicas never hold store packets, so their scalar
        # enqueues skip the per-packet store-depth lookup.
        for r, t in enumerate(transports):
            t.pending_depth = None if budgeted[r] else depth2[r]

        policy = self._policy
        if policy is not None:
            mu = policy.mu
            patch_infected = policy.patch_infected
            num_infectable = network.num_infectable

        # Segment bounds of replica-sorted arrays: ``searchsorted`` of a
        # live-position column against ``edges[: nlive + 1]``.
        edges_all = np.arange(replicas + 1, dtype=np.int64)
        zero_counts = np.zeros(replicas, dtype=np.int64)
        live = np.arange(replicas, dtype=np.int64)
        last_tick = max_ticks - 1
        for tick in range(max_ticks):
            live_list = live.tolist()
            nlive = live.size
            edges = edges_all[: nlive + 1]
            if profiling:
                clock = perf_counter()

            # -------------------- scan phase --------------------
            hosts.refill_all_throttles()
            rows, cols = np.nonzero(
                (status if nlive == replicas else status[live]) == INFECTED
            )
            wave_li: list[np.ndarray] = []
            wave_dst: list[np.ndarray] = []
            wave_rep: list[np.ndarray] = []
            arrive_rep: list[np.ndarray] = []
            arrive_dst: list[np.ndarray] = []
            if rows.size:
                zeros = zero_counts[:nlive]
                throttled_n = dark = lan_n = routed_n = zeros
                if frac > 0.0:
                    hb = np.searchsorted(rows, edges).tolist()
                    buf = np.empty(rows.size)
                    for i, r in enumerate(live_list):
                        a, b = hb[i], hb[i + 1]
                        if a != b:
                            buf[a:b] = gens[r].random(b - a)
                    counts = whole + (buf < frac).astype(np.int64)
                else:
                    counts = np.full(rows.size, whole, dtype=np.int64)
                if hosts.throttle_pos:
                    allowed = hosts.throttle_gate_grouped(
                        live[rows], cols, counts
                    )
                    if counting:
                        # One throttled event per host whose burst was
                        # cut, like the reference's per-host break.
                        throttled_n = np.bincount(
                            rows[counts > allowed], minlength=nlive
                        )
                    counts = allowed
                origins = np.repeat(cols, counts)
                rep_o = np.repeat(rows, counts)
                tb = np.searchsorted(rep_o, edges)
                if hit < 1.0 and origins.size:
                    ob = tb.tolist()
                    buf = np.empty(origins.size)
                    for i, r in enumerate(live_list):
                        a, b = ob[i], ob[i + 1]
                        if a != b:
                            buf[a:b] = gens[r].random(b - a)
                    keep = buf < hit
                    origins = origins[keep]
                    rep_o = rep_o[keep]
                    scanned = np.diff(tb)
                    tb = np.searchsorted(rep_o, edges)
                    dark = scanned - np.diff(tb)
                if origins.size and pool.size >= 2:
                    bounds = tb.tolist()
                    targets = np.empty(origins.size, dtype=np.int64)
                    for i, r in enumerate(live_list):
                        a, b = bounds[i], bounds[i + 1]
                        if a == b:
                            continue
                        gen = gens[r]
                        seg_orig = origins[a:b]
                        if local_pref is not None:
                            targets[a:b] = pick_targets_local_pref(
                                gen,
                                pool,
                                subnet_arr,
                                tables,
                                local_pref,
                                seg_orig,
                            )
                        else:
                            cand = pool[
                                gen.integers(0, pool.size, size=b - a)
                            ]
                            while True:
                                bad = cand == seg_orig
                                misses = int(bad.sum())
                                if not misses:
                                    break
                                cand[bad] = pool[
                                    gen.integers(
                                        0, pool.size, size=misses
                                    )
                                ]
                            targets[a:b] = cand
                    if lan:
                        osub = subnet_arr[origins]
                        local = (osub != -1) & (
                            osub == subnet_arr[targets]
                        )
                        if local.any():
                            l_rep = rep_o[local]
                            lan_pending = (live[l_rep], targets[local])
                            if counting:
                                lan_n = np.bincount(l_rep, minlength=nlive)
                            remote = ~local
                            origins = origins[remote]
                            targets = targets[remote]
                            rep_o = rep_o[remote]
                    if origins.size:
                        reps_act = live[rep_o]
                        sent = np.bincount(rep_o, minlength=nlive)
                        injected_arr[live] += sent
                        if counting:
                            routed_n = sent
                        next_hops = parent[targets, origins]
                        li = np.searchsorted(
                            key_array, origins * n + next_hops
                        )
                        lim = static_limited[li]
                        if has_plan_links:
                            lim = lim | (
                                plan_member[li] & deployed[reps_act]
                            )
                        if exact:
                            lim = lim | budgeted[reps_act]
                        if lim.any():
                            l_rep = rep_o[lim]
                            l_li = li[lim]
                            l_dst = targets[lim]
                            lb = np.searchsorted(l_rep, edges).tolist()
                            for i, r in enumerate(live_list):
                                a, b = lb[i], lb[i + 1]
                                if a == b:
                                    continue
                                if r in exact:
                                    # Queued right before this replica's
                                    # exact sweep, while its queues are
                                    # still in cache.
                                    held[r] = (l_li[a:b], l_dst[a:b])
                                else:
                                    transports[r]._enqueue_pairs(
                                        l_li[a:b], l_dst[a:b]
                                    )
                            keep = ~lim
                            li = li[keep]
                            targets = targets[keep]
                            rep_o = rep_o[keep]
                            reps_act = reps_act[keep]
                        if li.size:
                            ub = np.searchsorted(rep_o, edges).tolist()
                            # Drop-tail guard: a replica whose whole
                            # unlimited share could overflow the smallest
                            # queue gets per-link checks; the rest skip
                            # measuring depths.
                            guard = [
                                i
                                for i, r in enumerate(live_list)
                                if ub[i] != ub[i + 1]
                                and transports[r].queued_u
                                + int(pend_count[r])
                                + (ub[i + 1] - ub[i])
                                > min_cap
                            ]
                            if guard:
                                for i in guard:
                                    a, b = ub[i], ub[i + 1]
                                    r = live_list[i]
                                    self._inject_guarded(
                                        transports[r],
                                        li[a:b],
                                        targets[a:b],
                                        r,
                                        wave_li,
                                        wave_dst,
                                        wave_rep,
                                    )
                                    if transports[r].nonempty_u:
                                        dirty.add(r)
                                keep = ~np.isin(
                                    rep_o,
                                    np.asarray(guard, dtype=np.int64),
                                )
                                li = li[keep]
                                targets = targets[keep]
                                reps_act = reps_act[keep]
                        if li.size:
                            key = reps_act * link_count + li
                            uk, _starts, cnt = _runs(np.sort(key))
                            enq_flat[uk] += cnt
                            fwd_flat[uk] += cnt
                            peak_flat[uk] = np.maximum(
                                peak_flat[uk], cnt
                            )
                            wave_li.append(li)
                            wave_dst.append(targets)
                            wave_rep.append(reps_act)
                if dark is not zeros and quars[0] is not None:
                    for i in np.flatnonzero(dark).tolist():
                        q = quars[live_list[i]]
                        seen = int(
                            gens[live_list[i]].binomial(
                                int(dark[i]), q.telescope.coverage
                            )
                        )
                        if seen:
                            q.telescope.record_hits(seen)
                if counting:
                    tallies = zip(
                        throttled_n.tolist(),
                        dark.tolist(),
                        lan_n.tolist(),
                        routed_n.tolist(),
                    )
                    for r, (thr, drk, lan_c, rtd) in zip(
                        live_list, tallies
                    ):
                        instr = instrs[r]
                        if instr is None:
                            continue
                        if thr:
                            instr.count("scans_throttled", thr)
                        if drk:
                            instr.count("scans_dark", drk)
                        if lan_c:
                            instr.count("scans_lan", lan_c)
                        if rtd:
                            instr.count("scans_routed", rtd)
            if profiling:
                now = perf_counter()
                _credit_phase(instrs, live_list, _SCAN, now - clock)
                clock = now

            # ------------------- transmit phase -------------------
            # Budgeted rows refill their own tokens in transmit_tick.
            vec_rows = live[~budgeted[live]] if exact else live
            dep_rows = vec_rows[deployed[vec_rows]]
            nod_rows = vec_rows[~deployed[vec_rows]]
            if static_idx.size and nod_rows.size:
                ix = np.ix_(nod_rows, static_idx)
                tok2[ix] = np.minimum(tok2[ix] + rate_static, burst_static)
            if dep_idx.size and dep_rows.size:
                ix = np.ix_(dep_rows, dep_idx)
                tok2[ix] = np.minimum(tok2[ix] + rate_dep, burst_dep)
            for r in live_list:
                t = transports[r]
                if t.nonempty_l and r not in exact:
                    trickled: list[int] = []
                    t._trickle_limited(trickled)
                    if trickled:
                        arrive_rep.append(
                            np.full(len(trickled), r, dtype=np.int64)
                        )
                        arrive_dst.append(
                            np.asarray(trickled, dtype=np.int64)
                        )
                    if t.nonempty_u:
                        dirty.add(r)
            for r in sorted(exact):
                t = transports[r]
                if r in held:
                    t._enqueue_pairs(*held.pop(r))
                arrived = t.transmit_tick()
                if arrived:
                    arrive_rep.append(
                        np.full(len(arrived), r, dtype=np.int64)
                    )
                    arrive_dst.append(np.asarray(arrived, dtype=np.int64))
            # Sweep: every queued unlimited packet — the global pending
            # store plus the real deques of dirty replicas — enters the
            # wave in one sorted pass.  The stable sort by
            # ``replica * L + link`` fixes each replica's emission order
            # (links ascending, FIFO per link, store content before
            # same-tick scalar enqueues).
            if dirty:
                for r in sorted(dirty):
                    t = transports[r]
                    if not t.nonempty_u:
                        continue
                    active = sorted(t.nonempty_u)
                    queues = t.queues
                    cnts = np.fromiter(
                        (len(queues[li]) for li in active),
                        dtype=np.int64,
                        count=len(active),
                    )
                    total = int(cnts.sum())
                    pend_dst.append(
                        np.fromiter(
                            chain.from_iterable(
                                queues[li] for li in active
                            ),
                            dtype=np.int64,
                            count=total,
                        )
                    )
                    pend_lj.append(
                        np.repeat(np.array(active, dtype=np.int64), cnts)
                    )
                    pend_rep.append(np.full(total, r, dtype=np.int64))
                    for li in active:
                        queues[li].clear()
                    t.nonempty_u.clear()
                    t.queued_total -= total
                    t.queued_u = 0
                dirty.clear()
            if pend_rep:
                sw_rep = (
                    pend_rep[0]
                    if len(pend_rep) == 1
                    else np.concatenate(pend_rep)
                )
                sw_lj = (
                    pend_lj[0]
                    if len(pend_lj) == 1
                    else np.concatenate(pend_lj)
                )
                sw_dst = (
                    pend_dst[0]
                    if len(pend_dst) == 1
                    else np.concatenate(pend_dst)
                )
                key = sw_rep * link_count + sw_lj
                order = np.argsort(key, kind="stable")
                sw_rep = sw_rep[order]
                sw_lj = sw_lj[order]
                sw_dst = sw_dst[order]
                uk, _starts, cnt = _runs(key[order])
                fwd_flat[uk] += cnt
                depth_flat[uk] = 0
                pend_count[:] = 0
                pend_rep = []
                pend_lj = []
                pend_dst = []
                wave_rep.append(sw_rep)
                wave_li.append(sw_lj)
                wave_dst.append(sw_dst)
            if wave_dst:
                # Wave cascade: arrivals peel off, packets bound for
                # limited links queue up, and packets bound for a
                # *later-indexed* unlimited link keep moving within the
                # tick — the same per-tick reachability as the
                # reference's sorted sweep.
                dsts = (
                    wave_dst[0]
                    if len(wave_dst) == 1
                    else np.concatenate(wave_dst)
                )
                src_li = (
                    wave_li[0]
                    if len(wave_li) == 1
                    else np.concatenate(wave_li)
                )
                reps = (
                    wave_rep[0]
                    if len(wave_rep) == 1
                    else np.concatenate(wave_rep)
                )
                while dsts.size:
                    nodes = link_dst_arr[src_li]
                    at_dest = dsts == nodes
                    if at_dest.any():
                        done_rep = reps[at_dest]
                        arrive_rep.append(done_rep)
                        arrive_dst.append(dsts[at_dest])
                        delivered_arr += np.bincount(
                            done_rep, minlength=replicas
                        )
                        keep = ~at_dest
                        dsts = dsts[keep]
                        src_li = src_li[keep]
                        reps = reps[keep]
                        nodes = nodes[keep]
                        if dsts.size == 0:
                            break
                    next_hops = parent[dsts, nodes]
                    lj = np.searchsorted(
                        key_array, nodes * n + next_hops
                    )
                    lim = static_limited[lj]
                    if has_plan_links:
                        lim = lim | (plan_member[lj] & deployed[reps])
                    cascade = ~lim & (lj > src_li)
                    if not cascade.all():
                        wait = ~cascade
                        w_rep = reps[wait]
                        w_lj = lj[wait]
                        w_dst = dsts[wait]
                        w_lim = lim[wait]
                        if w_lim.any():
                            self._enqueue_limited_waiters(
                                transports,
                                w_rep[w_lim],
                                w_lj[w_lim],
                                w_dst[w_lim],
                                link_count,
                            )
                            unl = ~w_lim
                            w_rep = w_rep[unl]
                            w_lj = w_lj[unl]
                            w_dst = w_dst[unl]
                        if w_rep.size:
                            # Unlimited waiters into the pending store:
                            # one stable sort, vectorized credit, and a
                            # per-group python pass only when a queue
                            # would overflow (real deques are empty here
                            # — see the store invariant above).
                            key = w_rep * link_count + w_lj
                            order = np.argsort(key, kind="stable")
                            rep_s = w_rep[order]
                            lj_s = w_lj[order]
                            dst_s = w_dst[order]
                            uk, starts, cnts = _runs(key[order])
                            new_depth = depth_flat[uk] + cnts
                            over = new_depth > max_q_arr[uk % link_count]
                            if over.any():
                                keep = np.ones(rep_s.size, dtype=bool)
                                starts_l = starts.tolist()
                                starts_l.append(rep_s.size)
                                for g in np.flatnonzero(over).tolist():
                                    k = int(uk[g])
                                    link = k % link_count
                                    space = int(max_q_arr[link]) - int(
                                        depth_flat[k]
                                    )
                                    acc = space if space > 0 else 0
                                    spilled = int(cnts[g]) - acc
                                    t = transports[k // link_count]
                                    t.drop_list[link] += spilled
                                    t.dropped_total += spilled
                                    keep[
                                        starts_l[g]
                                        + acc : starts_l[g + 1]
                                    ] = False
                                    cnts[g] = acc
                                rep_s = rep_s[keep]
                                lj_s = lj_s[keep]
                                dst_s = dst_s[keep]
                                new_depth = depth_flat[uk] + cnts
                            depth_flat[uk] = new_depth
                            enq_flat[uk] += cnts
                            peak_flat[uk] = np.maximum(
                                peak_flat[uk], new_depth
                            )
                            if rep_s.size:
                                pend_rep.append(rep_s)
                                pend_lj.append(lj_s)
                                pend_dst.append(dst_s)
                                pend_count += np.bincount(
                                    rep_s, minlength=replicas
                                )
                        dsts = dsts[cascade]
                        lj = lj[cascade]
                        reps = reps[cascade]
                        if dsts.size == 0:
                            break
                    key = reps * link_count + lj
                    uk, _starts, cnt = _runs(np.sort(key))
                    enq_flat[uk] += cnt
                    fwd_flat[uk] += cnt
                    peak_flat[uk] = np.maximum(peak_flat[uk], cnt)
                    src_li = lj
            if profiling:
                now = perf_counter()
                _credit_phase(instrs, live_list, _TRANSMIT, now - clock)
                clock = now

            # -------------------- deliver phase --------------------
            if lan_ready_rep.size:
                arrive_rep.append(lan_ready_rep)
                arrive_dst.append(lan_ready_dst)
            lan_ready_rep, lan_ready_dst = lan_pending
            lan_pending = no_lan
            if arrive_dst:
                a_rep = (
                    arrive_rep[0]
                    if len(arrive_rep) == 1
                    else np.concatenate(arrive_rep)
                )
                a_dst = (
                    arrive_dst[0]
                    if len(arrive_dst) == 1
                    else np.concatenate(arrive_dst)
                )
                reps_new = hosts.infect_grouped(a_rep, a_dst, tick)
                if reps_new.size:
                    newc = np.bincount(reps_new, minlength=replicas)
                    sus_arr -= newc
                    inf_arr += newc
                    for r in np.flatnonzero(newc).tolist():
                        fresh = int(newc[r])
                        recorders[r].note_infection(fresh)
                        if instrs[r] is not None:
                            instrs[r].count("infections", fresh)
            if profiling:
                now = perf_counter()
                _credit_phase(instrs, live_list, _DELIVER, now - clock)
                clock = now

            # -------------------- defense phase --------------------
            if quars[0] is not None:
                for r in live_list:
                    if quars[r].step(tick, network):
                        t = transports[r]
                        if pend_count[r] and (
                            has_plan_links or plan_budgets
                        ):
                            # The deploy re-buckets links that already
                            # hold packets (or hands them to the exact
                            # sweep), so this replica's pending waiters
                            # must sit in its real deques first (chunk
                            # order is chronological).
                            queues = t.queues
                            moved = 0
                            kept_r: list[np.ndarray] = []
                            kept_l: list[np.ndarray] = []
                            kept_d: list[np.ndarray] = []
                            for pr, pl, pd in zip(
                                pend_rep, pend_lj, pend_dst
                            ):
                                m = pr == r
                                if m.any():
                                    for l_, d_ in zip(
                                        pl[m].tolist(), pd[m].tolist()
                                    ):
                                        queue = queues[l_]
                                        if not queue:
                                            t.nonempty_u.add(l_)
                                        queue.append(d_)
                                        moved += 1
                                    keep = ~m
                                    if keep.any():
                                        kept_r.append(pr[keep])
                                        kept_l.append(pl[keep])
                                        kept_d.append(pd[keep])
                                else:
                                    kept_r.append(pr)
                                    kept_l.append(pl)
                                    kept_d.append(pd)
                            pend_rep = kept_r
                            pend_lj = kept_l
                            pend_dst = kept_d
                            t.queued_total += moved
                            t.queued_u += moved
                            depth2[r] = 0
                            pend_count[r] = 0
                            if not plan_budgets:
                                dirty.add(r)
                        hosts.activate_latent(r)
                        t.apply_limit_plan(
                            plan.link_idx,
                            plan.link_rates,
                            plan.link_bursts,
                            plan.budgets,
                        )
                        deployed[r] = True
                        if plan_budgets:
                            budgeted[r] = True
                            exact.add(r)
                            t.pending_depth = None
            if policy is not None:
                act: list[int] = []
                for r in live_list:
                    state = states[r]
                    if not state.patching:
                        if policy.start_tick is not None:
                            start = tick >= policy.start_tick
                        else:
                            start = (
                                recorders[r].ever_infected / num_infectable
                                >= policy.start_fraction
                            )
                        if not start:
                            continue
                        state.patching = True
                    act.append(r)
                if act:
                    act_arr = np.asarray(act, dtype=np.int64)
                    sub = status[np.ix_(act_arr, pool)]
                    elig = sub == SUSCEPTIBLE
                    if patch_infected:
                        elig |= sub == INFECTED
                    err, ecc = np.nonzero(elig)
                    if err.size:
                        eb = np.searchsorted(
                            err, edges_all[: len(act) + 1]
                        ).tolist()
                        chosen_rep: list[np.ndarray] = []
                        chosen_node: list[np.ndarray] = []
                        for i, r in enumerate(act):
                            a, b = eb[i], eb[i + 1]
                            if a == b:
                                continue
                            draws = gens[r].random(b - a)
                            pick = draws < mu
                            if pick.any():
                                nodes_sel = pool[ecc[a:b][pick]]
                                chosen_rep.append(
                                    np.full(
                                        nodes_sel.size,
                                        r,
                                        dtype=np.int64,
                                    )
                                )
                                chosen_node.append(nodes_sel)
                        if chosen_rep:
                            reps_i, was_inf = hosts.immunize_grouped(
                                np.concatenate(chosen_rep),
                                np.concatenate(chosen_node),
                                tick,
                            )
                            tot = np.bincount(
                                reps_i, minlength=replicas
                            )
                            from_inf = np.bincount(
                                reps_i[was_inf], minlength=replicas
                            )
                            imm_arr += tot
                            inf_arr -= from_inf
                            sus_arr -= tot - from_inf
            if profiling:
                now = perf_counter()
                _credit_phase(instrs, live_list, _IMMUNIZE, now - clock)
                clock = now

            # -------------------- observe phase --------------------
            sus_l = sus_arr.tolist()
            inf_l = inf_arr.tolist()
            imm_l = imm_arr.tolist()
            for r in live_list:
                recorders[r].record_counts(
                    tick, sus_l[r], inf_l[r], imm_l[r]
                )
            if tracing:
                lan_queue = np.bincount(
                    lan_ready_rep, minlength=replicas
                ).tolist()
                for r in live_list:
                    instr = instrs[r]
                    if instr is None or instr.sink is None:
                        continue
                    t = transports[r]
                    instr.emit(
                        tick_record(
                            tick=tick,
                            susceptible=sus_l[r],
                            infected=inf_l[r],
                            immune=imm_l[r],
                            ever_infected=recorders[r].ever_infected,
                            packets_injected=self._base_injected
                            + t.injected
                            + int(injected_arr[r]),
                            packets_delivered=self._base_delivered
                            + t.delivered
                            + int(delivered_arr[r]),
                            packets_dropped=(
                                self._base_dropped + t.dropped_total
                            ),
                            in_flight=t.queued_total + int(pend_count[r]),
                            lan_queue=lan_queue[r],
                        )
                    )
            if profiling:
                _credit_phase(
                    instrs, live_list, _OBSERVE, perf_counter() - clock
                )

            # -------------------- stop / harvest --------------------
            if tick == last_tick:
                finished = live
            else:
                over = (inf_arr[live] == 0) | (sus_arr[live] == 0)
                finished = live[over]
                live = live[~over]
            if finished.size and pend_rep:
                # Residual in-flight packets: a finishing replica's
                # pending waiters become its real queue contents, which
                # writeback materializes.
                fin_look = np.zeros(replicas, dtype=bool)
                fin_look[finished] = True
                kept_r = []
                kept_l = []
                kept_d = []
                for pr, pl, pd in zip(pend_rep, pend_lj, pend_dst):
                    m = fin_look[pr]
                    if m.any():
                        for rr, ll, dd in zip(
                            pr[m].tolist(),
                            pl[m].tolist(),
                            pd[m].tolist(),
                        ):
                            t = transports[rr]
                            t.queues[ll].append(dd)
                            t.queued_total += 1
                        keep = ~m
                        if keep.any():
                            kept_r.append(pr[keep])
                            kept_l.append(pl[keep])
                            kept_d.append(pd[keep])
                    else:
                        kept_r.append(pr)
                        kept_l.append(pl)
                        kept_d.append(pd)
                pend_rep = kept_r
                pend_lj = kept_l
                pend_dst = kept_d
                depth2[finished] = 0
                pend_count[finished] = 0
            if finished.size and lan_ready_rep.size:
                # A finished replica's LAN scans are never delivered.
                keep = ~np.isin(lan_ready_rep, finished)
                lan_ready_rep = lan_ready_rep[keep]
                lan_ready_dst = lan_ready_dst[keep]
            for r in finished.tolist():
                state = states[r]
                t = state.transport
                t.injected += int(injected_arr[r])
                t.delivered += int(delivered_arr[r])
                state.final_tick = tick
                instr = state.instrumentation
                if instr is not None and instr.profile:
                    instr.count("ticks", tick + 1)
                    instr.count("scheduler_events", 0)
                dirty.discard(r)
                exact.discard(r)
                self._finalize(r, state, harvest)
            if tick == last_tick or live.size == 0:
                break
