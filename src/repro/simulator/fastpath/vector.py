"""Replica-batched execution: many seeded runs over one scenario build.

Monte-Carlo ensembles re-run *the same scenario* under different seeds.
Building that scenario — topology sampling, routing tables, defense
deployment — dominates small-run wall clock, and the per-run fast-engine
state (host arrays, transport layout) is mostly scenario-determined too.
:class:`VectorReplicaSimulation` amortizes all of it: one network, one
:class:`~repro.simulator.fastpath.transport.TransportLayout`, one 2-D
:class:`~repro.simulator.fastpath.state.HostArrays` block with a
``(replica, host)`` axis, and ``R`` ordinary
:class:`~repro.simulator.fastpath.engine.FastWormSimulation` instances
that own each replica's RNG, recorder, defenses and transport.  Its tick
loop advances *all* live replicas through each phase in one pass over
the shared ``(replica, host)`` and ``(replica, link)`` state.  A
live-replica mask shrinks the working set as replicas die out, so a
1000-replica near-critical sweep pays for the few replicas that take
off, not the many that die at tick 2.

Bit-identity contract
---------------------
Each replica owns an isolated ``numpy.random.Generator``, so only the
*per-replica draw order within a tick* determines equivalence with a
solo ``scan_mode="batch"`` run.  The vectorized loop draws each
replica's per-phase arrays in exactly the solo order —

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
packet arrays preserves that replica's solo ordering, and all counter
updates key on ``replica * L + link``, so per-link statistics, queue
contents, and drop-tail victim identity match the solo batch engine
bit for bit.  The equivalence suite asserts this across the defense
grid.

Node forwarding budgets
-----------------------
Budgets serialize per-packet decisions, so the solo batch engine moves
a budgeted run's packets on the exact scalar sweep
(:meth:`FastTransport.transmit_tick`).  The vector loop applies the same
rule per replica: a replica is *budgeted* from tick 0 when the static
defense installs budgets, or from the tick its quarantine deploys a
plan with budgets.  A budgeted replica's scan injections join its real
queues, it skips the shared token refill and the global pending store,
and it transmits on its own transport's exact sweep; everything else
about it (draws, infection, immunization, harvest) stays vectorized.

Dynamic quarantine
------------------
Replicas share one network, so a deploy cannot touch it: each replica
whose detector fires replays a plan captured at construction
(:mod:`.replicas`) onto its private row and transport.  A solo run
leaves deployed quarantine filters on the network's host and link
objects after it finishes; a grouped run leaves the network undeployed.
Host epidemic state, link statistics, and residual queues — everything
the results layer reads — are written back identically.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import chain

import numpy as np

from ..dynamic import DynamicQuarantine
from ..immunization import ImmunizationPolicy
from ..links import LinkStats
from ..network import Network
from ..worms import WormStrategy
from .engine import (
    WRITEBACK_MODES,
    FastWormSimulation,
    pick_targets_local_pref,
)
from .replicas import DeploymentPlan, capture_deployment_plan
from .state import IMMUNE, INFECTED, SUSCEPTIBLE, HostArrays
from .transport import FastTransport, TransportLayout

__all__ = ["VectorReplicaSimulation"]


class VectorReplicaSimulation:
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

    Replicas stop individually under the solo stop condition and are
    harvested — network writeback plus a caller callback — as they
    finish; the network's mutable result state (stats, link stats,
    queues) is reset between harvests so each callback observes exactly
    what a solo run of that replica would have left behind.
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
        plan = self._plan
        self.sims: list[FastWormSimulation] = []
        for replica, seed in enumerate(seeds):
            # Initial infections land on the active replica's row.
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
        """Solo drop-tail guard for one replica's unlimited injections.

        Mirrors the tail of :meth:`FastTransport.inject_batch` when the
        virtual hold-out could overflow a queue: links without room for
        their whole share get the per-packet treatment, survivors are
        credited and handed to the global wave.
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

        Grouped by ``(replica, link)`` with one global stable sort —
        per-group semantics (drop-tail, enqueue credit, lazy peak,
        non-empty tracking) mirror
        :meth:`FastTransport._enqueue_grouped`'s limited branch, and the
        stable sort preserves each replica's solo FIFO order per link.
        """
        key = w_rep * link_count + w_lj
        order = np.argsort(key, kind="stable")
        dst_s = w_dst[order].tolist()
        uk, starts = np.unique(key[order], return_index=True)
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
        sims = self.sims
        hosts = self.hosts
        network = self.network
        layout = self.layout
        plan = self._plan
        replicas = self.replicas
        link_count = len(layout.keys)
        n = layout.n

        transports = [sim.transport for sim in sims]
        gens = [sim._gen for sim in sims]
        recorders = [sim.recorder for sim in sims]
        quars = [sim.quarantine for sim in sims]
        immus = [sim.immunization for sim in sims]

        # Scan parameters are scenario-determined, identical across
        # replicas by construction.
        s0 = sims[0]
        whole = s0._scan_whole
        frac = s0._scan_frac
        hit = s0._hit
        local_pref = s0._local_pref
        tables = getattr(s0, "_subnet_tables", None)
        pool = s0._infectable_arr
        subnet_arr = s0._subnet_arr
        lan = s0.lan_delivery and subnet_arr is not None

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
        plan_member = np.zeros(link_count, dtype=bool)
        rate_dep = layout.l_rate
        burst_dep = layout.l_burst
        dep_idx = static_idx
        has_plan_links = plan is not None and plan.link_idx.size > 0
        if has_plan_links:
            plan_member[plan.link_idx] = True
            rate_dep = layout.l_rate.copy()
            burst_dep = layout.l_burst.copy()
            rate_dep[plan.link_idx] = plan.link_rates
            burst_dep[plan.link_idx] = plan.link_bursts
            dep_idx = np.unique(
                np.concatenate([static_idx, plan.link_idx])
            )
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

        lan_pending: list[list[int]] = [[] for _ in range(replicas)]
        lan_ready: list[list[int]] = [[] for _ in range(replicas)]

        parent = layout.parent
        key_array = layout.key_array
        link_dst_arr = layout.link_dst_arr
        min_cap = layout.min_cap
        max_q_arr = np.asarray(layout.max_queue, dtype=np.int64)

        # Global store for unlimited-link waiters.  In the solo engine a
        # cascade waiter sits in its link's deque until the next tick's
        # sweep; here the waiters of *all* replicas live in shared
        # chunk arrays keyed by ``replica * L + link``, with per-key
        # depths for the drop-tail bound, so both the enqueue and the
        # next sweep are single sorted passes instead of per-replica
        # loops.  Invariant: outside the guard/trickle window of a tick,
        # every real unlimited deque is empty — the only scalar writers
        # (the inject guard, the limited trickle, a deploy flush) mark
        # their replica in ``dirty``, and the sweep drains those deques
        # alongside the store, in solo chronological order.
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

        policy = next(
            (im._policy for im in immus if im is not None), None
        )
        if policy is not None:
            mu = policy.mu
            patch_infected = policy.patch_infected
        infectable_arr = s0._infectable_arr

        live = np.arange(replicas, dtype=np.int64)
        last_tick = max_ticks - 1
        for tick in range(max_ticks):
            live_list = live.tolist()
            nlive = live.size
            hosts.refill_all_throttles()

            # -------------------- scan phase --------------------
            rows, cols = np.nonzero(status[live] == INFECTED)
            wave_li: list[np.ndarray] = []
            wave_dst: list[np.ndarray] = []
            wave_rep: list[np.ndarray] = []
            arrive_rep: list[np.ndarray] = []
            arrive_dst: list[np.ndarray] = []
            dark = None
            if rows.size:
                if frac > 0.0:
                    seg = np.bincount(rows, minlength=nlive)
                    bounds = np.zeros(nlive + 1, dtype=np.int64)
                    np.cumsum(seg, out=bounds[1:])
                    buf = np.empty(rows.size)
                    for i in range(nlive):
                        a, b = int(bounds[i]), int(bounds[i + 1])
                        if a != b:
                            buf[a:b] = gens[live_list[i]].random(b - a)
                    counts = whole + (buf < frac).astype(np.int64)
                else:
                    counts = np.full(rows.size, whole, dtype=np.int64)
                counts = hosts.throttle_gate_grouped(
                    live[rows], cols, counts
                )
                totals = np.bincount(
                    rows, weights=counts, minlength=nlive
                ).astype(np.int64)
                origins = np.repeat(cols, counts)
                rep_o = np.repeat(rows, counts)
                if hit < 1.0 and origins.size:
                    ob = np.zeros(nlive + 1, dtype=np.int64)
                    np.cumsum(totals, out=ob[1:])
                    buf = np.empty(origins.size)
                    for i in range(nlive):
                        a, b = int(ob[i]), int(ob[i + 1])
                        if a != b:
                            buf[a:b] = gens[live_list[i]].random(b - a)
                    keep = buf < hit
                    origins = origins[keep]
                    rep_o = rep_o[keep]
                dark = totals - np.bincount(rep_o, minlength=nlive)
                if origins.size and pool.size >= 2:
                    tb = np.zeros(nlive + 1, dtype=np.int64)
                    np.cumsum(
                        np.bincount(rep_o, minlength=nlive), out=tb[1:]
                    )
                    targets = np.empty(origins.size, dtype=np.int64)
                    for i in range(nlive):
                        a, b = int(tb[i]), int(tb[i + 1])
                        if a == b:
                            continue
                        gen = gens[live_list[i]]
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
                            l_t = targets[local].tolist()
                            lb = np.zeros(nlive + 1, dtype=np.int64)
                            np.cumsum(
                                np.bincount(l_rep, minlength=nlive),
                                out=lb[1:],
                            )
                            for i in range(nlive):
                                a, b = int(lb[i]), int(lb[i + 1])
                                if a != b:
                                    lan_pending[live_list[i]].extend(
                                        l_t[a:b]
                                    )
                            remote = ~local
                            origins = origins[remote]
                            targets = targets[remote]
                            rep_o = rep_o[remote]
                    if origins.size:
                        reps_act = live[rep_o]
                        injected_arr += np.bincount(
                            reps_act, minlength=replicas
                        )
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
                            lb = np.zeros(nlive + 1, dtype=np.int64)
                            np.cumsum(
                                np.bincount(l_rep, minlength=nlive),
                                out=lb[1:],
                            )
                            for i in range(nlive):
                                a, b = int(lb[i]), int(lb[i + 1])
                                if a == b:
                                    continue
                                r = live_list[i]
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
                            sizes = np.bincount(rep_o, minlength=nlive)
                            ub = np.zeros(nlive + 1, dtype=np.int64)
                            np.cumsum(sizes, out=ub[1:])
                            guard = [
                                i
                                for i in range(nlive)
                                if sizes[i]
                                and transports[live_list[i]].queued_u
                                + int(pend_count[live_list[i]])
                                + int(sizes[i])
                                > min_cap
                            ]
                            if guard:
                                for i in guard:
                                    a, b = int(ub[i]), int(ub[i + 1])
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
                            uk, cnt = np.unique(
                                key, return_counts=True
                            )
                            enq_flat[uk] += cnt
                            fwd_flat[uk] += cnt
                            peak_flat[uk] = np.maximum(
                                peak_flat[uk], cnt
                            )
                            wave_li.append(li)
                            wave_dst.append(targets)
                            wave_rep.append(reps_act)
                if quars[0] is not None:
                    for i in np.flatnonzero(dark).tolist():
                        q = quars[live_list[i]]
                        seen = int(
                            gens[live_list[i]].binomial(
                                int(dark[i]), q.telescope.coverage
                            )
                        )
                        if seen:
                            q.telescope.record_hits(seen)

            # ------------------- transmit phase -------------------
            # Budgeted rows refill their own tokens in transmit_tick.
            vec_rows = live[~budgeted[live]] if exact else live
            dep_rows = vec_rows[deployed[vec_rows]]
            nod_rows = vec_rows[~deployed[vec_rows]]
            if static_idx.size and nod_rows.size:
                ix = np.ix_(nod_rows, static_idx)
                tok2[ix] = np.minimum(
                    tok2[ix] + layout.l_rate[static_idx],
                    layout.l_burst[static_idx],
                )
            if dep_idx.size and dep_rows.size:
                ix = np.ix_(dep_rows, dep_idx)
                tok2[ix] = np.minimum(
                    tok2[ix] + rate_dep[dep_idx], burst_dep[dep_idx]
                )
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
            # ``replica * L + link`` reproduces each replica's solo
            # emission order (links ascending, FIFO per link, store
            # content before same-tick scalar enqueues).
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
                uk, cnt = np.unique(key[order], return_counts=True)
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
                            uk, starts, cnts = np.unique(
                                key[order],
                                return_index=True,
                                return_counts=True,
                            )
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
                    uk, cnt = np.unique(key, return_counts=True)
                    enq_flat[uk] += cnt
                    fwd_flat[uk] += cnt
                    peak_flat[uk] = np.maximum(peak_flat[uk], cnt)
                    src_li = lj

            # -------------------- deliver phase --------------------
            for r in live_list:
                ready = lan_ready[r]
                if ready:
                    arrive_rep.append(
                        np.full(len(ready), r, dtype=np.int64)
                    )
                    arrive_dst.append(
                        np.asarray(ready, dtype=np.int64)
                    )
                lan_ready[r] = lan_pending[r]
                lan_pending[r] = []
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
                reps_new, _nodes = hosts.infect_grouped(
                    a_rep, a_dst, tick
                )
                if reps_new.size:
                    newc = np.bincount(reps_new, minlength=replicas)
                    sus_arr -= newc
                    inf_arr += newc
                    for r in np.flatnonzero(newc).tolist():
                        recorders[r].note_infection(int(newc[r]))

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
                    im = immus[r]
                    if not im._active:
                        if not im._should_start(
                            tick, recorders[r].ever_infected
                        ):
                            continue
                        im._active = True
                        im.started_at = tick
                    act.append(r)
                if act:
                    act_arr = np.asarray(act, dtype=np.int64)
                    sub = status[np.ix_(act_arr, infectable_arr)]
                    elig = sub == SUSCEPTIBLE
                    if patch_infected:
                        elig |= sub == INFECTED
                    err, ecc = np.nonzero(elig)
                    if err.size:
                        eb = np.zeros(len(act) + 1, dtype=np.int64)
                        np.cumsum(
                            np.bincount(err, minlength=len(act)),
                            out=eb[1:],
                        )
                        chosen_rep: list[np.ndarray] = []
                        chosen_node: list[np.ndarray] = []
                        for i, r in enumerate(act):
                            a, b = int(eb[i]), int(eb[i + 1])
                            if a == b:
                                continue
                            draws = gens[r].random(b - a)
                            pick = draws < mu
                            if pick.any():
                                nodes_sel = infectable_arr[
                                    ecc[a:b][pick]
                                ]
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
                            for r in np.flatnonzero(tot).tolist():
                                immus[r].patched += int(tot[r])

            # ----------------- observe / stop / harvest -----------------
            for r in live_list:
                recorders[r].record_counts(
                    tick,
                    int(sus_arr[r]),
                    int(inf_arr[r]),
                    int(imm_arr[r]),
                )
            if tick == last_tick:
                finished = live
            else:
                over = (inf_arr[live] == 0) | (sus_arr[live] == 0)
                finished = live[over]
                live = live[~over]
            if finished.size and pend_rep:
                # Residual in-flight packets: a finishing replica's
                # pending waiters become its real queue contents, which
                # writeback materializes exactly like the solo engine's.
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
            for r in finished.tolist():
                sim = sims[r]
                t = transports[r]
                t.injected += int(injected_arr[r])
                t.delivered += int(delivered_arr[r])
                sim._final_tick = tick
                dirty.discard(r)
                exact.discard(r)
                self._finalize(r, sim, harvest)
            if tick == last_tick or live.size == 0:
                break
