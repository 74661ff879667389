"""Array-backed link transport for the fast engines.

Moves packets over a network's directed links on flat arrays, the
specification being the typed-packet sweep the test suite keeps as its
oracle (``tests/oracle.py``):

* links are indexed by their routing slot, which is sorted-key order, so
  "process links in sorted key order" becomes "process indices
  ascending", and a packet's next link is one read of the routing
  tables' next-link rows (``link_rows[destination][node]``);
* queues hold bare destination node ids instead of packet objects;
* non-empty links are tracked in two sets (unlimited / rate-limited) so
  a tick only touches links that can actually move packets;
* token buckets and forwarding budgets are plain floats updated with the
  same operation sequence (refill once per tick, one subtraction per
  packet, same 1e-12 epsilon), so rate-limit behavior is bit-identical;
  they come from defense plans, never from the network: the static
  plan's in the :class:`TransportLayout` template, a quarantine plan's
  through :meth:`FastTransport.apply_limit_plan` when it deploys.

Three ways move packets:

* **The array sweep**, :meth:`MirrorTransport.transmit_tick`, backs the
  mirror engine while no link has a token bucket, no node has a
  forwarding budget and fewer packets are in flight than the queue
  bound.  Then every link drains its whole queue and nothing is
  dropped, so the tick's waiting and injected packets move through the
  next-link table in waves, a packet moving on within the tick only
  onto a higher-indexed link (one the sweep has not reached yet);
  counters are bincounts, and the packets left waiting are sorted into
  the FIFO order the per-packet sweep would give them.  The first limit,
  budget or drop risk hands them to the deques, and the transport stays
  on the per-packet sweep.
* **The per-packet sweep**, :meth:`FastTransport.transmit_tick`,
  reproduces the oracle's typed-packet sweep packet for packet and
  counter for counter, token buckets, budgets and drop-tail included;
  it backs rate-limited, budgeted or near-full mirror runs and the
  vector engine's budgeted replicas, and enqueues through
  :meth:`~FastTransport.enqueue`.
* **The vector wave** lives in
  :class:`~repro.simulator.fastpath.vector.VectorReplicaSimulation`,
  which keeps every other replica's waiting packets in its own arrays
  and uses a transport only for counters, token balances and results;
  a replica it hands to the per-packet sweep has its waiting packets
  placed into the deques with :meth:`~FastTransport.hold`, which
  credits nothing a second time.

A run's results live in its transport and nowhere else: the network is
input only.  Per-link counters are kept on two tracks: plain python
lists, written by the per-packet sweep, and numpy vectors, written by
the array sweep and the vector engine (views into its
``(replica, link)`` arrays).  Each representation is an order of
magnitude faster for its access pattern.  Additive counters sum and
peaks take the elementwise max in :meth:`~FastTransport.link_arrays`,
which folds both tracks exactly and adds the residual queue depths.
"""

from __future__ import annotations

from collections import defaultdict, deque
from heapq import heappop, heappush
from typing import NamedTuple

import numpy as np

from ..defense import DefensePlan, filter_columns, no_defense
from ..network import Network

__all__ = ["FastTransport", "LinkArrays", "MirrorTransport", "TransportLayout"]


class LinkArrays(NamedTuple):
    """A run's per-link results, one entry per directed link in edge order.

    Edge order lists ``(u, v)`` then ``(v, u)`` for each edge ``(u, v)``
    of ``topology.edges``; the link-stat histograms list their buckets
    in it.  Per link: packets forwarded, dropped, enqueued and pushed
    back by a forwarding budget, the high-water mark of its queue, and
    ``depth``, the packets the link was left holding.
    """

    forwarded: np.ndarray
    dropped: np.ndarray
    enqueued: np.ndarray
    peak: np.ndarray
    requeued: np.ndarray
    depth: np.ndarray


class TransportLayout:
    """The immutable, shareable half of a :class:`FastTransport`.

    Link ordering, routing tables, the queue bound, and the static
    defense plan's rate-limit and budget templates are pure functions of
    the network and the plan; every replica of a vectorized ensemble
    transports packets over the same network, so one layout serves all
    of them.  Mutable per-replica state (queues, counters, token
    balances) stays in :class:`FastTransport`, which copies the cheap
    arrays and references the expensive ones.
    """

    def __init__(
        self, network: Network, defense: DefensePlan | None = None
    ) -> None:
        n = network.topology.num_nodes
        self.n = n
        routing = network.routing
        # Links are numbered by routing slot, which is (source,
        # destination) order: sorted key order, so a next-link gather
        # yields a layout index.
        src = routing.link_src.tolist()
        dst = routing.link_dst.tolist()
        keys = list(zip(src, dst))
        self.keys = keys
        count = len(keys)
        self.link_dst = dst
        #: Drop-tail bound of every link's queue; the array sweep runs
        #: only while fewer packets are in flight, so none can overflow.
        self.max_queue = network.max_queue
        #: Next-link rows, indexable as link_rows[destination][node].
        self.link_rows = routing.link_rows
        #: Whole next-link matrix for vectorized gathers (vector wave).
        self.next_link = routing.next_link
        self.link_dst_arr = routing.link_dst.astype(np.int64)
        #: Layout index of each link in edge order (see LinkArrays).
        edges = np.asarray(network.topology.edges, dtype=np.int64)
        u, v = edges.reshape(-1, 2).T
        self.network_order = np.searchsorted(
            routing.link_src.astype(np.int64) * n + self.link_dst_arr,
            np.stack((u * n + v, v * n + u), axis=1).reshape(-1),
        )
        # Rate-limit template: the static plan's links, each bucket
        # starting empty; unlimited links carry zero rate and burst.
        if defense is None:
            defense = no_defense(network)
        slots, rates, bursts = filter_columns(defense.links)
        self.limited_arr = np.zeros(count, dtype=bool)
        self.limited_arr[slots] = True
        self.limited = self.limited_arr.tolist()
        self.l_rate = np.zeros(count)
        self.l_rate[slots] = rates
        self.l_burst = np.zeros(count)
        self.l_burst[slots] = bursts
        self.limited_idx = np.flatnonzero(self.limited_arr)
        #: Node forwarding budgets: ``node -> (rate, burst)``.
        self.budgets = {
            node: (rate, burst) for node, rate, burst in defense.budgets
        }


class FastTransport:
    """Array-backed packet transport over a network's links.

    One :class:`TransportLayout` may serve many transports (the vector
    engine's replicas); the mirror engine's single run builds its own.
    """

    #: Per-link count of packets left waiting outside the deques, in
    #: layout order; the vector engine records a replica's when it
    #: finishes.
    waiting: np.ndarray | None = None

    def __init__(self, layout: TransportLayout) -> None:
        self.layout = layout
        self.keys = layout.keys
        count = len(self.keys)
        self.link_dst = layout.link_dst
        #: Lazy queue map: only links that ever held a packet get a
        #: deque, so per-replica construction and results cost scale
        #: with traffic, not topology size.
        self.queues: defaultdict[int, deque[int]] = defaultdict(deque)
        self.max_queue = layout.max_queue
        # Per-link counters: scalar track (python lists) ...
        self.fwd_list = [0] * count
        self.drop_list = [0] * count
        self.enq_list = [0] * count
        self.peak_list = [0] * count
        self.req_list = [0] * count
        # ... and vectorized track (numpy), folded by link_arrays.
        self.fwd_vec = np.zeros(count, dtype=np.int64)
        self.enq_vec = np.zeros(count, dtype=np.int64)
        self.peak_vec = np.zeros(count, dtype=np.int64)
        self.drop_vec = np.zeros(count, dtype=np.int64)
        # The run's packet totals and the packets in flight.
        self.injected = 0
        self.delivered = 0
        self.dropped_total = 0
        self.queued_total = 0
        #: Non-empty links, split by rate-limit status.
        self.nonempty_u: set[int] = set()
        self.nonempty_l: set[int] = set()
        self.link_rows = layout.link_rows
        # Rate-limit state: the layout's template.  Everything except
        # the token balances is shared copy-on-write: the only in-place
        # mutator (apply_limit_plan) replaces these attributes first, so
        # a thousand replicas sharing one template never alias a write.
        self.limited = layout.limited
        self.limited_arr = layout.limited_arr
        self.l_rate = layout.l_rate
        self.l_burst = layout.l_burst
        self.l_tokens = np.zeros(count)
        self._limited_idx = layout.limited_idx
        self.budget_rate = {
            node: rate for node, (rate, _) in layout.budgets.items()
        }
        self.budget_burst = {
            node: burst for node, (_, burst) in layout.budgets.items()
        }
        self.budget_tokens = dict.fromkeys(layout.budgets, 0.0)

    # ------------------------------------------------------------------
    # Rate-limit configuration
    # ------------------------------------------------------------------

    def apply_limit_plan(self, plan: DefensePlan) -> None:
        """Deploy a quarantine plan on this transport, network untouched.

        Each of the plan's links and budgets gets a fresh, empty bucket
        (replacing any the static plan put there), and links already
        holding packets are re-bucketed into the limited set.
        """
        slots, rates, bursts = filter_columns(plan.links)
        if slots.size:
            # Un-share the copy-on-write rate-limit template before the
            # first in-place write (see __init__).
            layout = self.layout
            if self.limited is layout.limited:
                self.limited = list(layout.limited)
            if self.limited_arr is layout.limited_arr:
                self.limited_arr = layout.limited_arr.copy()
            if self.l_rate is layout.l_rate:
                self.l_rate = layout.l_rate.copy()
            if self.l_burst is layout.l_burst:
                self.l_burst = layout.l_burst.copy()
            limited = self.limited
            for li in slots.tolist():
                limited[li] = True
            self.limited_arr[slots] = True
            self.l_rate[slots] = rates
            self.l_burst[slots] = bursts
            self.l_tokens[slots] = 0.0
            self._limited_idx = np.flatnonzero(self.limited_arr)
            occupied = self.nonempty_u | self.nonempty_l
            self.nonempty_l = {li for li in occupied if limited[li]}
            self.nonempty_u = occupied - self.nonempty_l
        for node, rate, burst in plan.budgets:
            self.budget_rate[node] = rate
            self.budget_burst[node] = burst
            self.budget_tokens[node] = 0.0

    def _refill_limited(self) -> None:
        """One tick of token accrual for every rate-limited link.

        Vectorized ``min(tokens + rate, burst)`` — IEEE-identical to
        refilling each bucket individually, and each bucket still
        refills exactly once per tick before its own consumption.
        """
        idx = self._limited_idx
        if idx.size:
            tokens = self.l_tokens
            tokens[idx] = np.minimum(
                tokens[idx] + self.l_rate[idx], self.l_burst[idx]
            )

    # ------------------------------------------------------------------
    # Exact packet movement (the reference sweep)
    # ------------------------------------------------------------------

    def inject(self, src: int, dst: int) -> None:
        """Enter a packet at ``src`` en route to ``dst`` (scan phase)."""
        self.injected += 1
        self.enqueue(self.link_rows[dst][src], dst)

    def enqueue(self, li: int, dst: int) -> None:
        """Append a packet bound for ``dst`` to link ``li``, drop-tail."""
        queue = self.queues[li]
        if len(queue) >= self.max_queue:
            self.drop_list[li] += 1
            self.dropped_total += 1
            return
        queue.append(dst)
        self.enq_list[li] += 1
        depth = len(queue)
        if depth > self.peak_list[li]:
            self.peak_list[li] = depth
        self.queued_total += 1
        if depth == 1:
            (self.nonempty_l if self.limited[li] else self.nonempty_u).add(li)

    def hold(self, li: int, dsts: list[int]) -> None:
        """Append packets already credited elsewhere to link ``li``.

        No enqueue, drop or peak counter moves: the vector engine
        counted these packets when it accepted them into its own store,
        and calls this to hand them to the exact sweep.
        ``queued_total`` takes over their in-flight count from the
        engine's depth array, which the engine zeroes for the replica.
        """
        if dsts:
            queue = self.queues[li]
            if not queue:
                held = self.nonempty_l if self.limited[li] else self.nonempty_u
                held.add(li)
            queue.extend(dsts)
            self.queued_total += len(dsts)

    def transmit_tick(self) -> list[int]:
        """Advance every link one tick; returns arrived destination ids.

        The oracle's typed-packet sweep, on destination ids: every
        bucket refills exactly once per tick (batched up front — each
        bucket's refill still precedes any consumption from it this
        tick), non-empty links drain in sorted order with same-tick
        multi-hop forwarding, and an exhausted forwarding budget pushes
        the blocked suffix back in FIFO order without refunding the link
        tokens already spent.
        """
        budget_tokens = self.budget_tokens
        for node in budget_tokens:
            budget_tokens[node] = min(
                budget_tokens[node] + self.budget_rate[node],
                self.budget_burst[node],
            )
        self._refill_limited()
        l_tokens = self.l_tokens
        queues = self.queues
        link_rows = self.link_rows
        limited = self.limited
        nonempty_u = self.nonempty_u
        nonempty_l = self.nonempty_l
        fwd_list = self.fwd_list
        enq_list = self.enq_list
        peak_list = self.peak_list
        arrived: list[int] = []
        heap = sorted(nonempty_u | nonempty_l)
        in_heap = set(heap)
        while heap:
            li = heappop(heap)
            queue = queues[li]
            if limited[li]:
                tokens = l_tokens[li]
                drained: list[int] = []
                while queue:
                    if not tokens + 1e-12 >= 1.0:
                        break
                    tokens -= 1.0
                    drained.append(queue.popleft())
                l_tokens[li] = tokens
            else:
                drained = list(queue)
                queue.clear()
            count = len(drained)
            fwd_list[li] += count
            self.queued_total -= count
            node = self.link_dst[li]
            has_budget = node in budget_tokens
            for index in range(count):
                dst = drained[index]
                if node == dst:
                    arrived.append(dst)
                    self.delivered += 1
                    continue
                if has_budget:
                    tokens = budget_tokens[node]
                    if tokens + 1e-12 >= 1.0:
                        budget_tokens[node] = tokens - 1.0
                    else:
                        blocked = drained[index:]
                        for back in reversed(blocked):
                            queue.appendleft(back)
                        backed = len(blocked)
                        fwd_list[li] -= backed
                        self.req_list[li] += backed
                        self.queued_total += backed
                        break
                lj = link_rows[dst][node]
                target_queue = queues[lj]
                if len(target_queue) >= self.max_queue:
                    self.drop_list[lj] += 1
                    self.dropped_total += 1
                    continue
                target_queue.append(dst)
                enq_list[lj] += 1
                depth = len(target_queue)
                if depth > peak_list[lj]:
                    peak_list[lj] = depth
                self.queued_total += 1
                if depth == 1:
                    (nonempty_l if limited[lj] else nonempty_u).add(lj)
                    if lj > li and lj not in in_heap:
                        heappush(heap, lj)
                        in_heap.add(lj)
            if not queue:
                (nonempty_l if limited[li] else nonempty_u).discard(li)
        return arrived

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def link_arrays(self) -> LinkArrays:
        """A finished run's per-link results, in edge order.

        Folds the scalar track into the vectorized one (counters sum,
        peaks take the larger), counts residual depth from the deques
        plus :attr:`waiting`, and closes out the lazy high-water mark
        of rate-limited links still holding packets in their deques.
        The scalar track is read only at links holding a queue entry,
        which every scalar write creates first.
        """
        count = len(self.keys)
        zeros = np.zeros(count, dtype=np.int64)
        waiting = self.waiting
        arrays = [
            self.fwd_vec,
            self.drop_vec,
            self.enq_vec,
            self.peak_vec,
            zeros,
            zeros if waiting is None else waiting,
        ]
        touched = list(self.queues)
        if touched:
            arrays = [array.copy() for array in arrays]
            fwd, drop, enq, peak, req, depth = arrays
            at = np.asarray(touched, dtype=np.int64)
            fwd[at] += [self.fwd_list[i] for i in touched]
            drop[at] += [self.drop_list[i] for i in touched]
            enq[at] += [self.enq_list[i] for i in touched]
            req[at] = [self.req_list[i] for i in touched]
            peak[at] = np.maximum(peak[at], [self.peak_list[i] for i in touched])
            queued = np.array(
                [len(self.queues[i]) for i in touched], dtype=np.int64
            )
            depth[at] += queued
            lim = self.limited_arr[at]
            at = at[lim]
            peak[at] = np.maximum(peak[at], queued[lim])
        order = self.layout.network_order
        return LinkArrays(*(array[order] for array in arrays))


class MirrorTransport(FastTransport):
    """The mirror engine's transport: the array sweep while it is exact.

    While no link has a token bucket, no node has a forwarding budget and
    fewer packets are in flight than the queue bound, every
    link drains its whole queue each tick and no queue can overflow, so
    :meth:`transmit_tick` moves the tick's packets as arrays instead of
    one at a time (see the module docstring).  Waiting packets live in
    two arrays sorted by link and FIFO position, and scans injected
    before the tick wait in two lists.

    The switch to the per-packet sweep is one-way: the first rate limit
    or budget (in the static plan, or one :meth:`apply_limit_plan`
    deploys) or an injection that would bring the packets in flight up
    to the queue bound puts the waiting packets into the deques
    in the per-packet sweep's FIFO order, and every later tick runs
    :meth:`FastTransport.transmit_tick`.
    """

    def __init__(
        self, network: Network, defense: DefensePlan | None = None
    ) -> None:
        layout = TransportLayout(network, defense)
        super().__init__(layout)
        self._inj_src: list[int] = []
        self._inj_dst: list[int] = []
        #: Waiting packets of the array sweep; ``None`` once the
        #: deques hold them.
        self._wait_link: np.ndarray | None = None
        self._wait_dst: np.ndarray | None = None
        #: Injections stay on the arrays while ``queued_total`` is below
        #: this; 0 sends every injection to the deques.
        self._room = 0
        if not (layout.limited_idx.size or layout.budgets):
            self._wait_link = self._wait_dst = np.empty(0, dtype=np.int64)
            self._room = layout.max_queue - 1

    def _to_deques(self) -> None:
        """Hand the array sweep's packets to the per-packet sweep."""
        if self._wait_link is None:
            return
        links = self._wait_link.tolist()
        dsts = self._wait_dst.tolist()
        self._wait_link = self._wait_dst = None
        self._room = 0
        queues = self.queues
        limited = self.limited
        for li, dst in zip(links, dsts):
            queue = queues[li]
            if not queue:
                (self.nonempty_l if limited[li] else self.nonempty_u).add(li)
            queue.append(dst)
        pending = list(zip(self._inj_src, self._inj_dst))
        self._inj_src = []
        self._inj_dst = []
        # Injections not yet swept were counted in flight but never
        # enqueued: enqueue them now, in injection order.
        self.queued_total -= len(pending)
        for src, dst in pending:
            self.enqueue(self.link_rows[dst][src], dst)

    def apply_limit_plan(self, plan: DefensePlan) -> None:
        super().apply_limit_plan(plan)
        if self._limited_idx.size or self.budget_tokens:
            self._to_deques()

    @property
    def waiting(self) -> np.ndarray | None:
        """Per-link count of the array sweep's waiting packets."""
        if self._wait_link is None:
            return None
        return np.bincount(self._wait_link, minlength=len(self.keys))

    def inject(self, src: int, dst: int) -> None:
        if self.queued_total < self._room:
            self.injected += 1
            self.queued_total += 1
            self._inj_src.append(src)
            self._inj_dst.append(dst)
        else:
            self._to_deques()
            super().inject(src, dst)

    def transmit_tick(self) -> list[int]:
        """Advance every link one tick; returns arrived destination ids.

        On the arrays, wave ``k`` drains every packet still moving from
        its current link: it arrives, waits on a lower-indexed next link
        (already drained this tick), or moves on to a higher-indexed one
        (drained later this tick) in wave ``k + 1``.  Counters are
        bincounts of the drains and moves; a link's peak is the larger
        of what it drained (its depth when the sweep reached it) and
        what it is left holding.  Waiting packets are ordered as the
        per-packet sweep queues them: by link, then by the chain of
        links each drained from this tick, last link first, a chain
        that starts at a link ahead of one that reached it, then by
        FIFO position at the start of the tick.
        """
        if self._wait_link is None:
            return super().transmit_tick()
        layout = self.layout
        link_dst = layout.link_dst_arr
        next_link = layout.next_link
        carried = self._wait_link.size
        links = self._wait_link
        dsts = self._wait_dst
        if self._inj_dst:
            injected = np.array(self._inj_dst)
            links = np.concatenate(
                (links, next_link[injected, self._inj_src])
            )
            dsts = np.concatenate((dsts, injected))
            self._inj_src = []
            self._inj_dst = []
        if not links.size:
            return []
        count = len(self.keys)
        # Per wave: which packets drained (by index into links/dsts) and
        # from where; where forwarded packets went; who stopped where.
        steps: list[tuple[np.ndarray, np.ndarray]] = []
        moved: list[np.ndarray] = [links[carried:]]
        arrived: list[np.ndarray] = []
        stopped: list[tuple[np.ndarray, np.ndarray, int]] = []
        at = links
        to = dsts
        who = np.arange(links.size)
        while at.size:
            steps.append((who, at))
            nodes = link_dst[at]
            home = nodes == to
            if home.any():
                arrived.append(to[home])
                away = ~home
                at, to, who, nodes = at[away], to[away], who[away], nodes[away]
            nxt = next_link[to, nodes]
            moved.append(nxt)
            on = nxt > at
            if not on.all():
                off = ~on
                stopped.append((who[off], nxt[off], len(steps) - 1))
                at, to, who = nxt[on], to[on], who[on]
            else:
                at = nxt
        drained = np.bincount(
            np.concatenate([step[1] for step in steps]), minlength=count
        )
        self.fwd_vec += drained
        self.enq_vec += np.bincount(np.concatenate(moved), minlength=count)
        peak = self.peak_vec
        np.maximum(peak, drained, out=peak)
        if stopped:
            who = np.concatenate([w for w, _, _ in stopped])
            wait = np.concatenate([link for _, link, _ in stopped])
            last = np.concatenate(
                [np.full(w.size, k) for w, _, k in stopped]
            )
            np.maximum(peak, np.bincount(wait, minlength=count), out=peak)
            depth = stopped[-1][2] + 1
            chain = np.full((depth, links.size), -1, dtype=np.int64)
            for k in range(depth):
                chain[k, steps[k][0]] = steps[k][1]
            keys = [who]
            for back in range(depth - 1, -1, -1):
                k = last - back
                keys.append(
                    np.where(k >= 0, chain[np.maximum(k, 0), who], -1)
                )
            keys.append(wait)
            order = np.lexsort(keys)
            self._wait_link = wait[order]
            self._wait_dst = dsts[who[order]]
        else:
            self._wait_link = self._wait_dst = np.empty(0, dtype=np.int64)
        if not arrived:
            return []
        out = np.concatenate(arrived)
        self.delivered += out.size
        self.queued_total -= out.size
        return out.tolist()
