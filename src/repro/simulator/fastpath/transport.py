"""Array-backed link transport for the fast engines.

Mirrors :meth:`Network.transmit_tick` over flat arrays:

* links are indexed by their routing slot, which is sorted-key order, so
  "process links in sorted key order" becomes "process indices
  ascending", and a packet's next link is one read of the routing
  tables' next-link rows (``link_rows[destination][node]``);
* queues hold bare destination node ids instead of
  :class:`~repro.simulator.packet.Packet` objects;
* non-empty links are tracked in two sets (unlimited / rate-limited) so
  a tick only touches links that can actually move packets;
* token buckets and forwarding budgets are plain floats updated with the
  same operation sequence (refill once per tick, one subtraction per
  packet, same 1e-12 epsilon), so rate-limit behavior is bit-identical.

Two transmit paths move packets, each with one enqueue routine that
applies drop-tail, enqueue credit, peak depth and non-empty tracking.
The exact sweep, :meth:`transmit_tick`, reproduces the reference packet
for packet and counter for counter; it backs the mirror engine and the
vector engine's budgeted replicas, and enqueues through
:meth:`enqueue`.  The vector wave lives in
:class:`~repro.simulator.fastpath.vector.VectorReplicaSimulation`, which
keeps every other replica's waiting packets in its own arrays and uses
a transport only for counters, token balances and writeback; a replica it hands to the exact sweep has its
waiting packets placed into the deques with :meth:`hold`, which credits
nothing a second time.

Per-link counters are kept on two tracks: plain python lists, written
by the exact sweep, and numpy vectors, written by the vector engine
(views into its ``(replica, link)`` arrays).  Each representation is an
order of magnitude faster for its access pattern.  Additive counters
sum and peaks take the elementwise max at writeback, which folds both
tracks exactly.
"""

from __future__ import annotations

import gc
from collections import defaultdict, deque
from heapq import heappop, heappush

import numpy as np

from ..network import Network
from ..packet import Packet, PacketKind

__all__ = ["FastTransport", "TransportLayout"]


class TransportLayout:
    """The immutable, shareable half of a :class:`FastTransport`.

    Link ordering, routing tables, queue capacities, and the *initial*
    rate-limit/budget mirror are pure functions of the network as built
    (topology + static defense); every replica of a vectorized ensemble
    transports packets over the same network, so one layout serves all
    of them.  Mutable per-replica state (queues, counters, token
    balances) stays in :class:`FastTransport`, which copies the cheap
    arrays and references the expensive ones.

    Build the layout *after* static defenses are applied and *before*
    any dynamic deploy — the same point in time at which a mirror run's
    ``FastTransport(network)`` builds the identical state.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        n = network.topology.num_nodes
        self.n = n
        routing = network.routing
        # Links are numbered by routing slot, which is (source,
        # destination) order: sorted key order, so a next-link gather
        # yields a layout index.  The lookups below fail on a key the
        # network lacks, so equal counts mean equal key sets.
        src = routing.link_src.tolist()
        dst = routing.link_dst.tolist()
        keys = list(zip(src, dst))
        assert len(keys) == len(network.links)
        self.keys = keys
        count = len(keys)
        self.link_dst = dst
        self.max_queue = [network.links[key].max_queue for key in keys]
        #: Next-link rows, indexable as link_rows[destination][node].
        self.link_rows = routing.link_rows
        #: Whole next-link matrix for vectorized gathers (vector wave).
        self.next_link = routing.next_link
        self.link_dst_arr = routing.link_dst.astype(np.int64)
        #: Layout index of each link in ``network.links`` order — the
        #: order the link-stat histograms list their buckets in.
        self.network_order = np.searchsorted(
            routing.link_src.astype(np.int64) * n + self.link_dst_arr,
            np.fromiter(
                (u * n + v for u, v in network.links),
                dtype=np.int64,
                count=count,
            ),
        )
        # Rate-limit template: the network's bucket/budget state at
        # layout time, which each transport copies instead of re-reading
        # the links (sync_limits semantics with no prior token state).
        buckets = [network.links[key].bucket for key in keys]
        self.link_buckets = buckets
        self.limited = [bucket is not None for bucket in buckets]
        self.limited_arr = np.array(self.limited, dtype=bool)
        self.l_rate = np.array(
            [b.rate if b is not None else 0.0 for b in buckets]
        )
        self.l_burst = np.array(
            [b.burst if b is not None else 0.0 for b in buckets]
        )
        self.l_tokens0 = np.array(
            [b.tokens if b is not None else 0.0 for b in buckets]
        )
        self.limited_idx = np.flatnonzero(self.limited_arr)
        self.budget_buckets = dict(network.forward_budgets)


class FastTransport:
    """Array-backed packet transport over a network's links.

    Pass ``layout`` to share one :class:`TransportLayout` across many
    transports (the vector engine's replicas); omit it for the mirror
    engine's single run, which builds a private layout from the network.
    """

    def __init__(
        self, network: Network, layout: TransportLayout | None = None
    ) -> None:
        self.network = network
        if layout is None:
            layout = TransportLayout(network)
        self.layout = layout
        self.keys = layout.keys
        count = len(self.keys)
        self.link_dst = layout.link_dst
        #: Lazy queue map: only links that ever held a packet get a
        #: deque, so per-replica construction and writeback cost scale
        #: with traffic, not topology size.
        self.queues: defaultdict[int, deque[int]] = defaultdict(deque)
        self.max_queue = layout.max_queue
        # Per-link counters: scalar track (python lists) ...
        self.fwd_list = [0] * count
        self.drop_list = [0] * count
        self.enq_list = [0] * count
        self.peak_list = [0] * count
        self.req_list = [0] * count
        # ... and vectorized track (numpy), folded at writeback.
        self.fwd_vec = np.zeros(count, dtype=np.int64)
        self.enq_vec = np.zeros(count, dtype=np.int64)
        self.peak_vec = np.zeros(count, dtype=np.int64)
        self.drop_vec = np.zeros(count, dtype=np.int64)
        # NetworkStats mirror: totals *since this transport started*;
        # trace emission adds the network's pre-existing base counts.
        self.injected = 0
        self.delivered = 0
        self.dropped_total = 0
        self.queued_total = 0
        #: Non-empty links, split by rate-limit status.
        self.nonempty_u: set[int] = set()
        self.nonempty_l: set[int] = set()
        self.link_rows = layout.link_rows
        # Rate-limit state: the layout's template — exactly what
        # sync_limits would mirror from the network with no prior token
        # state (new buckets adopt their own token counts).  Everything
        # except the token balance is shared copy-on-write: the only
        # in-place mutators (apply_limit_plan) and wholesale rebuilders
        # (sync_limits) replace these attributes first, so a thousand
        # replicas sharing one template never alias a write.
        self._link_buckets = layout.link_buckets
        self.limited = layout.limited
        self.limited_arr = layout.limited_arr
        self.l_rate = layout.l_rate
        self.l_burst = layout.l_burst
        self.l_tokens = layout.l_tokens0.copy()
        self._limited_idx = layout.limited_idx
        self._budget_buckets: dict[int, object] = dict(layout.budget_buckets)
        self.budget_rate = {
            node: bucket.rate
            for node, bucket in self._budget_buckets.items()
        }
        self.budget_burst = {
            node: bucket.burst
            for node, bucket in self._budget_buckets.items()
        }
        self.budget_tokens = {
            node: bucket.tokens
            for node, bucket in self._budget_buckets.items()
        }

    # ------------------------------------------------------------------
    # Rate-limit configuration
    # ------------------------------------------------------------------

    def sync_limits(self) -> None:
        """Mirror link buckets and node forwarding budgets into arrays.

        Called at construction and after a mid-run quarantine deploy.
        Buckets whose object identity is unchanged keep the token balance
        this transport accrued (the network-side objects are not updated
        during a fast run); newly installed buckets adopt their own
        (freshly zero) token count.
        """
        old_tokens = {
            id(bucket): tokens
            for bucket, tokens in zip(self._link_buckets, self.l_tokens)
            if bucket is not None
        }
        network = self.network
        buckets = [network.links[key].bucket for key in self.keys]
        self._link_buckets = buckets
        self.limited = [bucket is not None for bucket in buckets]
        self.limited_arr = np.array(self.limited, dtype=bool)
        self.l_rate = np.array(
            [b.rate if b is not None else 0.0 for b in buckets]
        )
        self.l_burst = np.array(
            [b.burst if b is not None else 0.0 for b in buckets]
        )
        self.l_tokens = np.array(
            [
                old_tokens.get(id(b), b.tokens) if b is not None else 0.0
                for b in buckets
            ]
        )
        self._limited_idx = np.flatnonzero(self.limited_arr)
        # A deploy may have installed buckets on links that already hold
        # queued packets; re-bucket the non-empty sets to match.
        occupied = self.nonempty_u | self.nonempty_l
        self.nonempty_l = {li for li in occupied if self.limited[li]}
        self.nonempty_u = occupied - self.nonempty_l
        old_budget_tokens = {
            id(bucket): self.budget_tokens[node]
            for node, bucket in self._budget_buckets.items()
            if node in self.budget_tokens
        }
        self._budget_buckets = dict(network.forward_budgets)
        self.budget_rate = {}
        self.budget_burst = {}
        self.budget_tokens = {}
        for node, bucket in self._budget_buckets.items():
            self.budget_rate[node] = bucket.rate
            self.budget_burst[node] = bucket.burst
            self.budget_tokens[node] = old_budget_tokens.get(
                id(bucket), bucket.tokens
            )

    def apply_limit_plan(
        self,
        link_idx: np.ndarray,
        rates: np.ndarray,
        bursts: np.ndarray,
        budgets: dict[int, tuple[float, float]],
    ) -> None:
        """Install a captured quarantine deployment, network untouched.

        The replica engine records one real deploy of the quarantine
        response as a *plan* (link indices + rates, node budgets) and
        undoes it; each replica that triggers its own quarantine replays
        the plan here.  Semantically identical to deploying onto the
        network and calling :meth:`sync_limits`: fresh buckets start at
        zero tokens, links already holding packets are re-bucketed into
        the limited set.  (The ``_link_buckets``/``_budget_buckets``
        identity mirrors are *not* updated — they only serve
        ``sync_limits``'s token carry-over, which the plan path never
        invokes mid-run.)
        """
        if link_idx.size:
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
            for li in link_idx.tolist():
                limited[li] = True
            self.limited_arr[link_idx] = True
            self.l_rate[link_idx] = rates
            self.l_burst[link_idx] = bursts
            self.l_tokens[link_idx] = 0.0
            self._limited_idx = np.flatnonzero(self.limited_arr)
            occupied = self.nonempty_u | self.nonempty_l
            self.nonempty_l = {li for li in occupied if limited[li]}
            self.nonempty_u = occupied - self.nonempty_l
        for node, (rate, burst) in budgets.items():
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
        if len(queue) >= self.max_queue[li]:
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
        and calls this to hand them to the exact sweep or to writeback.
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

        Identical semantics to :meth:`Network.transmit_tick`: every
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
                if len(target_queue) >= self.max_queue[lj]:
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
    # Writeback
    # ------------------------------------------------------------------

    def link_stat_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Folded per-link ``(peak_queue, dropped)`` in ``network.links`` order.

        The values :meth:`writeback` adds onto a fresh network's link
        stats — scalar track max/plus vectorized track, and the lazy
        high-water mark of rate-limited links still holding packets — for
        every link at once, so a caller that only needs link-stat
        *distributions* (the runner's histograms) can skip writing the
        links back.  Call after writeback.  The scalar track is read
        only at links holding a queue entry, which every scalar write
        creates first (see :meth:`writeback`).
        """
        peak = self.peak_vec.copy()
        dropped = self.drop_vec.copy()
        touched = list(self.queues)
        if touched:
            at = np.asarray(touched, dtype=np.int64)
            peak_list = self.peak_list
            drop_list = self.drop_list
            peak[at] = np.maximum(peak[at], [peak_list[i] for i in touched])
            dropped[at] += [drop_list[i] for i in touched]
            at = at[self.limited_arr[at]]
            if at.size:
                queues = self.queues
                depth = [len(queues[i]) for i in at.tolist()]
                peak[at] = np.maximum(peak[at], depth)
        order = self.layout.network_order
        return peak[order], dropped[order]

    def writeback(self, final_tick: int, *, links: bool = True) -> list[int]:
        """Copy accumulated counters and residual queues onto the network.

        Residual queued packets are materialized as
        :class:`~repro.simulator.packet.Packet` objects so post-run
        inspection (``total_queued``, ``queue_depths``, reports) matches
        a reference run; only the destination survives the int encoding,
        so the materialized packets carry the holding link's source node
        and the final tick as their provenance.

        With ``links=False`` only the aggregate ``network.stats``
        counters are written; per-link state stays in this transport
        (see :meth:`link_stat_arrays`).

        Returns the indices of links whose stats or queues were touched,
        so the replica engine can reset exactly those between replicas.
        Links this transport never moved a packet over are skipped
        entirely (their counter updates would all be ``+= 0``).
        """
        stats = self.network.stats
        stats.packets_injected += self.injected
        stats.packets_delivered += self.delivered
        stats.packets_dropped += self.dropped_total
        if not links:
            return []
        # Candidate links: the vectorized track's nonzero entries plus
        # every link that ever got a queue.  The scalar-track counters
        # (fwd/drop/enq/peak/req lists) are only written after a
        # ``queues[li]`` access, which creates the defaultdict entry —
        # so this set covers them, and links the run never moved a
        # packet over are skipped without a whole-topology walk.
        candidates = set(
            np.flatnonzero(
                self.fwd_vec | self.enq_vec | self.peak_vec | self.drop_vec
            ).tolist()
        )
        candidates.update(self.queues.keys())
        fwd_vec = self.fwd_vec
        enq_vec = self.enq_vec
        peak_vec = self.peak_vec
        drop_vec = self.drop_vec
        infection = PacketKind.INFECTION
        new_packet = Packet.__new__
        touched: list[int] = []
        keys = self.keys
        # Residual queues can hold 100k+ packets on rate-limited links;
        # pause collection while materializing them so the allocation
        # burst does not trigger repeated whole-heap scans.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for i in sorted(candidates):
                key = keys[i]
                forwarded = self.fwd_list[i] + int(fwd_vec[i])
                enqueued = self.enq_list[i] + int(enq_vec[i])
                dropped = self.drop_list[i] + int(drop_vec[i])
                requeued = self.req_list[i]
                peak = self.peak_list[i]
                if peak_vec[i] > peak:
                    peak = int(peak_vec[i])
                queue = self.queues.get(i)
                if not (
                    forwarded or enqueued or dropped or requeued
                    or peak or queue
                ):
                    continue
                touched.append(i)
                link = self.network.links[key]
                link_stats = link.stats
                link_stats.forwarded += forwarded
                link_stats.dropped += dropped
                link_stats.enqueued += enqueued
                link_stats.requeued += requeued
                if queue:
                    # Close out the lazy high-water mark for limited
                    # links (queues only grew since their last drain).
                    depth = len(queue)
                    if self.limited[i] and depth > peak:
                        peak = depth
                    src = link.src
                    packets = []
                    for dst in queue:
                        packet = new_packet(Packet)
                        packet.src = src
                        packet.dst = dst
                        packet.kind = infection
                        packet.created_tick = final_tick
                        packet.hops = 0
                        packets.append(packet)
                    link.load_queue(packets)
                if peak > link_stats.peak_queue:
                    link_stats.peak_queue = peak
        finally:
            if gc_was_enabled:
                gc.enable()
        return touched
