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
``(replica, host)`` axis, and one ``(tick, compartment, replica)`` curve
array.  Each replica keeps only its private run state in a
:class:`ReplicaState` record: RNG, quarantine loop, transport and
optional instrumentation.  The tick loop advances *all* live replicas
through each phase in one pass over the shared ``(replica, host)`` and
``(replica, link)`` state.  A live-replica mask shrinks the working set
as replicas die out, so a 1000-replica near-critical sweep pays for the
few replicas that take off, not the many that die at tick 2.

Sampling model
--------------
Per-host scan counts, hit masks, targets, telescope observations and
immunization draws come in bulk from each replica's numpy generator
(seeded from ``random.Random(seed)`` right after the initial infections
are placed, so a seed attacks the same hosts on every engine).  Runs are
*statistically* equivalent to the exact mirror engine — same epidemic law,
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
4. targets: uniform (``gen.integers(0, pool, total)``, then one
   ``gen.integers`` call per resample round over the scans that hit
   their own origin) or the local-preference kernel,
5. telescope observation (``gen.binomial``, only when scans went dark
   and a quarantine is watching),
6. immunization draws (``gen.random(n_candidates)`` over the eligible
   hosts in node order, only when the policy is active and candidates
   exist)

— while everything between draws (state flips, token arithmetic,
packet transport) is computed cross-replica.  A phase's uniforms fill
one buffer, each live replica writing its own slice in replica order;
uniform targets draw every replica's ``integers`` first, run one global
self-hit test, and resample only the replicas that hit — a resample is
still that replica's next draw.  Transport waves are merged globally,
but every per-replica *subsequence* of the global packet arrays keeps
the order that replica would see alone, and all counter updates key on
``replica * L + link``, so a replica's per-link statistics, queue
contents and drop-tail victims do not depend on its neighbours.  The
equivalence suite pins width-1 and grouped runs to the same golden
grid.

Transport relaxations
---------------------
Totals (packet counters, per-link forwarded/enqueued/dropped, queue
depths at tick end) follow the reference sweep; what is relaxed is
intra-tick interleaving: same-tick multi-hop cascades run in breadth
waves rather than strict sorted-link order, so when several packets race
into one rate-cut queue in a single tick, *which* of them waits can
differ from the reference, and peak depths of unlimited links record
per-tick batch sizes rather than transient per-packet depths.

Waiting packets
---------------
Every packet a vectorized replica leaves waiting on a link lives in the
group's arrays, keyed ``replica * L + link``, with one depth per key.
Packets bound for unlimited links wait in the *pending* store: chunks
that the next tick's sweep forwards whole.  Packets on rate-limited
links wait in the :class:`LimitedStore`'s FIFO lists.  An append is
accepted when it happens, in arrival order: drop-tail against the
key's depth (deferred packets included), enqueue credit, and the peak
depth — raised at once, except for cascade waiters on rate-limited
links, whose high-water mark is read right before each drain.  Store
appends are threaded onto their lists lazily, by one stable sort right
before the next drain.  A vectorized replica's transport holds no
queues: when the replica finishes, its depth row is recorded on the
transport (:attr:`~repro.simulator.fastpath.transport.FastTransport.
waiting`) and its packets are dropped from the stores.

The trickle drains the rate-limited keys holding a packet and a whole
token, ascending, one packet per token, like the reference sweep: the
high-water mark is read right before each drain, and each forward is
accepted at once, so it counts toward the depth a later key's drain
and drop-tail see, and leaves again this tick if it enters a later
ready key with a token to spare.  Only the ready keys' fronts are
visited: a few dozen packets a tick at paper scale, far fewer than
the queues behind them hold.  This is the only per-packet Python a
vectorized replica runs; its waiters never sit in its transport's
deques, so the sweep has no per-replica deques to visit.

Node forwarding budgets
-----------------------
Budgets serialize per-packet decisions, so a budgeted replica moves its
packets on the exact scalar sweep (:meth:`FastTransport.transmit_tick`).
A replica is *budgeted* from tick 0 when the static defense plan has
budgets, or from the tick its quarantine deploys a plan with budgets.
A budgeted replica's scan injections join its real queues, it skips the
shared token refill and both waiting-packet stores, and it transmits on
its own transport's exact sweep; everything else about it (draws,
infection, immunization, harvest) stays vectorized.

Dynamic quarantine
------------------
A deploy is data, like the static defense: the group calls the
quarantine response once, at construction, for its
:class:`~repro.simulator.defense.DefensePlan`, and each replica whose
detector fires deploys that plan on its private row and transport
(:meth:`HostArrays.activate_latent`, :meth:`FastTransport.
apply_limit_plan`), as a mirror run does.  Nor do results touch the
network: a replica's host stamps, link statistics and residual queue
depths — everything the results layer reads — stay in its
:class:`ReplicaState` (host rows, transport).
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from time import perf_counter

import numpy as np

from ...models.base import ModelError, Trajectory
from ...observability.instrumentation import Instrumentation
from ...observability.trace import tick_record
from ..defense import DefensePlan, filter_columns
from ..dynamic import DynamicQuarantine
from ..engine import PHASE_NAMES, Phase
from ..immunization import ImmunizationPolicy
from ..network import Network
from ..worms import LocalPreferentialWorm, RandomScanWorm, WormStrategy
from .state import IMMUNE, INFECTED, SUSCEPTIBLE, HostArrays
from .transport import FastTransport, TransportLayout

__all__ = ["ReplicaState", "VectorReplicaSimulation"]

_SCAN = PHASE_NAMES[Phase.SCAN]
_TRANSMIT = PHASE_NAMES[Phase.TRANSMIT]
_DELIVER = PHASE_NAMES[Phase.DELIVER]
_IMMUNIZE = PHASE_NAMES[Phase.IMMUNIZE]
_OBSERVE = PHASE_NAMES[Phase.OBSERVE]

#: Row of the ever-infected count in the group's compartment tally,
#: whose rows are susceptible, infected, immune and ever-infected.
_EVER = 3


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


def _uniforms(
    gens: Sequence[np.random.Generator], sizes: list[int], total: int
) -> np.ndarray:
    """Each generator's next ``size`` uniforms, concatenated in order."""
    buf = np.empty(total)
    a = 0
    for gen, k in zip(gens, sizes):
        gen.random(out=buf[a : a + k])
        a += k
    return buf


def _uniform_targets(
    gens: Sequence[np.random.Generator],
    sizes: list[int],
    pool: np.ndarray,
    origins: np.ndarray,
) -> np.ndarray:
    """Uniform targets over ``pool`` that never hit their own origin.

    ``origins`` holds consecutive segments of ``sizes`` scans, one per
    generator.  Every segment draws its targets first; one global test
    then finds the self-hits, and only segments holding one redraw them,
    round after round in position order — each generator sees the same
    call sequence as a loop over segments would make.
    """
    psize = pool.size
    idx = np.empty(origins.size, dtype=np.int64)
    a = 0
    for gen, k in zip(gens, sizes):
        idx[a : a + k] = gen.integers(0, psize, size=k)
        a += k
    targets = pool[idx]
    clash = np.flatnonzero(targets == origins)
    if clash.size:
        owner = np.searchsorted(np.cumsum(sizes), clash, side="right")
        for seg in np.unique(owner).tolist():
            bad = clash[owner == seg]
            gen = gens[seg]
            while bad.size:
                targets[bad] = pool[gen.integers(0, psize, size=bad.size)]
                bad = bad[targets[bad] == origins[bad]]
    return targets


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
        targets[rest] = _uniform_targets([gen], [n_rest], pool, origins[rest])
    return targets


def _segments(
    pos: np.ndarray, live: np.ndarray
) -> tuple[np.ndarray, list[int], list[int]]:
    """Per-live-replica lengths of a live-position-sorted array.

    Returns every live position's length plus the replica ids and
    lengths of the non-empty segments, in order — the draw plan of a
    per-replica sampling pass.
    """
    lengths = np.bincount(pos, minlength=live.size)
    nonempty = np.flatnonzero(lengths)
    return lengths, live[nonempty].tolist(), lengths[nonempty].tolist()


class ReplicaState:
    """One replica's private run state inside a vector group.

    This is what the harvest callback receives: the replica's curve
    (:meth:`trajectory`, :attr:`ever_infected`), its host state (row
    :attr:`replica` of the group's :attr:`hosts`, :attr:`infected_at`),
    its transport (per-link arrays and packet totals), its quarantine
    loop and its instrumentation.  The counts live in the group's
    compartment tally and ``(tick, compartment, replica)`` sample array;
    the record holds its column of both.
    """

    __slots__ = (
        "replica",
        "hosts",
        "gen",
        "quarantine",
        "transport",
        "instrumentation",
        "ticks_executed",
        "_population",
        "_tally",
        "_samples",
    )

    def __init__(
        self,
        replica: int,
        hosts: HostArrays,
        population: int,
        tally: np.ndarray,
        gen: np.random.Generator,
        quarantine: DynamicQuarantine | None,
        transport: FastTransport,
        instrumentation: Instrumentation | None,
    ) -> None:
        self.replica = replica
        self.hosts = hosts
        self._population = population
        self._tally = tally
        #: The group's samples, bound when the run starts.
        self._samples: np.ndarray | None = None
        self.gen = gen
        self.quarantine = quarantine
        self.transport = transport
        self.instrumentation = instrumentation
        #: Ticks this replica ran (replicas stop individually); set
        #: when it finishes.
        self.ticks_executed = 0

    @property
    def ever_infected(self) -> int:
        """Hosts this replica ever infected, initial infections included."""
        return int(self._tally[_EVER, self.replica])

    @property
    def infected_at(self) -> np.ndarray:
        """The replica's infection tick per node (-1: never), a view."""
        return self.hosts.infected_at[self.replica]

    def trajectory(self) -> Trajectory:
        """The replica's sampled curve, cut from the group's array."""
        ticks = self.ticks_executed
        if ticks < 2:
            raise ModelError(
                "need at least two sampled ticks to build a trajectory"
            )
        samples = self._samples[:ticks, :, self.replica]
        sus, inf, imm, ever = (samples[:, k].astype(float) for k in range(4))
        return Trajectory(
            times=np.arange(ticks, dtype=float),
            infected=inf,
            population=float(self._population),
            susceptible=sus,
            removed=imm,
            ever_infected=ever,
        )


def _cat(chunks: Sequence[np.ndarray]) -> np.ndarray:
    """``np.concatenate`` that returns a lone chunk as is."""
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _owned(replica: int, dsts: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """An arrival chunk: one replica's destination list."""
    reps = np.full(len(dsts), replica, dtype=np.int64)
    return reps, np.asarray(dsts, dtype=np.int64)


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


def _extract(
    chunks: list[tuple[np.ndarray, np.ndarray]],
    mask_of: Callable[[np.ndarray], np.ndarray],
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray, np.ndarray]:
    """Split ``(key, destination)`` chunks on a key mask.

    Returns the chunks of the unmasked packets and the masked packets'
    keys and destinations, both in chunk (chronological) order.
    """
    kept = []
    taken: list[tuple[np.ndarray, np.ndarray]] = []
    for keys, dsts in chunks:
        mine = mask_of(keys)
        if mine.any():
            taken.append((keys[mine], dsts[mine]))
            keys, dsts = keys[~mine], dsts[~mine]
        if keys.size:
            kept.append((keys, dsts))
    if not taken:
        empty = np.zeros(0, dtype=np.int64)
        return kept, empty, empty
    keys, dsts = map(_cat, zip(*taken))
    return kept, keys, dsts


class LimitedStore:
    """FIFO queues of the packets waiting on rate-limited links.

    One singly linked list per ``replica * L + link`` key, over growable
    node arrays (``nxt``, ``dst``) with a ``head`` and a ``tail`` node
    per key (``-1`` when empty).  Appends are accepted — drop-tail,
    counters — by the engine when they happen and parked in
    ``deferred`` as key-sorted ``(key, destination)`` chunks;
    :meth:`link` threads all of them onto the lists with one stable
    sort, so every list keeps arrival order.  Popped nodes are not
    reused: a run allocates one node per accepted packet.
    """

    def __init__(self, keys: int) -> None:
        self.head = np.full(keys, -1, dtype=np.int64)
        self.tail = np.full(keys, -1, dtype=np.int64)
        self.nxt = np.empty(1024, dtype=np.int64)
        self.dst = np.empty(1024, dtype=np.int64)
        self.size = 0
        self.deferred: list[tuple[np.ndarray, np.ndarray]] = []

    def _alloc(self, count: int) -> int:
        """Reserve ``count`` fresh nodes; returns the first id."""
        first = self.size
        self.size += count
        if self.size > self.nxt.size:
            spare = np.empty(max(self.size, self.nxt.size), dtype=np.int64)
            self.nxt = np.concatenate((self.nxt, spare))
            self.dst = np.concatenate((self.dst, spare))
        return first

    def link(self) -> None:
        """Thread the deferred appends onto their lists, in arrival order."""
        # Each chunk is key-sorted already; several need merging.
        chunks = len(self.deferred)
        keys, dsts = map(_cat, zip(*self.deferred))
        self.deferred = []
        if chunks > 1:
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            dsts = dsts[order]
        first = self._alloc(keys.size)
        self.dst[first : self.size] = dsts
        self.nxt[first : self.size] = np.arange(first + 1, self.size + 1)
        uk, starts, counts = _runs(keys)
        heads = starts + first
        tails = heads + counts - 1
        self.nxt[tails] = -1
        old = self.tail[uk]
        joined = old >= 0
        self.nxt[old[joined]] = heads[joined]
        self.head[uk[~joined]] = heads[~joined]
        self.tail[uk] = tails

    def push(self, key: int, dst: int) -> None:
        """Link one packet at the back of ``key`` at once."""
        node = self._alloc(1)
        self.dst[node] = dst
        self.nxt[node] = -1
        tail = self.tail.item(key)
        if tail >= 0:
            self.nxt[tail] = node
        else:
            self.head[key] = node
        self.tail[key] = node

    def pop(self, key: int) -> int:
        """Unlink the front packet of ``key``; returns its destination."""
        node = self.head.item(key)
        after = self.nxt.item(node)
        self.head[key] = after
        if after < 0:
            self.tail[key] = -1
        return self.dst.item(node)

    def take(self, lo: int, hi: int) -> dict[int, list[int]]:
        """Remove every packet of keys ``lo <= key < hi``.

        Returns each non-empty key's destinations, in FIFO order, keyed
        by ``key - lo``; the deferred appends follow the linked ones.
        """
        queues: dict[int, list[int]] = {}
        nxt = self.nxt
        dst = self.dst
        for offset, node in enumerate(self.head[lo:hi].tolist()):
            if node >= 0:
                queue = queues[offset] = []
                while node >= 0:
                    queue.append(int(dst[node]))
                    node = int(nxt[node])
        self.head[lo:hi] = -1
        self.tail[lo:hi] = -1
        self.deferred, keys, dsts = _extract(
            self.deferred, lambda k: (k >= lo) & (k < hi)
        )
        for key, d in zip((keys - lo).tolist(), dsts.tolist()):
            queues.setdefault(key, []).append(d)
        return queues


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
        The first loop's response is called once, at construction: it
        is the plan every replica deploys.
    instrumentation:
        Optional per-replica :class:`Instrumentation` (one entry per
        seed, ``None`` entries allowed): scan/infection counters, tick
        records, and per-phase timings, each group phase's time split
        evenly over its live replicas.

    The worm must be a :class:`RandomScanWorm` or a
    :class:`LocalPreferentialWorm`, the two strategies with a batch
    sampling kernel.  Replicas stop individually under the reference
    stop condition and are harvested — a caller callback on the
    replica's :class:`ReplicaState` — as they finish.  The network is
    input only: no run writes host, link or packet state onto it.
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
        defense: DefensePlan | None = None,
        quarantine_factory: Callable[[], DynamicQuarantine] | None = None,
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
        replicas = len(seeds)
        if instrumentation is None:
            instrumentation = [None] * replicas
        self.network = network
        self.replicas = replicas
        self.lan_delivery = lan_delivery
        self._policy = immunization
        # The layout templates the static defense; a quarantine's plan
        # is computed once, here, and each replica whose own detector
        # fires deploys it on its row and transport.
        self.layout = TransportLayout(network, defense)
        self.hosts = HostArrays(network, replicas, defense)
        quarantines: list[DynamicQuarantine | None] = [None] * replicas
        self._plan: DefensePlan | None = None
        if quarantine_factory is not None:
            quarantines = [quarantine_factory() for _ in range(replicas)]
            self._plan = quarantines[0].response(network)
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
        gens: list[np.random.Generator] = []
        for seed in seeds:
            rng = random.Random(seed)
            seeded.extend(rng.sample(infectable, initial_infections))
            # Seeded after initial-infection placement, so the same
            # seed attacks the same hosts on every engine.
            gens.append(np.random.default_rng(rng.getrandbits(64)))
        seed_reps = self.hosts.infect_grouped(
            np.repeat(np.arange(replicas), initial_infections),
            np.asarray(seeded, dtype=np.int64),
            0,
        )
        # Compartment tally, one column per replica; the observe phase
        # samples it once per tick.  States hold the group's arrays, not
        # the group, so a finished group is freed without a cycle pass.
        status = self.hosts.status
        self._tally = np.stack(
            [
                (status == SUSCEPTIBLE).sum(axis=1),
                (status == INFECTED).sum(axis=1),
                (status == IMMUNE).sum(axis=1),
                np.bincount(seed_reps, minlength=replicas),
            ]
        )
        # Shared (replica, link) arrays: forwarded, enqueued, peak and
        # dropped counts of the vectorized track, and token balances.
        # Each transport's own arrays are rebound to its rows as it is
        # built (freeing them before the next one), so global flat-key
        # updates and the per-replica scalar paths (enqueue, trickle,
        # link_arrays, apply_limit_plan) address one memory.
        link_count = len(self.layout.keys)
        self._link_counts = np.zeros((4, replicas, link_count), dtype=np.int64)
        # Every bucket starts empty; the unlimited links' columns stay
        # zero pages.
        self._tokens = np.zeros((replicas, link_count))
        self.states: list[ReplicaState] = []
        for replica, gen in enumerate(gens):
            t = FastTransport(self.layout)
            t.fwd_vec, t.enq_vec, t.peak_vec, t.drop_vec = (
                self._link_counts[:, replica]
            )
            t.l_tokens = self._tokens[replica]
            self.states.append(
                ReplicaState(
                    replica,
                    self.hosts,
                    network.num_infectable,
                    self._tally,
                    gen,
                    quarantines[replica],
                    t,
                    instrumentation[replica],
                )
            )
        self._ran = False

    def run(
        self,
        max_ticks: int,
        harvest: Callable[[int, ReplicaState], None],
    ) -> None:
        """Advance every replica to completion, harvesting each.

        ``harvest(replica, state)`` runs once per replica, as soon as
        that replica finishes.  Its curve, host row and transport hold
        the replica's final state from then on.
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

        fwd_flat, enq_flat, peak_flat, drop_flat = (
            counts.reshape(-1) for counts in self._link_counts
        )
        peak2 = self._link_counts[2]
        tok_flat = self._tokens.reshape(-1)

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
        has_plan_links = plan is not None and bool(plan.links)
        if has_plan_links:
            plan_idx, plan_rates, plan_bursts = filter_columns(plan.links)
            plan_member[plan_idx] = True
            rate_all = layout.l_rate.copy()
            burst_all = layout.l_burst.copy()
            rate_all[plan_idx] = plan_rates
            burst_all[plan_idx] = plan_bursts
            dep_idx = np.unique(np.concatenate([static_idx, plan_idx]))
        else:
            rate_all = layout.l_rate
            burst_all = layout.l_burst
        rate_dep = rate_all[dep_idx]
        burst_dep = burst_all[dep_idx]
        deployed = np.zeros(replicas, dtype=bool)
        # Without rate-limited links there is no refill and no trickle.
        any_limited = static_idx.size > 0 or has_plan_links

        # Budgeted replicas (see module docstring) run their transport on
        # the exact scalar sweep; ``exact`` holds the live ones, so an
        # empty set keeps every budget check off the vectorized path.
        plan_budgets = plan is not None and bool(plan.budgets)
        budgeted = np.zeros(replicas, dtype=bool)
        exact: set[int] = set()
        held: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if layout.budgets:
            budgeted[:] = True
            exact.update(range(replicas))

        status = hosts.status
        tally = self._tally
        sus_arr, inf_arr, imm_arr, ever_arr = tally
        samples = np.zeros((max_ticks, 4, replicas), dtype=np.int64)
        for state in states:
            state._samples = samples
        injected_arr = np.zeros(replicas, dtype=np.int64)
        delivered_arr = np.zeros(replicas, dtype=np.int64)
        dropped_arr = np.zeros(replicas, dtype=np.int64)

        # LAN ring: same-subnet scans of tick t wait in ``lan_pending``
        # as ``(replicas, destinations)``, rotate to ``lan_ready`` at
        # delivery and land one tick later — the reference's one-tick
        # LAN latency.
        no_lan = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        lan_pending = no_lan
        lan_ready_rep, lan_ready_dst = no_lan

        next_link = layout.next_link
        link_rows = layout.link_rows
        link_dst = layout.link_dst
        link_dst_arr = layout.link_dst_arr
        max_queue = layout.max_queue

        # Waiting packets of the vectorized replicas (see the module
        # docstring), keyed ``replica * L + link``.  ``depth_flat``
        # counts every packet accepted onto a key and not yet forwarded.
        # ``pending`` holds ``(key, destination)`` chunks bound for
        # unlimited links, all forwarded by the next sweep; ``store``
        # queues the packets on rate-limited links.
        depth2 = np.zeros((replicas, link_count), dtype=np.int64)
        depth_flat = depth2.reshape(-1)
        pending: list[tuple[np.ndarray, np.ndarray]] = []
        store = (
            LimitedStore(replicas * link_count)
            if any_limited and not layout.budgets
            else None
        )

        limited_list = static_limited.tolist()
        plan_list = plan_member.tolist()

        def limited_at(reps: np.ndarray, links: np.ndarray) -> np.ndarray:
            """Whether each ``(replica, link)`` is rate-limited now."""
            lim = static_limited[links]
            if has_plan_links:
                lim = lim | (plan_member[links] & deployed[reps])
            return lim

        def append(
            keys: np.ndarray,
            dsts: np.ndarray,
            lim: np.ndarray,
            lazy: bool = False,
        ) -> None:
            """Drop-tail acceptance of appends, filed by kind of link.

            Each key keeps its first ``max_queue - depth`` arrivals, in
            order, and credits them as enqueued; the peak rises to the
            new depth, except on rate-limited keys when ``lazy`` (their
            high-water mark is read before each drain instead).  The
            accepted packets of rate-limited keys (``lim``) wait in the
            store, the others in the pending store, each key in arrival
            order.
            """
            order = np.argsort(keys, kind="stable")
            uk, starts, cnts = _runs(keys[order])
            acc = np.minimum(cnts, np.maximum(max_queue - depth_flat[uk], 0))
            raised = acc > 0
            if lazy:
                raised &= ~lim[order[starts]]
            if (acc < cnts).any():
                spilled = cnts - acc
                drop_flat[uk] += spilled
                np.add.at(dropped_arr, uk // link_count, spilled)
                rank = np.arange(order.size) - np.repeat(starts, cnts)
                order = order[rank < np.repeat(acc, cnts)]
            depth = depth_flat[uk] + acc
            depth_flat[uk] = depth
            enq_flat[uk] += acc
            peak_flat[uk] = np.maximum(peak_flat[uk], depth * raised)
            keys, dsts, lim = keys[order], dsts[order], lim[order]
            if lim.any():
                store.deferred.append((keys[lim], dsts[lim]))
                lim = ~lim
                keys, dsts = keys[lim], dsts[lim]
            if keys.size:
                pending.append((keys, dsts))

        def trickle(
            keys: np.ndarray, balances: np.ndarray, arrivals: list
        ) -> None:
            """Drain the ready rate-limited ``keys``, ascending, FIFO per key.

            One packet per whole token.  The high-water mark is read
            before each drain, so it counts the arrivals from lower
            keys; each forward is accepted at once (drop-tail against
            the current depth) and leaves again this tick if it enters
            a later ready key with a token to spare.
            """
            reps_a: list[int] = []
            dsts_a: list[int] = []
            keys_p: list[int] = []
            dsts_p: list[int] = []
            pop = store.pop
            push = store.push
            moves: list[int] = []
            left: list[float] = []
            for key, tokens in zip(keys.tolist(), balances.tolist()):
                r, link = divmod(key, link_count)
                depth = depth_flat.item(key)
                if depth > peak_flat.item(key):
                    peak_flat[key] = depth
                node = link_dst[link]
                moved = 0
                while depth and tokens + 1e-12 >= 1.0:
                    tokens -= 1.0
                    depth -= 1
                    moved += 1
                    dst = pop(key)
                    if dst == node:
                        reps_a.append(r)
                        dsts_a.append(dst)
                        continue
                    lj = link_rows[dst][node]
                    out = r * link_count + lj
                    queued = depth_flat.item(out)
                    if queued >= max_queue:
                        drop_flat[out] += 1
                        dropped_arr[r] += 1
                        continue
                    queued += 1
                    depth_flat[out] = queued
                    enq_flat[out] += 1
                    if queued > peak_flat.item(out):
                        peak_flat[out] = queued
                    if limited_list[lj] or (plan_list[lj] and deployed[r]):
                        push(out, dst)
                    else:
                        keys_p.append(out)
                        dsts_p.append(dst)
                depth_flat[key] = depth
                moves.append(moved)
                left.append(tokens)
            tok_flat[keys] = left
            fwd_flat[keys] += moves
            if reps_a:
                reps_a = np.asarray(reps_a, dtype=np.int64)
                arrivals.append((reps_a, np.asarray(dsts_a, dtype=np.int64)))
                delivered_arr[:] += np.bincount(reps_a, minlength=replicas)
            if keys_p:
                pending.append((np.asarray(keys_p), np.asarray(dsts_p)))

        def take(r: int) -> dict[int, list[int]]:
            """Remove replica ``r``'s waiting packets, FIFO per link."""
            nonlocal pending
            lo = r * link_count
            hi = lo + link_count
            queues = store.take(lo, hi) if store is not None else {}
            pending, keys, dsts = _extract(
                pending, lambda k: (k >= lo) & (k < hi)
            )
            for key, dst in zip((keys - lo).tolist(), dsts.tolist()):
                queues.setdefault(key, []).append(dst)
            depth2[r] = 0
            return queues

        policy = self._policy
        if policy is not None:
            mu = policy.mu
            patch_infected = policy.patch_infected
            num_infectable = network.num_infectable
            patching = np.zeros(replicas, dtype=bool)

        zero_counts = np.zeros(replicas, dtype=np.int64)
        live = np.arange(replicas, dtype=np.int64)
        last_tick = max_ticks - 1
        for tick in range(max_ticks):
            live_list = live.tolist()
            nlive = live.size
            if profiling:
                clock = perf_counter()

            # -------------------- scan phase --------------------
            hosts.refill_all_throttles()
            rows, cols = np.divmod(
                np.flatnonzero(
                    (status if nlive == replicas else status[live])
                    == INFECTED
                ),
                n,
            )
            # Per-tick chunks: ``(replica, link, destination)`` packets
            # entering the wave, ``(replica, destination)`` arrivals.
            wave: list[tuple] = []
            arrivals: list[tuple] = []
            if rows.size:
                zeros = zero_counts[:nlive]
                throttled_n = dark = lan_n = routed_n = zeros
                if frac > 0.0:
                    _, owners, sizes = _segments(rows, live)
                    buf = _uniforms(
                        [gens[r] for r in owners], sizes, rows.size
                    )
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
                if hit < 1.0 and origins.size:
                    scanned, owners, sizes = _segments(rep_o, live)
                    buf = _uniforms(
                        [gens[r] for r in owners], sizes, origins.size
                    )
                    keep = buf < hit
                    origins = origins[keep]
                    rep_o = rep_o[keep]
                    dark = scanned - np.bincount(rep_o, minlength=nlive)
                if origins.size and pool.size >= 2:
                    _, owners, sizes = _segments(rep_o, live)
                    if local_pref is not None:
                        targets = np.empty(origins.size, dtype=np.int64)
                        a = 0
                        for r, k in zip(owners, sizes):
                            targets[a : a + k] = pick_targets_local_pref(
                                gens[r],
                                pool,
                                subnet_arr,
                                tables,
                                local_pref,
                                origins[a : a + k],
                            )
                            a += k
                    else:
                        targets = _uniform_targets(
                            [gens[r] for r in owners], sizes, pool, origins
                        )
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
                        li = next_link[targets, origins]
                        if exact:
                            ex = budgeted[reps_act]
                            if ex.any():
                                # Queued right before each replica's
                                # exact sweep, while its queues are
                                # still in cache.
                                x_li = li[ex]
                                x_dst = targets[ex]
                                _, owners, sizes = _segments(rep_o[ex], live)
                                a = 0
                                for r, k in zip(owners, sizes):
                                    held[r] = (
                                        x_li[a : a + k],
                                        x_dst[a : a + k],
                                    )
                                    a += k
                                keep = ~ex
                                li = li[keep]
                                targets = targets[keep]
                                reps_act = reps_act[keep]
                        key = reps_act * link_count + li
                        lim = limited_at(reps_act, li)
                        if lim.any():
                            append(key[lim], targets[lim], lim[lim])
                            keep = ~lim
                            li = li[keep]
                            targets = targets[keep]
                            reps_act = reps_act[keep]
                            key = key[keep]
                        if li.size:
                            uk, _starts, cnt = _runs(np.sort(key))
                            # Drop-tail guard: a link that cannot take
                            # its whole share on top of its waiting
                            # packets accepts its share in order into
                            # the pending store; the sweep forwards it
                            # after the earlier waiters.
                            tight = depth_flat[uk] + cnt > max_queue
                            if tight.any():
                                cut = np.isin(key, uk[tight])
                                append(key[cut], targets[cut], ~cut[cut])
                                keep = ~cut
                                li = li[keep]
                                targets = targets[keep]
                                reps_act = reps_act[keep]
                                keep = ~tight
                                uk = uk[keep]
                                cnt = cnt[keep]
                            enq_flat[uk] += cnt
                            fwd_flat[uk] += cnt
                            peak_flat[uk] = np.maximum(
                                peak_flat[uk], cnt
                            )
                            if li.size:
                                wave.append((reps_act, li, targets))
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
            if any_limited:
                # Budgeted rows refill their own tokens in transmit_tick.
                # A key is ready to drain when it holds packets and a
                # whole token after the refill.
                vec_rows = live[~budgeted[live]] if exact else live
                ready = []
                for rows_r, cols, rate, burst in (
                    (vec_rows[~deployed[vec_rows]], static_idx,
                     rate_static, burst_static),
                    (vec_rows[deployed[vec_rows]], dep_idx, rate_dep,
                     burst_dep),
                ):
                    if not (rows_r.size and cols.size):
                        continue
                    keys = (rows_r * link_count)[:, None] + cols
                    tokens = np.minimum(tok_flat[keys] + rate, burst)
                    tok_flat[keys] = tokens
                    at = (tokens + 1e-12 >= 1.0) & (depth_flat[keys] > 0)
                    if at.any():
                        ready.append((keys[at], tokens[at]))
                if ready:
                    keys, tokens = map(_cat, zip(*ready))
                    if len(ready) > 1:
                        order = np.argsort(keys)
                        keys, tokens = keys[order], tokens[order]
                    if store.deferred:
                        store.link()
                    trickle(keys, tokens, arrivals)
            for r in sorted(exact):
                t = transports[r]
                if r in held:
                    for li, dst in zip(*(part.tolist() for part in held.pop(r))):
                        t.enqueue(li, dst)
                arrived = t.transmit_tick()
                if arrived:
                    arrivals.append(_owned(r, arrived))
            # Sweep: every packet waiting on an unlimited link enters
            # the wave in one sorted pass.  The stable sort by key fixes
            # each replica's emission order (links ascending, FIFO per
            # link).
            if pending:
                keys, dsts = map(_cat, zip(*pending))
                pending = []
                order = np.argsort(keys, kind="stable")
                keys = keys[order]
                uk, _starts, cnt = _runs(keys)
                fwd_flat[uk] += cnt
                depth_flat[uk] = 0
                sw_rep = keys // link_count
                wave.append((sw_rep, keys - sw_rep * link_count, dsts[order]))
            if wave:
                # Wave cascade: arrivals peel off, packets bound for
                # limited links queue up, and packets bound for a
                # *later-indexed* unlimited link keep moving within the
                # tick — the same per-tick reachability as the
                # reference's sorted sweep.
                reps, src_li, dsts = map(_cat, zip(*wave))
                while dsts.size:
                    nodes = link_dst_arr[src_li]
                    at_dest = dsts == nodes
                    if at_dest.any():
                        done_rep = reps[at_dest]
                        arrivals.append((done_rep, dsts[at_dest]))
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
                    lj = next_link[dsts, nodes]
                    lim = limited_at(reps, lj)
                    cascade = ~lim & (lj > src_li)
                    if not cascade.all():
                        wait = ~cascade
                        append(
                            reps[wait] * link_count + lj[wait],
                            dsts[wait],
                            lim[wait],
                            lazy=True,
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
                arrivals.append((lan_ready_rep, lan_ready_dst))
            lan_ready_rep, lan_ready_dst = lan_pending
            lan_pending = no_lan
            if arrivals:
                a_rep, a_dst = map(_cat, zip(*arrivals))
                reps_new = hosts.infect_grouped(a_rep, a_dst, tick)
                if reps_new.size:
                    newc = np.bincount(reps_new, minlength=replicas)
                    sus_arr -= newc
                    inf_arr += newc
                    ever_arr += newc
                    if counting:
                        for r in np.flatnonzero(newc).tolist():
                            if instrs[r] is not None:
                                instrs[r].count("infections", int(newc[r]))
            if profiling:
                now = perf_counter()
                _credit_phase(instrs, live_list, _DELIVER, now - clock)
                clock = now

            # -------------------- defense phase --------------------
            if quars[0] is not None:
                for r in live_list:
                    if quars[r].step(tick):
                        t = transports[r]
                        if plan_budgets:
                            # The exact sweep takes over this replica's
                            # waiting packets.
                            for li, dsts in take(r).items():
                                t.hold(li, dsts)
                        elif has_plan_links and pending:
                            # Waiters on newly rate-limited links join
                            # the store, already counted and in order.
                            pending, keys, dsts = _extract(
                                pending,
                                lambda k: (k // link_count == r)
                                & plan_member[k % link_count],
                            )
                            if keys.size:
                                order = np.argsort(keys, kind="stable")
                                store.deferred.append(
                                    (keys[order], dsts[order])
                                )
                        hosts.activate_latent(r)
                        t.apply_limit_plan(plan)
                        deployed[r] = True
                        if plan_budgets:
                            budgeted[r] = True
                            exact.add(r)
            if policy is not None:
                if policy.start_tick is not None:
                    patching |= tick >= policy.start_tick
                else:
                    patching |= (
                        ever_arr / num_infectable >= policy.start_fraction
                    )
                act = live[patching[live]]
                if act.size:
                    # Row-major order over ``status[act]`` is (replica,
                    # pool) order: the pool is sorted, and transit
                    # columns are UNTRACKED, so never eligible.
                    block = status if act.size == replicas else status[act]
                    elig = block == SUSCEPTIBLE
                    if patch_infected:
                        elig |= block == INFECTED
                    sizes = np.count_nonzero(elig, axis=1)
                    flat = np.flatnonzero(elig)
                    if flat.size:
                        drawing = np.flatnonzero(sizes)
                        draws = _uniforms(
                            [gens[r] for r in act[drawing].tolist()],
                            sizes[drawing].tolist(),
                            flat.size,
                        )
                        pos, nodes_sel = np.divmod(flat[draws < mu], n)
                        if pos.size:
                            reps_i, was_inf = hosts.immunize_grouped(
                                act[pos], nodes_sel, tick
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
            # Finished replicas' columns are written too; a harvest only
            # reads the ticks its replica ran.
            samples[tick] = tally
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
                            susceptible=int(sus_arr[r]),
                            infected=int(inf_arr[r]),
                            immune=int(imm_arr[r]),
                            ever_infected=int(ever_arr[r]),
                            packets_injected=t.injected
                            + int(injected_arr[r]),
                            packets_delivered=t.delivered
                            + int(delivered_arr[r]),
                            packets_dropped=t.dropped_total
                            + int(dropped_arr[r]),
                            in_flight=t.queued_total + int(depth2[r].sum()),
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
                t.dropped_total += int(dropped_arr[r])
                state.ticks_executed = tick + 1
                instr = state.instrumentation
                if instr is not None and instr.profile:
                    instr.count("ticks", tick + 1)
                if depth2[r].any():
                    # Close the lazy high-water marks of rate-limited
                    # links and record the residual depths; the packets
                    # themselves leave the stores below.  Nothing writes
                    # a finished replica's depth row again, so the
                    # transport keeps a view, not a copy per replica.
                    lim = t.limited_arr
                    peak2[r, lim] = np.maximum(peak2[r, lim], depth2[r, lim])
                    t.waiting = depth2[r]
                exact.discard(r)
                harvest(r, state)
            if finished.size:
                gone = np.zeros(replicas, dtype=bool)
                gone[finished] = True
                pending = _extract(pending, lambda k: gone[k // link_count])[0]
                if store is not None:
                    store.deferred = _extract(
                        store.deferred, lambda k: gone[k // link_count]
                    )[0]
            if tick == last_tick or live.size == 0:
                break
