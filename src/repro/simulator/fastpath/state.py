"""Struct-of-arrays host state for the fast engine.

One :class:`HostArrays` replaces the per-host :class:`~repro.simulator.
nodes.Host` object walk: epidemic status is a 2-D ``(replica, host)``
numpy array, compartment totals are running counters (O(1) reads for the
observe phase and stop conditions), the infected population is a
maintained sorted index (O(infected) scan phase), and Williamson
throttle tokens live in numpy arrays refilled in one vectorized step per
tick.

The replica axis is the vector engine's hook: ``replicas`` seeded runs
of one scenario share a single state block, each replica owning one row
of every array, and the grouped API mutates ``(replica, node)`` pairs
across rows.  The scalar mutation API
(``infect``/``immunize``/``infected_sorted``), its running counters and
the row views (``status_row``, ``throttle_tokens``) serve the mirror
engine's single run and address row 0.

The arrays are synced *from* the network's host objects at construction
(and re-synced when a dynamic quarantine deploys filters mid-run), and
written *back* at the end of the run, so everything downstream that
inspects hosts — ``count_states``, ``infected_at`` curves, reports —
sees exactly what a reference run would have left behind.
"""

from __future__ import annotations

import numpy as np

from ..network import Network
from ..nodes import HostState

__all__ = ["HostArrays", "SUSCEPTIBLE", "INFECTED", "IMMUNE", "UNTRACKED"]

#: Status codes (array encoding of :class:`HostState`).
UNTRACKED = -1
SUSCEPTIBLE = 0
INFECTED = 1
IMMUNE = 2

#: Sentinel for "never" in the infected_at/immunized_at stamp arrays
#: (the object model uses ``None``; writeback converts).
NEVER = -1

_STATE_OF = {
    SUSCEPTIBLE: HostState.SUSCEPTIBLE,
    INFECTED: HostState.INFECTED,
    IMMUNE: HostState.IMMUNE,
}
_CODE_OF = {state: code for code, state in _STATE_OF.items()}


class HostArrays:
    """Replica-batched flat-array mirror of a network's host population."""

    def __init__(self, network: Network, replicas: int = 1) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.network = network
        self.replicas = replicas
        n = network.topology.num_nodes
        #: status[replica, node] — UNTRACKED for transit nodes, S/I/R
        #: for hosts.  :attr:`status_row` is row 0.
        status0 = np.full(n, UNTRACKED, dtype=np.int8)
        infected0 = np.full(n, NEVER, dtype=np.int64)
        immunized0 = np.full(n, NEVER, dtype=np.int64)
        susceptible = infected = immune = 0
        for node in network.infectable:
            host = network.hosts[node]
            code = _CODE_OF[host.state]
            status0[node] = code
            if host.infected_at is not None:
                infected0[node] = host.infected_at
            if host.immunized_at is not None:
                immunized0[node] = host.immunized_at
            if code == SUSCEPTIBLE:
                susceptible += 1
            elif code == INFECTED:
                infected += 1
            else:
                immune += 1
        self.status = np.tile(status0, (replicas, 1))
        self.infected_at = np.tile(infected0, (replicas, 1))
        self.immunized_at = np.tile(immunized0, (replicas, 1))
        # Flat views for the grouped API's ``replica * n + node`` keys.
        self._status_flat = self.status.reshape(-1)
        self._infected_at_flat = self.infected_at.reshape(-1)
        # Mirror of what the network's Host objects currently hold, so
        # writeback only touches hosts that differ.  Valid because
        # nothing mutates host state/stamps between construction and
        # writeback except writeback itself (fast engines run entirely
        # on the arrays; defense deploys only attach buckets).
        self._net_status = status0
        self._net_inf = infected0
        self._net_imm = immunized0
        # Row 0's running counters and infected index (scalar API).
        self.susceptible = susceptible
        self.infected = infected
        self.immune = immune
        self._infected_set: set[int] = {
            node for node in network.infectable
            if status0[node] == INFECTED
        }
        self._sorted_infected: list[int] = sorted(self._infected_set)
        self._sorted_dirty = False
        self._row = self.status[0]
        self._inf_row = self.infected_at[0]
        self._imm_row = self.immunized_at[0]
        # Throttle mirror (see sync_throttles).
        self.throttle_pos: dict[int, int] = {}
        self._throttle_buckets: list = []
        self._t_rate = np.zeros((replicas, 0))
        self._t_burst = np.zeros((replicas, 0))
        self._t_tokens = np.zeros((replicas, 0))
        self._t_active = np.zeros((replicas, 0), dtype=bool)
        self._latent_cols = np.zeros(0, dtype=np.int64)
        self._latent_rate = np.zeros(0)
        self._latent_burst = np.zeros(0)
        self.sync_throttles()

    @property
    def status_row(self) -> np.ndarray:
        """Row 0's status (length ``num_nodes``)."""
        return self._row

    def _load_throttle_views(self) -> None:
        self.throttle_tokens = self._t_tokens[0]

    # ------------------------------------------------------------------
    # Epidemic state (row 0, the mirror engine's run)
    # ------------------------------------------------------------------

    def infected_sorted(self) -> list[int]:
        """Currently infected node ids, sorted (the scan-phase index)."""
        if self._sorted_dirty:
            self._sorted_infected = sorted(self._infected_set)
            self._sorted_dirty = False
        return self._sorted_infected

    def infect(self, node: int, tick: int) -> bool:
        """S → I transition; mirrors :meth:`Host.infect` exactly."""
        if self._row[node] != SUSCEPTIBLE:
            return False
        self._row[node] = INFECTED
        self._inf_row[node] = tick
        self.susceptible -= 1
        self.infected += 1
        self._infected_set.add(node)
        self._sorted_dirty = True
        return True

    def immunize(self, node: int, tick: int) -> bool:
        """S/I → R transition; mirrors :meth:`Host.immunize` exactly."""
        code = self._row[node]
        if code == IMMUNE or code == UNTRACKED:
            return False
        if code == INFECTED:
            self.infected -= 1
            self._infected_set.discard(node)
            self._sorted_dirty = True
        else:
            self.susceptible -= 1
        self.immune += 1
        self._row[node] = IMMUNE
        self._imm_row[node] = tick
        return True

    # ------------------------------------------------------------------
    # Grouped (cross-replica) mutation — the vectorized replica engine
    # ------------------------------------------------------------------
    #
    # The grouped API addresses ``(replica, node)`` pairs directly and
    # bypasses row 0's running counters and infected index: the vector
    # engine keeps its own (R,) compartment counters and derives scan
    # origins from the status matrix.  Do not mix grouped mutation with
    # the scalar API on one state block.

    def infect_grouped(
        self, reps: np.ndarray, nodes: np.ndarray, tick: int
    ) -> np.ndarray:
        """Cross-replica S → I over ``(replica, node)`` arrival pairs.

        Arrivals at hosts that are not susceptible are dropped first
        (usually most of them, so the sort below stays small), then
        duplicates collapse (within one tick every duplicate arrival
        after the first is a no-op in the scalar engine, and the
        infection stamp is this tick either way).  Returns the replica
        of each newly infected pair, ascending.
        """
        n = self.status.shape[1]
        keys = reps * n + nodes
        keys = keys[self._status_flat[keys] == SUSCEPTIBLE]
        if keys.size == 0:
            return keys
        keys = np.unique(keys)
        self._status_flat[keys] = INFECTED
        self._infected_at_flat[keys] = tick
        return keys // n

    def immunize_grouped(
        self, reps: np.ndarray, nodes: np.ndarray, tick: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cross-replica S/I → R over unique ``(replica, node)`` pairs.

        Returns the pairs actually immunized plus a parallel
        ``was_infected`` mask so the caller can split its compartment
        counter updates between the S and I compartments.
        """
        if reps.size == 0:
            return reps, np.zeros(0, dtype=bool)
        codes = self.status[reps, nodes]
        actionable = (codes != IMMUNE) & (codes != UNTRACKED)
        if not actionable.all():
            reps = reps[actionable]
            nodes = nodes[actionable]
            codes = codes[actionable]
        if reps.size:
            self.status[reps, nodes] = IMMUNE
            self.immunized_at[reps, nodes] = tick
        return reps, codes == INFECTED

    def throttle_gate_grouped(
        self, reps: np.ndarray, nodes: np.ndarray, want: np.ndarray
    ) -> np.ndarray:
        """Cross-replica scan-throttle gating for unique (rep, node) pairs.

        The batch scan's token clamp: floor the pair's token balance
        (the scalar path's ``1e-12`` epsilon), allow
        ``min(want, usable)``, debit the tokens, and return the allowed
        counts aligned with the inputs.  Inactive (latent) columns —
        throttles a quarantine plan has not deployed on that replica yet
        — gate nothing.
        """
        allowed = want.copy()
        if reps.size == 0 or not self.throttle_pos:
            return allowed
        pos = self.throttle_pos_arr[nodes]
        sel = np.flatnonzero(pos >= 0)
        if sel.size == 0:
            return allowed
        rr = reps[sel]
        pp = pos[sel]
        act = self._t_active[rr, pp]
        if not act.all():
            sel = sel[act]
            rr = rr[act]
            pp = pp[act]
        if sel.size == 0:
            return allowed
        tokens = self._t_tokens
        usable = np.floor(tokens[rr, pp] + 1e-12).astype(np.int64)
        np.maximum(usable, 0, out=usable)
        grant = np.minimum(want[sel], usable)
        tokens[rr, pp] -= grant
        allowed[sel] = grant
        return allowed

    # ------------------------------------------------------------------
    # Scan throttles (Williamson host filters)
    # ------------------------------------------------------------------

    def sync_throttles(self) -> None:
        """Mirror every host's scan-throttle bucket into flat arrays.

        Called at construction and again when a mid-run quarantine
        response installs new filters.  A bucket whose object identity is
        unchanged keeps the token balance the fast engine accrued for it
        (the network-side object is never updated mid-run); new buckets
        adopt their own (freshly zero) token count.  Token balances are
        per replica: each existing bucket's whole token *column* carries
        over.
        """
        previous = {
            id(bucket): self._t_tokens[:, pos].copy()
            for pos, bucket in enumerate(self._throttle_buckets)
            if bucket is not None
        }
        replicas = self.replicas
        nodes: list[int] = []
        buckets: list = []
        for node in self.network.infectable:
            bucket = self.network.hosts[node].scan_throttle
            if bucket is not None:
                nodes.append(node)
                buckets.append(bucket)
        self.throttle_pos = {node: pos for pos, node in enumerate(nodes)}
        #: Vectorized twin of ``throttle_pos``: position per node, -1 for
        #: unthrottled nodes (batch scan path).
        self.throttle_pos_arr = np.full(
            self.network.topology.num_nodes, -1, dtype=np.int64
        )
        if nodes:
            self.throttle_pos_arr[nodes] = np.arange(len(nodes))
        self._throttle_buckets = buckets
        count = len(buckets)
        self._t_rate = np.tile(
            np.array([b.rate for b in buckets], dtype=float), (replicas, 1)
        )
        self._t_burst = np.tile(
            np.array([b.burst for b in buckets], dtype=float), (replicas, 1)
        )
        self._t_tokens = np.empty((replicas, count))
        for pos, bucket in enumerate(buckets):
            column = previous.get(id(bucket))
            self._t_tokens[:, pos] = (
                column if column is not None else bucket.tokens
            )
        self._t_active = np.ones((replicas, count), dtype=bool)
        self._latent_cols = np.zeros(0, dtype=np.int64)
        self._latent_rate = np.zeros(0)
        self._latent_burst = np.zeros(0)
        self._load_throttle_views()

    def register_latent_throttles(
        self, entries: list[tuple[int, float, float]]
    ) -> None:
        """Pre-allocate throttle columns a quarantine plan *may* deploy.

        ``entries`` is ``[(node, rate, burst), ...]`` — the host filters
        one captured deployment of the quarantine response would
        install.  Columns for nodes without an existing bucket start
        inactive (no refill, no clamping) so undeployed replicas behave
        as unthrottled; :meth:`activate_latent` flips one replica's
        columns live with fresh-bucket semantics (zero tokens, plan
        rate/burst), exactly what a real deploy plus ``sync_throttles``
        would produce.
        """
        new_nodes = [
            node for node, _, _ in entries if node not in self.throttle_pos
        ]
        if new_nodes:
            extra = len(new_nodes)
            replicas = self.replicas
            self._t_rate = np.concatenate(
                [self._t_rate, np.zeros((replicas, extra))], axis=1
            )
            self._t_burst = np.concatenate(
                [self._t_burst, np.zeros((replicas, extra))], axis=1
            )
            self._t_tokens = np.concatenate(
                [self._t_tokens, np.zeros((replicas, extra))], axis=1
            )
            self._t_active = np.concatenate(
                [self._t_active, np.zeros((replicas, extra), dtype=bool)],
                axis=1,
            )
            for node in new_nodes:
                pos = len(self._throttle_buckets)
                self._throttle_buckets.append(None)
                self.throttle_pos[node] = pos
                self.throttle_pos_arr[node] = pos
        self._latent_cols = np.array(
            [self.throttle_pos[node] for node, _, _ in entries],
            dtype=np.int64,
        )
        self._latent_rate = np.array([rate for _, rate, _ in entries])
        self._latent_burst = np.array([burst for _, _, burst in entries])
        self._load_throttle_views()

    def activate_latent(self, replica: int) -> None:
        """Deploy the registered latent throttles on one replica's row."""
        cols = self._latent_cols
        if cols.size == 0:
            return
        self._t_active[replica, cols] = True
        self._t_rate[replica, cols] = self._latent_rate
        self._t_burst[replica, cols] = self._latent_burst
        self._t_tokens[replica, cols] = 0.0

    def refill_throttles(self) -> None:
        """One tick of token accrual for row 0's throttles.

        Vectorized ``min(tokens + rate, burst)`` — IEEE-identical to the
        reference engine's per-host :meth:`TokenBucket.refill` calls.
        """
        if self._t_rate.shape[1]:
            np.minimum(
                self._t_tokens[0] + self._t_rate[0],
                self._t_burst[0],
                out=self._t_tokens[0],
            )

    def refill_all_throttles(self) -> None:
        """One tick of token accrual for *every* replica's throttles.

        A single ``(replicas, throttles)`` elementwise min per tick;
        inactive latent columns carry zero rate and burst, so they stay
        at zero tokens until :meth:`activate_latent`.
        """
        if self._t_rate.shape[1]:
            np.minimum(
                self._t_tokens + self._t_rate,
                self._t_burst,
                out=self._t_tokens,
            )

    # ------------------------------------------------------------------
    # Writeback
    # ------------------------------------------------------------------

    def writeback(self, replica: int = 0) -> None:
        """Copy one replica's final state onto the network's hosts.

        Every host whose state or stamps differ from what the network
        currently holds is written — including runs whose infections
        all died at tick 0 — so stamp arrays round-trip exactly as a
        reference run would have left them (``NEVER`` becomes
        ``None``).  The diff against the ``_net_*`` mirror makes
        harvesting a replica cost O(changed hosts), which is what lets
        a 1000-replica die-out ensemble finalize its mostly-untouched
        replicas cheaply.
        """
        row = self.status[replica]
        inf_row = self.infected_at[replica]
        imm_row = self.immunized_at[replica]
        net_status = self._net_status
        net_inf = self._net_inf
        net_imm = self._net_imm
        changed = np.flatnonzero(
            (row != net_status)
            | (inf_row != net_inf)
            | (imm_row != net_imm)
        )
        if changed.size == 0:
            return
        state_of = _STATE_OF
        hosts = self.network.hosts
        for node in changed.tolist():
            host = hosts[node]
            host.state = state_of[int(row[node])]
            stamp = inf_row[node]
            host.infected_at = int(stamp) if stamp >= 0 else None
            stamp = imm_row[node]
            host.immunized_at = int(stamp) if stamp >= 0 else None
        net_status[changed] = row[changed]
        net_inf[changed] = inf_row[changed]
        net_imm[changed] = imm_row[changed]
