"""Opt-in high-performance simulation engine (``engine="fast"``).

Same five-phase tick semantics as the reference
:class:`~repro.simulator.simulation.WormSimulation`, with the
object-per-host / object-per-packet inner loops replaced by
struct-of-arrays state and batched transport:

* host status, infection stamps and throttle tokens live in
  ``(replica, host)`` arrays (:mod:`.state`) — one row per run of a
  vectorized ensemble, a single row for solo runs;
* the scan phase walks a sorted active-infected index, so its cost is
  O(infected), not O(N);
* link queues hold bare destination ids; scalar paths drain them in the
  reference's sorted-key order, vectorized paths move whole per-tick
  waves through numpy routing lookups (:mod:`.transport`).

The engine runs in one of two scan modes (``scan_mode`` on
:class:`.FastWormSimulation`, default ``"auto"``):

* ``"mirror"`` draws from the run RNG in exactly the reference order, so
  a fast run is *bit-identical* to a reference run for every supported
  configuration — trajectories, per-link stats, instrumentation
  counters, trace records, everything.  The differential test suite
  asserts this.
* ``"batch"`` (random-scan and local-preferential worms) samples
  per-host scan counts in aggregate and pushes scans through vectorized
  batched transport; dynamic immunization and quarantine/throttle
  defenses batch alongside.  Runs are *statistically* equivalent — same
  epidemic law, different random stream — and the documented transport
  relaxations in :mod:`.transport` apply.

``"auto"`` picks ``"batch"`` when the worm supports it and the
population is large enough to amortize the numpy overhead, else
``"mirror"``.  The reference engine stays untouched as the semantic
oracle.

:class:`.VectorReplicaSimulation` (:mod:`.vector`) stacks many seeded
batch-mode runs of one scenario onto the replica axis: one network,
routing table, and transport layout serve every replica, and one
cross-replica numpy pass per phase advances all live replicas.  Each
replica's results are bit-identical to running its spec alone in batch
mode — replicas with node forwarding budgets included, which move their
packets on the exact scalar sweep just as the solo batch engine does.
The runner's ``engine="fast-batched"`` selects it for whole ensembles.
"""

from .engine import FastWormSimulation
from .vector import VectorReplicaSimulation

__all__ = [
    "FastWormSimulation",
    "VectorReplicaSimulation",
]
