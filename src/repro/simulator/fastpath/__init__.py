"""Opt-in high-performance simulation engines (``engine="fast"``).

Same five-phase tick semantics as the reference
:class:`~repro.simulator.simulation.WormSimulation`, with the
object-per-host / object-per-packet inner loops replaced by
struct-of-arrays state and array transport:

* host status, infection stamps and throttle tokens live in
  ``(replica, host)`` arrays (:mod:`.state`) — one row per run of a
  vector group, a single row for a mirror run;
* link queues hold bare destination ids; the exact sweep drains them in
  the reference's sorted-key order (:mod:`.transport`), the vector wave
  moves whole per-tick packet arrays through next-link gathers and
  keeps its waiting packets in arrays (:mod:`.vector`).

Two engines share these pieces:

* :class:`.FastWormSimulation` (:mod:`.engine`) is the *mirror* engine.
  It draws from the run RNG in exactly the reference order, so a run is
  *bit-identical* to a reference run for every supported configuration
  — trajectories, per-link stats, instrumentation counters, trace
  records, everything.  Its scan phase walks a sorted infected index,
  so its cost is O(infected), not O(N).  The differential test suite
  asserts the equivalence.
* :class:`.VectorReplicaSimulation` (:mod:`.vector`) is the *batch
  sampling* engine for random-scan and local-preferential worms.  It
  draws per-host scan counts, targets and telescope observations in
  bulk from a numpy generator per seed, and advances many seeded runs
  of one scenario together: one network, routing table and transport
  layout serve every replica, and one cross-replica numpy pass per
  phase advances all live replicas.  Runs are *statistically*
  equivalent to the reference — same epidemic law, different random
  stream — and a replica's results do not depend on its group: a solo
  batch run is a group of width one.

The runner picks between them (``repro.runner.build.execute_run``):
``engine="fast"`` takes the vector engine for batchable worms on at
least ``BATCH_MIN_HOSTS`` infectable hosts and the mirror engine
otherwise; ``engine="fast-batched"`` always takes the vector engine and
groups the replicas of an ensemble.  The reference engine stays
untouched as the semantic oracle.
"""

from .engine import FastWormSimulation
from .vector import VectorReplicaSimulation

__all__ = [
    "FastWormSimulation",
    "VectorReplicaSimulation",
]
