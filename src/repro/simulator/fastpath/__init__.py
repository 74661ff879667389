"""The simulation engines.

Both run the paper's five-phase tick pipeline (scan, transmit,
deliver, immunize, observe) with the object-per-host /
object-per-packet formulation replaced by struct-of-arrays state and
array transport:

* host status, infection stamps and throttle tokens live in
  ``(replica, host)`` arrays (:mod:`.state`) — one row per run of a
  vector group, a single row for a mirror run;
* link queues hold bare destination ids; the exact sweep drains them in
  the reference's sorted-key order (:mod:`.transport`), the vector wave
  moves whole per-tick packet arrays through next-link gathers and
  keeps its waiting packets in arrays (:mod:`.vector`).

Two engines share these pieces:

* :class:`.FastWormSimulation` (:mod:`.engine`) is the *mirror*, the
  one exact engine.  It draws from the run RNG in the per-host,
  per-packet order of the object formulation, which the test suite
  keeps as its oracle (``tests/oracle.py``) and matches bit for bit —
  trajectories, per-link stats, instrumentation counters, trace
  records, everything.  Its scan phase walks a sorted infected index,
  so its cost is O(infected), not O(N).
* :class:`.VectorReplicaSimulation` (:mod:`.vector`) is the *batch
  sampling* engine for random-scan and local-preferential worms.  It
  draws per-host scan counts, targets and telescope observations in
  bulk from a numpy generator per seed, and advances many seeded runs
  of one scenario together: one network, routing table and transport
  layout serve every replica, and one cross-replica numpy pass per
  phase advances all live replicas.  Runs are *statistically*
  equivalent to the mirror — same epidemic law, different random
  stream — and a replica's results do not depend on its group: a solo
  batch run is a group of width one.

The runner picks between them (``repro.runner.build.execute_run``):
``engine="reference"`` always takes the mirror; ``engine="fast"`` takes
the vector engine for batchable worms on at least ``BATCH_MIN_HOSTS``
infectable hosts and the mirror otherwise; ``engine="fast-batched"``
always takes the vector engine and groups the replicas of an ensemble.
"""

from .engine import FastWormSimulation
from .vector import VectorReplicaSimulation

__all__ = [
    "FastWormSimulation",
    "VectorReplicaSimulation",
]
