"""Async quarantine-simulation service: the runner as a long-lived server.

Every experiment layer so far is a one-shot invocation that pays full
process startup and builds a fresh executor pool per ensemble.  This
package turns the existing runner + cache + engines into something that
can be *queried under load* — the online, reactive shape the paper's
dynamic quarantine itself has:

* :mod:`repro.service.http11` — the one stdlib asyncio HTTP/1.1 server
  both fronts are route tables on, plus their serve and thread runners;
* :mod:`repro.service.protocol` — JSON in/out, validated through the
  runner's spec types; result payloads are canonical bytes, identical
  to an in-process ``run_ensemble``;
* :mod:`repro.service.scheduler` — bounded admission queue (429 +
  ``Retry-After`` backpressure), single-flight request coalescing keyed
  on the result cache's spec digests, per-request deadlines with
  cooperative cancellation, bounded finished-job retention;
* :mod:`repro.service.workers` — one persistent process pool for the
  life of the server, with crash-restart for dead workers;
* :mod:`repro.service.metrics` — per-endpoint latency histograms on the
  observability layer's decade buckets;
* :mod:`repro.service.app` — routes, graceful SIGTERM drain, and the
  ``repro serve`` / in-thread entry points;
* :mod:`repro.service.jobstore` — durable append-only job journal +
  content-addressed results, so ``/v1/result`` survives restarts;
* :mod:`repro.service.quotas` — per-tenant token-bucket admission
  (the simulator's own bucket math at the API edge);
* :mod:`repro.service.router` — the ``--shards N`` front door: shard
  spawning/supervision, prefix routing, fleet metrics;
* :mod:`repro.service.client` — a blocking stdlib client.

Quickstart::

    repro serve --port 8321 --jobs 4 --max-queue 64

    from repro.runner import EnsembleSpec, RunSpec, TopologySpec
    from repro.service import ServiceClient

    client = ServiceClient(port=8321)
    spec = EnsembleSpec(
        template=RunSpec(topology=TopologySpec(kind="star", num_nodes=100)),
        num_runs=5, label="served",
    )
    result = client.run(spec)       # a full EnsembleResult
    print(result.time_to_fraction(0.5))
"""

from .app import ServiceConfig, ServiceThread, SimulationService, run_server
from .client import JobFailed, JobLost, QueueFull, ServiceClient, ServiceError
from .jobstore import JobStore, StoredJob, default_job_store_dir
from .protocol import (
    ProtocolError,
    canonical_json,
    decode_ensemble_result,
    encode_ensemble_result,
    result_payload,
)
from .quotas import QuotaConfig, QuotaDecision, QuotaTable
from .router import Router, ShardSupervisor, StaticShards, run_sharded_server
from .scheduler import Job, QueueFullError, Scheduler
from .workers import WorkerTier

__all__ = [
    "Job",
    "JobFailed",
    "JobLost",
    "JobStore",
    "ProtocolError",
    "QueueFull",
    "QueueFullError",
    "QuotaConfig",
    "QuotaDecision",
    "QuotaTable",
    "Router",
    "Scheduler",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceThread",
    "ShardSupervisor",
    "SimulationService",
    "StaticShards",
    "StoredJob",
    "WorkerTier",
    "canonical_json",
    "decode_ensemble_result",
    "default_job_store_dir",
    "encode_ensemble_result",
    "result_payload",
    "run_server",
    "run_sharded_server",
]
