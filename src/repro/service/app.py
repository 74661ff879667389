"""The simulation service: routes, lifecycle, and entry points.

``SimulationService`` wires the pieces together: its route table runs
on the shared HTTP front (:mod:`repro.service.http11`); POST
``/v1/run`` validates the spec through the runner types and admits it
to the :class:`~repro.service.scheduler.Scheduler` (429 +
``Retry-After`` when the queue is full, coalescing duplicates onto
in-flight jobs); the scheduler's worker slots execute ensembles on the
persistent :class:`~repro.service.workers.WorkerTier`; GET
``/v1/result/<id>`` serves the canonical payload bytes; ``/healthz``
and ``/metrics`` expose liveness and live counters.

Three ways to run it:

* ``repro serve`` → :func:`run_server` — blocks until SIGTERM/SIGINT,
  then drains gracefully (stop accepting, finish queued + running jobs,
  close the pool) before exiting 0;
* :class:`ServiceThread` — the same service on a private event loop in
  a daemon thread (the shared :class:`~repro.service.http11.ServerThread`
  runner), for tests, notebooks, and the load benchmark;
* ``await SimulationService(config).start()`` — embed it in an
  existing event loop.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass

from ..chaos.controller import fault_point
from ..observability.hub import observability_hub
from ..runner.api import expand_runs
from ..runner.cache import ResultCache, default_cache_dir, spec_digest
from ..runner.spec import EnsembleSpec, SpecError
from .http11 import (
    HttpFront,
    Request,
    Response,
    ServerThread,
    error,
    run_until_signal,
)
from .jobstore import JobStore, default_job_store_dir
from .protocol import ProtocolError, parse_run_request
from .quotas import QuotaConfig, QuotaTable
from .scheduler import (
    DONE,
    EXPIRED,
    FAILED,
    QUEUED,
    QueueFullError,
    Scheduler,
)
from .streams import StreamLimitError, StreamProtocolError, StreamRegistry
from .workers import WorkerTier

__all__ = ["ServiceConfig", "SimulationService", "ServiceThread", "run_server"]


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` can turn into a running service.

    Attributes
    ----------
    host, port:
        Bind address; ``port=0`` lets the OS pick (the bound port is on
        ``SimulationService.port`` after ``start()``).
    jobs:
        Worker processes in the persistent pool (1 = in-process serial).
    max_queue:
        Admission-queue capacity; beyond it requests get 429.
    concurrency:
        Ensembles executing at once (each fans its runs across the
        shared pool).
    deadline_s:
        Default per-request deadline; ``None`` means no limit unless
        the request carries its own ``deadline_s``.
    drain_timeout_s:
        How long a graceful shutdown waits for in-flight work.
    cache_enabled, cache_dir:
        The shared result cache (the coalescing digests key on it).
    max_streams, stream_ttl_s:
        Bounded admission for ``/v1/stream`` detection sessions: at
        most ``max_streams`` live at once (429 beyond), and a session
        idle for ``stream_ttl_s`` seconds is evicted.
    shard_tag:
        This process's shard name; job ids are prefixed ``<tag>-`` so a
        front-door router can route result polls by id alone.
    job_store_dir:
        Root of the durable job store.  ``None`` (the default) places
        it under the result-cache dir when the cache is enabled, and
        disables durability entirely when it is not.
    quota_rate, quota_burst, quota_tenants:
        Per-tenant token-bucket admission on ``POST /v1/run``;
        ``quota_rate=None`` (the default) disables quotas.  In sharded
        mode the front-door router owns the one quota table and shards
        run with quotas off, so N shards never multiply a budget.
    """

    host: str = "127.0.0.1"
    port: int = 8321
    jobs: int = 1
    max_queue: int = 64
    concurrency: int = 2
    deadline_s: float | None = None
    drain_timeout_s: float = 30.0
    cache_enabled: bool = True
    cache_dir: str | None = None
    max_streams: int = 8
    stream_ttl_s: float = 300.0
    shard_tag: str = "s0"
    job_store_dir: str | None = None
    quota_rate: float | None = None
    quota_burst: float | None = None
    quota_tenants: tuple[tuple[str, float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.concurrency < 1:
            raise ValueError(
                f"concurrency must be >= 1, got {self.concurrency}"
            )
        if self.max_streams < 1:
            raise ValueError(
                f"max_streams must be >= 1, got {self.max_streams}"
            )
        if self.stream_ttl_s <= 0:
            raise ValueError(
                f"stream_ttl_s must be positive, got {self.stream_ttl_s}"
            )
        if not self.shard_tag or "-" in self.shard_tag:
            raise ValueError(
                f"shard_tag must be non-empty and dash-free, "
                f"got {self.shard_tag!r}"
            )

    def quota_table(self) -> QuotaTable | None:
        """The quota table this config asks for, or ``None`` (disabled)."""
        if self.quota_rate is None:
            return None
        burst = (
            self.quota_burst
            if self.quota_burst is not None
            else max(1.0, 2.0 * self.quota_rate)
        )
        return QuotaTable(
            QuotaConfig(
                rate=self.quota_rate,
                burst=burst,
                tenants={
                    name: (rate, b) for name, rate, b in self.quota_tenants
                },
            )
        )

    def resolved_store_dir(self) -> str | None:
        """Where the durable job store lives, or ``None`` (no store)."""
        if self.job_store_dir is not None:
            return self.job_store_dir
        if not self.cache_enabled:
            return None
        cache_root = (
            self.cache_dir if self.cache_dir else str(default_cache_dir())
        )
        return str(default_job_store_dir(cache_root))


def coalesce_key(spec) -> tuple:
    """The single-flight identity of an ensemble request.

    Keyed on the result cache's own digests of every expanded run (so
    two requests coalesce exactly when they denote the same cached
    computation, engine override included) plus the display label,
    which is part of the payload bytes.
    """
    return (
        spec.label,
        tuple(spec_digest(run) for run in expand_runs(spec)),
    )


class SimulationService(HttpFront):
    """One running quarantine-simulation server."""

    routes = (
        ("POST", "/v1/run", "/v1/run", "_handle_run"),
        ("GET", "/v1/result/*", "/v1/result", "_handle_result"),
        ("POST", "/v1/stream", "/v1/stream", "_handle_stream_open"),
        ("POST", "/v1/stream/*/close", "/v1/stream/close", "_handle_stream_close"),
        ("POST", "/v1/stream/*", "/v1/stream/chunk", "_handle_stream_chunk"),
        ("GET", "/healthz", "/healthz", "_handle_healthz"),
        ("GET", "/metrics", "/metrics", "_handle_metrics"),
    )

    def __init__(
        self, config: ServiceConfig, *, runner=None
    ) -> None:
        self.config = config
        cache = (
            ResultCache(config.cache_dir) if config.cache_enabled else None
        )
        self.workers = WorkerTier(jobs=config.jobs, cache=cache)
        self.cache = cache
        store_dir = config.resolved_store_dir()
        self.store = (
            JobStore(store_dir, shard=config.shard_tag)
            if store_dir is not None
            else None
        )
        # ``runner`` injection lets tests drive the scheduler with a
        # gate-controlled function instead of real simulations.
        self.scheduler = Scheduler(
            runner if runner is not None else self.workers.run,
            max_queue=config.max_queue,
            store=self.store,
            id_prefix=f"{config.shard_tag}-",
        )
        self.quotas = config.quota_table()
        self.recovered = 0
        self.streams = StreamRegistry(
            max_streams=config.max_streams, ttl_s=config.stream_ttl_s
        )
        super().__init__(config.host, config.port)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Recover the journal, bind the listener, spawn the worker slots."""
        self._recover()
        await super().start()

    def _background(self) -> list:
        return [
            self.scheduler.worker_loop()
            for _ in range(self.config.concurrency)
        ]

    def _recover(self) -> None:
        """Resubmit journaled-but-unfinished jobs under their own ids.

        Runs before the listener binds, so a poll that reaches the
        restarted shard either finds the job queued (202) or already
        terminal — never unknown.  Payloads are pure functions of the
        spec, so the recovered result is byte-identical to what the
        crashed run would have produced.
        """
        if self.store is None:
            return
        for stored in self.store.incomplete():
            try:
                spec = EnsembleSpec.from_dict(stored.spec)
            except (SpecError, TypeError, KeyError, ValueError):
                # A journal written by a newer/older spec schema: leave
                # the line for operators, don't wedge startup.
                continue
            try:
                self.scheduler.submit(
                    spec,
                    key=coalesce_key(spec),
                    deadline_s=None,
                    job_id=stored.id,
                    record=False,
                    coalesce=False,
                )
            except QueueFullError:
                break  # admission bound still applies during recovery
            self.recovered += 1

    async def _drain(self) -> bool:
        """Finish queued and running jobs within the drain timeout."""
        return await self.scheduler.join(self.config.drain_timeout_s)

    async def _release(self) -> None:
        self.workers.close()
        if self.store is not None:
            self.store.close()

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    async def _handle_run(self, request: Request) -> Response:
        if self.draining:
            return error(503, "service is draining")
        if self.quotas is not None:
            decision = self.quotas.check(
                request.headers.get("x-repro-tenant")
            )
            if not decision.allowed:
                return decision.refusal()
        try:
            spec, deadline_s = parse_run_request(request.body)
        except ProtocolError as exc:
            return error(400, str(exc))
        if deadline_s is None:
            deadline_s = self.config.deadline_s
        try:
            job, coalesced = self.scheduler.submit(
                spec, key=coalesce_key(spec), deadline_s=deadline_s
            )
        except QueueFullError as exc:
            return error(
                429,
                "admission queue full",
                retry_after=exc.retry_after,
                queue_depth=exc.depth,
            )
        return (
            202,
            {
                "id": job.id,
                "status": job.status,
                "coalesced": coalesced,
                "queue_depth": self.scheduler.queue_depth,
            },
            None,
        )

    async def _handle_result(self, request: Request, job_id: str) -> Response:
        """Serve a job from the scheduler, else from the durable store.

        The store covers lives the in-memory table cannot: jobs finished
        before a restart, and jobs aged past the retention window — plus
        *any* shard's terminal jobs, since journals are shared.
        """
        job = self.scheduler.get(job_id)
        payload = job.payload if job is not None else None
        if job is None and self.store is not None:
            job = self.store.lookup_any(job_id)
            if job is not None and job.status == DONE:
                payload = self.store.payload_bytes(job)
        if job is None:
            return error(404, f"unknown job id: {job_id}")
        if job.status == DONE:
            if payload is None:
                return error(
                    404, f"stored result missing for job id: {job_id}"
                )
            return 200, payload, None
        if job.status in (FAILED, EXPIRED):
            return (
                500 if job.status == FAILED else 504,
                {"id": job_id, "status": job.status, "error": job.error},
                None,
            )
        # Not terminal yet.  A store-only "submitted" job is queued or
        # running on some shard, or about to be recovered by that
        # shard's restart: tell the client to keep polling.
        status = QUEUED if job.status == "submitted" else job.status
        return 202, {"id": job_id, "status": status}, None

    async def _handle_stream_open(self, request: Request) -> Response:
        if self.draining:
            return error(503, "service is draining")
        body = request.body.strip()
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, ValueError) as exc:
            return error(400, f"bad JSON body: {exc}")
        try:
            session = self.streams.open(payload)
        except StreamProtocolError as exc:
            return error(400, str(exc))
        except StreamLimitError as exc:
            return error(
                429,
                "stream limit reached",
                retry_after=exc.retry_after_s,
                open_streams=exc.open_streams,
            )
        return (
            201,
            {
                "id": session.id,
                "detectors": [d.name for d in session.engine.detectors],
                "max_streams": self.streams.max_streams,
            },
            None,
        )

    async def _handle_stream_chunk(
        self, request: Request, stream_id: str
    ) -> Response:
        # Chaos seam: a mid-stream fault degrades this one chunk, never
        # the session — the client replays it after Retry-After.
        try:
            fault = fault_point("service.stream.chunk")
        except RuntimeError:
            return error(503, "transient stream fault", retry_after=1.0)
        if fault is not None and fault.kind == "reject":
            return error(429, "stream chunk rejected", retry_after=1.0)
        try:
            result = self.streams.chunk(
                stream_id, request.body.decode("utf-8", "replace")
            )
        except KeyError:
            return error(404, f"unknown stream id: {stream_id}")
        return 200, result, None

    async def _handle_stream_close(
        self, request: Request, stream_id: str
    ) -> Response:
        try:
            summary = self.streams.close(stream_id)
        except KeyError:
            return error(404, f"unknown stream id: {stream_id}")
        return 200, summary, None

    async def _handle_healthz(self, request: Request) -> Response:
        return (
            200,
            {
                "status": "draining" if self.draining else "ok",
                "uptime_s": round(self.metrics.uptime_s, 3),
                "shard": self.config.shard_tag,
                "pid": os.getpid(),
            },
            None,
        )

    async def _handle_metrics(self, request: Request) -> Response:
        hub = observability_hub()
        cache_stats = None
        if self.cache is not None:
            probes = self.cache.hits + self.cache.misses
            cache_stats = {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "stores": self.cache.stores,
                "hit_rate": round(self.cache.hits / probes, 4)
                if probes
                else 0.0,
            }
        payload = {
            "uptime_s": round(self.metrics.uptime_s, 3),
            "shard": self.config.shard_tag,
            "recovered": self.recovered,
            "queue": {
                "depth": self.scheduler.queue_depth,
                "running": self.scheduler.running,
                "max": self.scheduler.max_queue,
                "concurrency": self.config.concurrency,
            },
            "jobs": dict(self.scheduler.counters),
            "jobstore": self.store.stats() if self.store else None,
            "quotas": self.quotas.stats() if self.quotas else None,
            "cache": cache_stats,
            "streams": self.streams.stats(),
            "workers": {
                "jobs": self.workers.executor.jobs,
                "mode": self.workers.mode,
                "restarts": self.workers.restarts,
            },
            "observability": {
                "counters": dict(hub.counters),
                "phase_seconds": {
                    phase: round(seconds, 6)
                    for phase, seconds in hub.phase_seconds.items()
                },
                "runs_recorded": hub.runs_recorded,
            },
            "latency": self.metrics.snapshot(),
        }
        return 200, payload, None


def run_server(config: ServiceConfig, out=sys.stdout) -> int:
    """Blocking entry point behind ``repro serve``.

    Serves until SIGTERM/SIGINT, then drains gracefully: the listener
    closes first (new connections refused), queued and running jobs
    finish within ``drain_timeout_s``, the worker pool shuts down, and
    the process exits 0 (1 on drain timeout).
    """
    return run_until_signal(
        lambda: SimulationService(config),
        name="repro.service",
        details=(
            f"jobs={config.jobs}, max_queue={config.max_queue}, "
            f"concurrency={config.concurrency}"
        ),
        out=out,
    )


class ServiceThread(ServerThread):
    """The service on a private event loop in a daemon thread.

    The shape tests and benchmarks want: ``with ServiceThread(config)
    as service:`` yields a started service whose ``port`` is bound;
    exit drains and joins.
    """

    def __init__(self, config: ServiceConfig, *, runner=None) -> None:
        super().__init__(lambda: SimulationService(config, runner=runner))
        self.config = config

    @property
    def service(self) -> SimulationService | None:
        return self.server
