"""Front-door router: shard fan-out, supervision, and edge quotas.

``repro serve --shards N`` runs N full ``repro serve`` worker processes
(the *shards*) behind one tiny stdlib router process — the only piece a
client ever talks to.  The router owns three jobs:

* **Routing.**  ``POST /v1/run`` round-robins across healthy shards.
  ``GET /v1/result/<id>`` routes by the id's shard prefix (shard ``k``
  mints ids ``s<k>-<hex>``); when the owning shard is down the poll
  falls back to any healthy shard, which answers from the *shared*
  durable job store (journals are per-shard but readable by all).
  ``/v1/stream`` sessions are stateful and unsharded: they pin to the
  lowest-numbered healthy shard.
* **Supervision.**  :class:`ShardSupervisor` spawns the shard
  processes (each ``--port 0`` on loopback, banner-parsed), health
  checks them every tick, and restarts any that die — a SIGKILL'd
  shard is a blip, not an outage, because its journal replays on
  restart.  The ``service.shard.kill`` chaos site injects exactly that
  blip.
* **Quotas.**  The per-tenant token buckets live *here*, at the single
  entry point, so N shards never multiply a tenant's budget (shards
  run with quotas disabled in sharded mode).

The router is a route table on the same HTTP server as the service
(:mod:`repro.service.http11`) and forwards with per-request upstream
connections (``Connection: close``) — boring and allocation-heavy, but
shard hops are loopback and the simulation dominates (sharded mode is
not benchmarked; see the README's *Benchmarks* section).

:class:`StaticShards` swaps in for the supervisor under test: routing
logic runs against in-process :class:`~repro.service.app.ServiceThread`
shards with no subprocess in sight.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

from ..chaos.controller import fault_point
from .app import ServiceConfig
from .http11 import (
    HttpFront,
    Request,
    Response,
    encode_request,
    error,
    exchange,
    run_until_signal,
)
from .metrics import merge_latency_tables
from .quotas import QuotaTable

__all__ = [
    "StaticShards",
    "ShardSupervisor",
    "Router",
    "run_sharded_server",
]

#: How long a forwarded request may take end to end (the shard itself
#: answers 202 instantly; only /metrics fan-in does real work).
PROXY_TIMEOUT_S = 60.0


def shard_tag(index: int) -> str:
    """The canonical tag (and job-id prefix stem) of shard ``index``."""
    return f"s{index}"


def shard_index_for_job(job_id: str) -> int | None:
    """Recover the owning shard index from a job id, if well-formed."""
    tag, sep, _ = job_id.partition("-")
    if sep and len(tag) > 1 and tag[0] == "s" and tag[1:].isdigit():
        return int(tag[1:])
    return None


class StaticShards:
    """A fixed set of already-running shard addresses (test double).

    ``addresses[i]`` is ``(host, port)`` or ``None`` for a down shard;
    tests flip entries to simulate deaths without any processes.
    """

    def __init__(
        self, addresses: list[tuple[str, int] | None]
    ) -> None:
        if not addresses:
            raise ValueError("need at least one shard address")
        self._addresses = list(addresses)

    @property
    def count(self) -> int:
        return len(self._addresses)

    def address(self, index: int) -> tuple[str, int] | None:
        return self._addresses[index]

    def set_address(
        self, index: int, address: tuple[str, int] | None
    ) -> None:
        self._addresses[index] = address

    def check(self) -> int:
        """Static shards never restart; returns restarts performed (0)."""
        return 0

    def describe(self) -> list[dict]:
        return [
            {
                "shard": shard_tag(i),
                "alive": addr is not None,
                "address": f"{addr[0]}:{addr[1]}" if addr else None,
            }
            for i, addr in enumerate(self._addresses)
        ]

    def stop(self) -> None:  # pragma: no cover - nothing to do
        pass


@dataclass
class _ShardProc:
    """One supervised shard worker process."""

    index: int
    process: subprocess.Popen
    port: int
    started_at: float


class ShardSupervisor:
    """Spawn, health-check, and restart ``repro serve`` shard processes.

    Each shard is a full single-process service on a loopback port the
    OS picks (parsed from its startup banner), tagged ``s<k>`` so its
    job ids route, sharing one durable store root, quotas off (the
    router enforces them).
    """

    def __init__(
        self,
        config: ServiceConfig,
        shards: int,
        *,
        store_dir: str | None = None,
        engine: str | None = None,
        spawn_timeout_s: float = 30.0,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.config = config
        self.shards = shards
        self.engine = engine
        self.store_dir = (
            store_dir
            if store_dir is not None
            else config.resolved_store_dir()
        )
        self.spawn_timeout_s = spawn_timeout_s
        self._procs: list[_ShardProc | None] = [None] * shards
        self.restarts = 0
        self._kill_rotation = 0

    @property
    def count(self) -> int:
        return self.shards

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------

    def _shard_argv(self, index: int) -> list[str]:
        cfg = self.config
        argv = [sys.executable, "-m", "repro", "serve"]
        for flag, value in (
            ("--host", "127.0.0.1"),
            ("--port", 0),
            ("--shard-tag", shard_tag(index)),
            ("--jobs", cfg.jobs),
            ("--max-queue", cfg.max_queue),
            ("--concurrency", cfg.concurrency),
            ("--drain-timeout", cfg.drain_timeout_s),
            ("--max-streams", cfg.max_streams),
            ("--stream-ttl", cfg.stream_ttl_s),
            ("--deadline", cfg.deadline_s),
            ("--cache-dir", (cfg.cache_dir or None) if cfg.cache_enabled else None),
            ("--store-dir", self.store_dir),
            ("--engine", self.engine),
        ):
            if value is not None:
                argv += [flag, str(value)]
        if not cfg.cache_enabled:
            argv.append("--no-cache")
        return argv

    def _spawn_env(self) -> dict[str, str]:
        env = dict(os.environ)
        # Make ``-m repro`` importable in the child no matter how the
        # supervisor itself was launched (checkout vs installed).
        package_parent = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        existing = env.get("PYTHONPATH", "")
        paths = [package_parent] + ([existing] if existing else [])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        return env

    def _read_banner_port(self, process: subprocess.Popen) -> int:
        """Block (bounded) until the shard prints its listening banner."""
        deadline = time.monotonic() + self.spawn_timeout_s
        assert process.stdout is not None
        fd = process.stdout.fileno()
        buffer = b""
        while time.monotonic() < deadline:
            if process.poll() is not None:
                raise RuntimeError(
                    f"shard exited before binding "
                    f"(rc={process.returncode})"
                )
            ready, _, _ = select.select([fd], [], [], 0.2)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                continue
            buffer += chunk
            if b"listening on http://" in buffer and b"\n" in buffer:
                for line in buffer.decode("utf-8", "replace").splitlines():
                    if "listening on http://" in line:
                        addr = line.split("http://", 1)[1].split()[0]
                        return int(addr.rsplit(":", 1)[1])
        raise RuntimeError(
            f"shard did not bind within {self.spawn_timeout_s}s"
        )

    def _spawn(self, index: int) -> _ShardProc:
        process = subprocess.Popen(
            self._shard_argv(index),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=self._spawn_env(),
        )
        try:
            port = self._read_banner_port(process)
        except Exception:
            process.kill()
            process.wait()
            raise
        return _ShardProc(
            index=index,
            process=process,
            port=port,
            started_at=time.monotonic(),
        )

    def start(self) -> None:
        """Spawn every shard and wait for each to bind."""
        for index in range(self.shards):
            self._procs[index] = self._spawn(index)

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------

    def address(self, index: int) -> tuple[str, int] | None:
        proc = self._procs[index]
        if proc is None or proc.process.poll() is not None:
            return None
        return ("127.0.0.1", proc.port)

    def check(self) -> int:
        """One health tick: restart dead shards; returns restarts done.

        The ``service.shard.kill`` chaos site fires here — an ``error``
        fault SIGKILLs one live shard (rotating through them), and the
        very same tick restarts it, turning a crash into the blip the
        recovery machinery is built for.
        """
        kill_one = False
        try:
            fault_point("service.shard.kill")
        except RuntimeError:
            # The "error" fault kind raises; here the error *is* the
            # crash we inject.
            kill_one = True
        if kill_one:
            victims = [p for p in self._procs if p is not None]
            if victims:
                victim = victims[self._kill_rotation % len(victims)]
                self._kill_rotation += 1
                if victim.process.poll() is None:
                    victim.process.kill()
                    victim.process.wait()
        restarted = 0
        for index in range(self.shards):
            proc = self._procs[index]
            if proc is not None and proc.process.poll() is None:
                continue
            if proc is not None:
                proc.process.wait()
            self._procs[index] = self._spawn(index)
            self.restarts += 1
            restarted += 1
        return restarted

    def describe(self) -> list[dict]:
        out = []
        for index in range(self.shards):
            proc = self._procs[index]
            alive = proc is not None and proc.process.poll() is None
            out.append(
                {
                    "shard": shard_tag(index),
                    "alive": alive,
                    "address": f"127.0.0.1:{proc.port}" if alive else None,
                    "pid": proc.process.pid if alive else None,
                    "uptime_s": round(
                        time.monotonic() - proc.started_at, 3
                    )
                    if alive
                    else None,
                }
            )
        return out

    def stop(self, *, grace_s: float = 30.0) -> None:
        """SIGTERM every shard (graceful drain), escalating to SIGKILL."""
        live = [p for p in self._procs if p is not None]
        for proc in live:
            if proc.process.poll() is None:
                try:
                    proc.process.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        deadline = time.monotonic() + grace_s
        for proc in live:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.process.kill()
                proc.process.wait()
        self._procs = [None] * self.shards


class Router(HttpFront):
    """The sharded front door: one listener, N shards behind it."""

    routes = (
        ("POST", "/v1/run", "/v1/run", "_handle_run"),
        ("GET", "/v1/result/*", "/v1/result", "_handle_result"),
        # Streams are stateful and unsharded: the whole session API pins
        # to the lowest-numbered healthy shard.
        ("POST", "/v1/stream*", "/v1/stream", "_handle_stream"),
        ("GET", "/healthz", "/healthz", "_handle_healthz"),
        ("GET", "/metrics", "/metrics", "_handle_metrics"),
    )

    def __init__(
        self,
        shards,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        quotas: QuotaTable | None = None,
        health_interval_s: float = 1.0,
        proxy_timeout_s: float = PROXY_TIMEOUT_S,
    ) -> None:
        self.shards = shards
        self.quotas = quotas
        self.health_interval_s = health_interval_s
        self.proxy_timeout_s = proxy_timeout_s
        self.counters = {
            "forwarded": 0,
            "forward_errors": 0,
            "retried": 0,
            "no_shard": 0,
            "quota_throttled": 0,
            "restarts": 0,
        }
        self._rr = 0
        super().__init__(host, port)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _background(self) -> list:
        return [self._health_loop()]

    async def _release(self) -> None:
        await asyncio.to_thread(self.shards.stop)

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.health_interval_s)
            try:
                restarted = await asyncio.to_thread(self.shards.check)
            except Exception:
                continue  # a failed respawn retries next tick
            if restarted:
                self.counters["restarts"] += restarted

    # ------------------------------------------------------------------
    # Shard selection
    # ------------------------------------------------------------------

    def _healthy_indices(self) -> list[int]:
        return [
            i
            for i in range(self.shards.count)
            if self.shards.address(i) is not None
        ]

    def _pick_run_order(self) -> list[int]:
        """Round-robin order for /v1/run, healthy shards only."""
        healthy = self._healthy_indices()
        if not healthy:
            return []
        start = self._rr % len(healthy)
        self._rr += 1
        return healthy[start:] + healthy[:start]

    def _pick_result_order(self, job_id: str) -> list[int]:
        """Owner-first order for /v1/result (store covers fallback)."""
        healthy = self._healthy_indices()
        owner = shard_index_for_job(job_id)
        if owner is not None and owner in healthy:
            return [owner] + [i for i in healthy if i != owner]
        return healthy

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    async def _handle_run(self, request: Request) -> Response:
        if self.draining:
            return error(503, "router is draining")
        if self.quotas is not None:
            decision = self.quotas.check(
                request.headers.get("x-repro-tenant")
            )
            if not decision.allowed:
                self.counters["quota_throttled"] += 1
                return decision.refusal()
        return await self._proxy(request, self._pick_run_order())

    async def _handle_result(self, request: Request, job_id: str) -> Response:
        return await self._proxy(request, self._pick_result_order(job_id))

    async def _handle_stream(self, request: Request, _rest: str) -> Response:
        return await self._proxy(request, self._healthy_indices()[:1])

    async def _proxy(
        self, request: Request, order: list[int]
    ) -> Response:
        """Forward to the first shard in ``order`` that answers.

        A refused connection, a timeout, or a broken response frame
        counts as a ``forward_error`` and moves on to the next shard.
        """
        upstream = encode_request(request)
        for attempt, index in enumerate(order):
            address = self.shards.address(index)
            if address is None:
                continue
            try:
                status, headers, body = await asyncio.wait_for(
                    exchange(address, upstream),
                    timeout=self.proxy_timeout_s,
                )
            except (OSError, asyncio.TimeoutError):
                # read_response raises ConnectionError on a broken frame.
                self.counters["forward_errors"] += 1
                if attempt + 1 < len(order):
                    self.counters["retried"] += 1
                continue
            self.counters["forwarded"] += 1
            extra = {
                "Content-Type": headers.get("content-type", "application/json")
            }
            if "retry-after" in headers:
                extra["Retry-After"] = headers["retry-after"]
            return status, body, extra
        self.counters["no_shard"] += 1
        return error(503, "no healthy shard", retry_after=1.0)

    async def _handle_healthz(self, request: Request) -> Response:
        shards = self.shards.describe()
        alive = sum(1 for s in shards if s["alive"])
        return (
            200,
            {
                "status": "draining"
                if self.draining
                else ("ok" if alive else "degraded"),
                "router": True,
                "uptime_s": round(self.metrics.uptime_s, 3),
                "shards": shards,
                "alive": alive,
            },
            None,
        )

    async def _handle_metrics(self, request: Request) -> Response:
        """Aggregate shard /metrics into one fleet-level document."""
        probe = encode_request(Request("GET", "/metrics"))

        async def fetch(index: int):
            address = self.shards.address(index)
            if address is None:
                return None
            try:
                status, _, body = await asyncio.wait_for(
                    exchange(address, probe),
                    timeout=self.proxy_timeout_s,
                )
                if status != 200:
                    return None
                return json.loads(body)
            except (OSError, asyncio.TimeoutError, ValueError):
                return None

        snapshots = [
            snap
            for snap in await asyncio.gather(
                *(fetch(i) for i in range(self.shards.count))
            )
            if snap is not None
        ]
        jobs: dict[str, int] = {}
        for snap in snapshots:
            for key, value in (snap.get("jobs") or {}).items():
                jobs[key] = jobs.get(key, 0) + int(value)
        payload = {
            "router": {
                "uptime_s": round(self.metrics.uptime_s, 3),
                "counters": dict(self.counters),
                "latency": self.metrics.snapshot(),
                "quotas": self.quotas.stats() if self.quotas else None,
            },
            "shards": self.shards.describe(),
            "jobs": jobs,
            "recovered": sum(
                int(snap.get("recovered", 0)) for snap in snapshots
            ),
            "latency": merge_latency_tables(
                [snap.get("latency") or {} for snap in snapshots]
            ),
        }
        return 200, payload, None


def run_sharded_server(
    config: ServiceConfig,
    shards: int,
    *,
    engine: str | None = None,
    out=sys.stdout,
) -> int:
    """Blocking entry point behind ``repro serve --shards N``.

    Spawns the shard fleet, serves the router until SIGTERM/SIGINT,
    then drains: the router stops accepting, each shard gets a SIGTERM
    and finishes its queue, and the process exits 0.
    """
    supervisor = ShardSupervisor(config, shards, engine=engine)
    try:
        supervisor.start()
    except Exception as exc:
        print(f"repro.router failed to start shards: {exc}", file=out)
        supervisor.stop(grace_s=5.0)
        return 1
    return run_until_signal(
        lambda: Router(
            supervisor,
            host=config.host,
            port=config.port,
            quotas=config.quota_table(),
        ),
        name="repro.router",
        details=(
            f"shards={shards}, jobs={config.jobs}, "
            f"max_queue={config.max_queue}, "
            f"concurrency={config.concurrency}"
        ),
        out=out,
    )
