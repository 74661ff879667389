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

The router speaks the same minimal HTTP/1.1 as the service transport
and forwards with per-request upstream connections (``Connection:
close``) — boring and allocation-heavy, but shard hops are loopback
and the simulation dominates (sharded mode is not benchmarked; see the
README's *Benchmarks* section).

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
from .http11 import HttpError, Request, encode_response, read_request
from .metrics import ServiceMetrics, merge_latency_tables
from .protocol import canonical_json
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
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--shard-tag",
            shard_tag(index),
            "--jobs",
            str(cfg.jobs),
            "--max-queue",
            str(cfg.max_queue),
            "--concurrency",
            str(cfg.concurrency),
            "--drain-timeout",
            str(cfg.drain_timeout_s),
            "--max-streams",
            str(cfg.max_streams),
            "--stream-ttl",
            str(cfg.stream_ttl_s),
        ]
        if cfg.deadline_s is not None:
            argv += ["--deadline", str(cfg.deadline_s)]
        if not cfg.cache_enabled:
            argv.append("--no-cache")
        elif cfg.cache_dir:
            argv += ["--cache-dir", cfg.cache_dir]
        if self.store_dir is not None:
            argv += ["--store-dir", self.store_dir]
        if self.engine is not None:
            argv += ["--engine", self.engine]
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


async def _forward(
    address: tuple[str, int], request_bytes: bytes
) -> tuple[int, dict[str, str], bytes]:
    """Send one upstream request; returns (status, headers, body)."""
    reader, writer = await asyncio.open_connection(*address)
    try:
        writer.write(request_bytes)
        await writer.drain()
        status_line = await reader.readline()
        parts = status_line.decode("latin-1").split(" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError(f"bad status line: {status_line!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        body = await reader.readexactly(length) if length else b""
        return status, headers, body
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _encode_upstream(request: Request) -> bytes:
    """Re-serialize a parsed request for one-shot upstream forwarding."""
    target = request.path
    if request.query:
        target = f"{target}?{request.query}"
    lines = [
        f"{request.method} {target} HTTP/1.1",
        "Host: shard",
        "Connection: close",
        f"Content-Length: {len(request.body)}",
    ]
    for name in ("content-type", "x-repro-tenant"):
        value = request.headers.get(name)
        if value:
            lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + request.body


class Router:
    """The sharded front door: one listener, N shards behind it."""

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
        self.host = host
        self.port: int | None = port
        self.quotas = quotas
        self.health_interval_s = health_interval_s
        self.proxy_timeout_s = proxy_timeout_s
        self.metrics = ServiceMetrics()
        self.counters = {
            "forwarded": 0,
            "forward_errors": 0,
            "retried": 0,
            "no_shard": 0,
            "quota_throttled": 0,
            "restarts": 0,
        }
        self._rr = 0
        self._server: asyncio.base_events.Server | None = None
        self._health_task: asyncio.Task | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self.draining = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._health_task = asyncio.ensure_future(self._health_loop())

    async def stop(self) -> None:
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
        for writer in list(self._connections):
            writer.close()
        await asyncio.sleep(0)
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
    # HTTP handling
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(
                        encode_response(
                            exc.status,
                            canonical_json({"error": exc.message}),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                started = asyncio.get_running_loop().time()
                endpoint, response = await self._dispatch(request)
                writer.write(response)
                await writer.drain()
                self.metrics.record(
                    endpoint,
                    asyncio.get_running_loop().time() - started,
                )
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    def _json(
        status: int, obj, headers: dict[str, str] | None = None
    ) -> bytes:
        return encode_response(
            status, canonical_json(obj), extra_headers=headers
        )

    async def _dispatch(self, request: Request) -> tuple[str, bytes]:
        path = request.path
        if path == "/v1/run":
            return "/v1/run", await self._handle_run(request)
        if path.startswith("/v1/result/"):
            job_id = path[len("/v1/result/"):]
            return "/v1/result", await self._proxy(
                request, self._pick_result_order(job_id)
            )
        if path.startswith("/v1/stream"):
            # Streams are stateful and unsharded: pin the whole session
            # API to the lowest-numbered healthy shard.
            healthy = self._healthy_indices()
            return "/v1/stream", await self._proxy(request, healthy[:1])
        if path == "/healthz":
            return "/healthz", self._handle_healthz()
        if path == "/metrics":
            return "/metrics", await self._handle_metrics()
        return "*", self._json(
            404, {"error": f"no such endpoint: {path}"}
        )

    async def _handle_run(self, request: Request) -> bytes:
        if self.draining:
            return self._json(503, {"error": "router is draining"})
        if request.method != "POST":
            return self._json(405, {"error": "use POST"})
        if self.quotas is not None:
            decision = self.quotas.check(
                request.headers.get("x-repro-tenant")
            )
            if not decision.allowed:
                self.counters["quota_throttled"] += 1
                return self._json(
                    429,
                    {
                        "error": "tenant quota exceeded",
                        "tenant": decision.tenant,
                        "retry_after_s": round(decision.retry_after_s, 3),
                    },
                    headers={"Retry-After": decision.retry_after_header},
                )
        return await self._proxy(request, self._pick_run_order())

    async def _proxy(
        self, request: Request, order: list[int]
    ) -> bytes:
        """Forward to the first shard in ``order`` that answers."""
        upstream = _encode_upstream(request)
        for attempt, index in enumerate(order):
            address = self.shards.address(index)
            if address is None:
                continue
            try:
                status, headers, body = await asyncio.wait_for(
                    _forward(address, upstream),
                    timeout=self.proxy_timeout_s,
                )
            except (
                ConnectionError,
                OSError,
                asyncio.IncompleteReadError,
                asyncio.TimeoutError,
            ):
                self.counters["forward_errors"] += 1
                if attempt + 1 < len(order):
                    self.counters["retried"] += 1
                continue
            self.counters["forwarded"] += 1
            extra = {}
            if "retry-after" in headers:
                extra["Retry-After"] = headers["retry-after"]
            return encode_response(
                status,
                body,
                content_type=headers.get(
                    "content-type", "application/json"
                ),
                extra_headers=extra or None,
                keep_alive=request.keep_alive,
            )
        self.counters["no_shard"] += 1
        return self._json(
            503,
            {"error": "no healthy shard", "retry_after_s": 1.0},
            headers={"Retry-After": "1"},
        )

    def _handle_healthz(self) -> bytes:
        shards = self.shards.describe()
        alive = sum(1 for s in shards if s["alive"])
        return self._json(
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
        )

    async def _handle_metrics(self) -> bytes:
        """Aggregate shard /metrics into one fleet-level document."""
        async def fetch(index: int):
            address = self.shards.address(index)
            if address is None:
                return None
            probe = (
                b"GET /metrics HTTP/1.1\r\nHost: shard\r\n"
                b"Connection: close\r\n\r\n"
            )
            try:
                status, _, body = await asyncio.wait_for(
                    _forward(address, probe),
                    timeout=self.proxy_timeout_s,
                )
                if status != 200:
                    return None
                return json.loads(body)
            except (
                ConnectionError,
                OSError,
                asyncio.IncompleteReadError,
                asyncio.TimeoutError,
                ValueError,
            ):
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
        return self._json(200, payload)


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
    quota_config = config.quota_config()
    router = Router(
        supervisor,
        host=config.host,
        port=config.port,
        quotas=QuotaTable(quota_config) if quota_config else None,
    )

    async def _serve() -> int:
        await router.start()
        print(
            f"repro.router listening on "
            f"http://{config.host}:{router.port} "
            f"(shards={shards}, jobs={config.jobs}, "
            f"max_queue={config.max_queue}, "
            f"concurrency={config.concurrency})",
            file=out,
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await stop.wait()
        print("repro.router draining...", file=out, flush=True)
        await router.stop()
        print("repro.router stopped (clean)", file=out, flush=True)
        return 0

    return asyncio.run(_serve())
