"""A deliberately small asyncio HTTP/1.1 layer: the one server both fronts use.

Only what the simulation protocol needs: request and response heads,
``Content-Length`` bodies, keep-alive connections.  No TLS, no chunked
transfer — POSTed specs and polled results are small JSON documents,
and keeping the transport this thin means the scheduler, not the
plumbing, is the part of the service worth reading.  The single-process
service and the sharded router are each a route table plus handlers on
:class:`HttpFront`; :func:`run_until_signal` and :class:`ServerThread`
run either one, and :func:`exchange` is the router's upstream hop,
framed by the same rules as :func:`read_request`.
"""

from __future__ import annotations

import asyncio
import re
import signal
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from http import HTTPStatus
from typing import Any, Callable
from urllib.parse import urlsplit

from ..chaos.controller import corrupt
from .metrics import ServiceMetrics
from .protocol import canonical_json

__all__ = [
    "MAX_HEADER_BYTES",
    "MAX_BODY_BYTES",
    "HttpError",
    "HttpFront",
    "Request",
    "Response",
    "ServerThread",
    "encode_request",
    "encode_response",
    "error",
    "exchange",
    "read_request",
    "read_response",
    "run_until_signal",
]

#: Hard limits on message size; both are far above anything the
#: protocol legitimately produces, so exceeding them is a peer bug.
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Reason phrases for every registered status; a proxied status outside
#: the registry goes out as "Unknown".
_REASONS = {status.value: status.phrase for status in HTTPStatus}

#: What a handler returns: ``(status, body, extra headers or None)``.
#: A ``bytes`` body is sent as is, any other is ``canonical_json``-ed;
#: a ``Content-Type`` header replaces the JSON default.
Response = tuple[int, Any, "dict[str, str] | None"]


class HttpError(Exception):
    """A malformed request; ``status`` is what the client should see."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One parsed HTTP/1.1 request."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """Whether the client asked to reuse the connection."""
        return self.headers.get("connection", "").lower() != "close"


def error(
    status: int, message: str, *, retry_after: float | None = None, **extra
) -> Response:
    """The JSON error response ``{"error": message, **extra}``.

    ``retry_after`` seconds go out twice: as ``retry_after_s`` in the
    body and as a whole-second ``Retry-After`` header.
    """
    if retry_after is None:
        return status, {"error": message, **extra}, None
    body = {"error": message, "retry_after_s": retry_after, **extra}
    return status, body, {"Retry-After": str(int(retry_after))}


async def _read_head(
    reader: asyncio.StreamReader, kind: str
) -> tuple[str, dict[str, str]] | None:
    """The start line and lower-cased headers; ``None`` on clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, f"truncated {kind} head") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(413, f"{kind} head too large") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, f"{kind} head too large")

    lines = head.decode("latin-1").split("\r\n")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    return lines[0], headers


async def _read_body(
    reader: asyncio.StreamReader, headers: dict[str, str], kind: str
) -> bytes:
    """The ``Content-Length`` body (empty when the header is absent)."""
    if headers.get("transfer-encoding"):
        raise HttpError(411, "chunked bodies are not supported")
    length_text = headers.get("content-length")
    if length_text is None:
        return b""
    if not (length_text.isascii() and length_text.isdigit()):
        raise HttpError(400, "bad Content-Length")
    length = int(length_text)
    if length > MAX_BODY_BYTES:
        raise HttpError(413, f"{kind} body too large")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise HttpError(400, f"truncated {kind} body") from exc


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request off the stream; ``None`` on clean EOF.

    Raises :class:`HttpError` for anything malformed or oversized —
    the connection loop answers with the error's status and closes.
    """
    head = await _read_head(reader, "request")
    if head is None:
        return None
    request_line, headers = head
    parts = request_line.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {request_line!r}")
    method, target, _version = parts
    body = await _read_body(reader, headers, "request")
    # No endpoint takes query parameters, so only the path is kept.
    return Request(
        method=method,
        path=urlsplit(target).path,
        headers=headers,
        body=body,
    )


async def read_response(
    reader: asyncio.StreamReader,
) -> tuple[int, dict[str, str], bytes]:
    """Parse one upstream response: (status, headers, body).

    :func:`read_request`'s limits and ``Content-Length`` checks apply.
    A frame that breaks them, or whose status line does not start
    ``HTTP/1.`` (what the ``garble`` chaos fault makes), raises
    ``ConnectionError``: to the caller the hop simply failed.
    """
    try:
        head = await _read_head(reader, "response")
        if head is None:
            raise HttpError(400, "connection closed before a response")
        status_line, headers = head
        match = re.fullmatch(r"HTTP/1\.\d ([0-9]{3})(?: .*)?", status_line)
        if match is None:
            raise HttpError(400, f"malformed status line: {status_line!r}")
        body = await _read_body(reader, headers, "response")
    except HttpError as exc:
        raise ConnectionError(f"bad upstream frame: {exc}") from exc
    return int(match.group(1)), headers, body


def encode_response(response: Response, *, keep_alive: bool = True) -> bytes:
    """Serialize one ``(status, body, headers)`` response, Content-Length framed."""
    status, body, headers = response
    if not isinstance(body, bytes):
        body = canonical_json(body)
    extra = dict(headers or {})
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {extra.pop('Content-Type', 'application/json')}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines += [f"{name}: {value}" for name, value in extra.items()]
    head = "\r\n".join(lines) + "\r\n\r\n"
    # Chaos: ``truncate``/``garble`` faults ship a damaged frame so
    # client-resilience tests see real short reads and bad status lines.
    return corrupt("service.http.response", head.encode("latin-1") + body)


def encode_request(request: Request) -> bytes:
    """Serialize ``request`` for a one-shot ``Connection: close`` hop."""
    lines = [
        f"{request.method} {request.path} HTTP/1.1",
        "Host: upstream",
        "Connection: close",
        f"Content-Length: {len(request.body)}",
    ]
    # End-to-end headers (tenant, content type) travel on; the ones that
    # describe the client's connection do not.
    for name, value in request.headers.items():
        if name not in ("connection", "content-length", "host", "keep-alive"):
            lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + request.body


async def exchange(
    address: tuple[str, int], request_bytes: bytes
) -> tuple[int, dict[str, str], bytes]:
    """One request over a fresh upstream connection: (status, headers, body)."""
    reader, writer = await asyncio.open_connection(*address)
    try:
        writer.write(request_bytes)
        await writer.drain()
        return await read_response(reader)
    finally:
        await _hang_up(writer)


class HttpFront:
    """A route table served on one listener: the base of both fronts.

    A subclass lists its routes as ``(method, path, endpoint name,
    handler method name)`` rows; handlers are coroutines.  ``path`` is exact or holds one ``*``,
    which matches any run of characters and is passed to the handler
    after the request.  The first route whose path matches decides: a
    method mismatch is a 405 naming the route's method; no match at all
    is a 404 under the endpoint name ``*``.  Every response is encoded
    once, here, with ``Connection`` echoing the request, and its wall
    time goes into ``metrics`` under the route's endpoint name.

    Subclasses fill in three lifecycle hooks: :meth:`_background`
    (coroutines to run while serving), :meth:`_drain` (finish in-flight
    work after the listener closes) and :meth:`_release`.
    """

    routes: tuple[tuple[str, str, str, str], ...] = ()

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port: int | None = port
        self.metrics = ServiceMetrics()
        self.draining = False
        self._routes = [
            (method, _path_pattern(path), endpoint, getattr(self, handler))
            for method, path, endpoint, handler in self.routes
        ]
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._tasks: list[asyncio.Future] = []

    async def start(self) -> None:
        """Bind the listener and spawn the background tasks."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._tasks = [asyncio.ensure_future(c) for c in self._background()]

    async def stop(self) -> bool:
        """Stop accepting, drain, release; True when the drain was clean."""
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        clean = await self._drain()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        # Hang up idle keep-alive connections so their handler tasks
        # see EOF and exit before the loop tears down.
        for writer in list(self._connections):
            writer.close()
        await asyncio.sleep(0)
        await self._release()
        return clean

    def _background(self) -> list:
        return []

    async def _drain(self) -> bool:
        return True

    async def _release(self) -> None:
        pass

    async def _dispatch(self, request: Request) -> tuple[str, Response]:
        """Route one request; returns (endpoint name, response)."""
        for method, pattern, endpoint, handler in self._routes:
            match = pattern.fullmatch(request.path)
            if match is None:
                continue
            if request.method != method:
                return endpoint, error(405, f"use {method}")
            return endpoint, await handler(request, *match.groups())
        return "*", error(404, f"no such endpoint: {request.path}")

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(
                        encode_response(
                            error(exc.status, str(exc)), keep_alive=False
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                started = loop.time()
                endpoint, response = await self._dispatch(request)
                writer.write(
                    encode_response(response, keep_alive=request.keep_alive)
                )
                await writer.drain()
                self.metrics.record(endpoint, loop.time() - started)
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to salvage
        except asyncio.CancelledError:
            pass  # loop shutting down; the connection dies with it
        finally:
            self._connections.discard(writer)
            await _hang_up(writer)


async def _hang_up(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass  # the peer hung up first


def _path_pattern(path: str) -> re.Pattern:
    """A route path as a regex whose ``*`` captures any run of characters."""
    return re.compile(re.escape(path).replace(r"\*", "(.*)"), re.DOTALL)


def run_until_signal(
    make_front: Callable[[], HttpFront], *, name: str, details: str, out
) -> int:
    """Serve a front until SIGTERM/SIGINT, then stop it; the exit code.

    Supervisors and smoke scripts parse the ``listening on`` banner.
    """

    def say(line: str) -> None:
        print(f"{name} {line}", file=out, flush=True)

    async def _serve() -> int:
        front = make_front()
        await front.start()
        say(f"listening on http://{front.host}:{front.port} ({details})")
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread or exotic platform
        await stop.wait()
        say("draining...")
        clean = await front.stop()
        say(f"stopped ({'clean' if clean else 'drain timeout'})")
        return 0 if clean else 1

    return asyncio.run(_serve())


class ServerThread:
    """A front on a private event loop in a daemon thread.

    ``with ServerThread(make_front) as thread:`` builds the front on the
    loop, starts it, and yields once ``thread.port`` is bound; exit
    stops the front and joins the thread.
    """

    def __init__(self, make_front: Callable[[], HttpFront]) -> None:
        self.server = None
        self.port: int | None = None
        self._make_front = make_front
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        # Resolves once the listener is bound, or carries why it wasn't.
        self._started: Future = Future()

    def start(self):
        """Spawn the loop thread and wait for the listener to bind."""
        self._thread = threading.Thread(
            target=asyncio.run, args=(self._main(),), daemon=True
        )
        self._thread.start()
        self._started.result(timeout=30)
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self.server = self._make_front()
            await self.server.start()
        except Exception as exc:
            self._started.set_exception(exc)
            return
        self.port = self.server.port
        self._started.set_result(None)
        await self._stop.wait()
        await self.server.stop()

    def stop(self) -> None:
        """Stop the front and join the loop thread (idempotent)."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=60)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
