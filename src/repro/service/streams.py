"""Long-lived streaming-detection sessions behind ``/v1/stream``.

A client opens a session (naming its detectors), POSTs JSONL flow
chunks against it, and closes it for the final summary; the per-session
:class:`~repro.streaming.detectors.DetectionEngine` keeps its state
across chunks, so detection latency is identical to feeding one
unbroken stream.  Admission is bounded the same way the run queue is:
at most ``max_streams`` sessions exist at once, and an open beyond that
is refused with a 429 + ``Retry-After`` instead of letting per-session
estimator state grow without limit.  Sessions that go quiet for
``ttl_s`` seconds are evicted lazily (on the next open/chunk/stats), so
an abandoned stream cannot pin its slot forever.

Chunk ingestion shares :class:`~repro.streaming.stream.JsonlFlowStream`'s
degradation contract: malformed lines and time-regressing records are
counted and skipped, never fatal — one corrupted chunk byte costs one
record, not the session.
"""

from __future__ import annotations

import math
import threading
import time
import uuid
from typing import Callable

from ..streaming.detectors import (
    DETECTORS,
    DetectionEngine,
    Detector,
    make_detector,
)
from ..streaming.estimators import CountMinSketch, VirtualHyperLogLog
from ..streaming.stream import private_internal, record_from_json
from ..traces.records import TraceError

__all__ = [
    "DETECTOR_KINDS",
    "StreamProtocolError",
    "StreamLimitError",
    "StreamSession",
    "StreamRegistry",
    "build_stream_engine",
]

#: Detector short names ``/v1/stream`` accepts (make_detector's kinds).
DETECTOR_KINDS = tuple(DETECTORS)


class StreamProtocolError(Exception):
    """The open request's body doesn't describe a valid engine (400)."""


class StreamLimitError(Exception):
    """Too many live sessions; try again later (429)."""

    def __init__(self, open_streams: int, retry_after_s: float) -> None:
        super().__init__(
            f"stream limit reached ({open_streams} open sessions)"
        )
        self.open_streams = open_streams
        self.retry_after_s = retry_after_s


def build_stream_engine(
    payload: dict,
    *,
    internal: Callable[[int], bool] = private_internal,
) -> DetectionEngine:
    """Build a session's engine from an open-request body.

    The body is ``{"detectors": [...], "compact_capacity": N?}``.  Each
    detectors entry is a short name (``"failure-ratio"``) or an object
    ``{"kind": ..., "params": {...}}`` whose params go straight to the
    detector's constructor.  ``compact_capacity`` switches the
    contact-rate and failure-ratio detectors to the shared-register
    estimators sized for that many hosts (unless a detector names its
    own estimators in params).
    """
    if not isinstance(payload, dict):
        raise StreamProtocolError("open body must be a JSON object")
    unknown = set(payload) - {"detectors", "compact_capacity"}
    if unknown:
        raise StreamProtocolError(
            f"unknown open-request keys: {sorted(unknown)}"
        )
    capacity = payload.get("compact_capacity")
    if capacity is not None and (
        not isinstance(capacity, int) or capacity < 1
    ):
        raise StreamProtocolError(
            f"compact_capacity must be a positive integer, got {capacity!r}"
        )
    specs = payload.get("detectors", ["failure-ratio"])
    if not isinstance(specs, list) or not specs:
        raise StreamProtocolError("detectors must be a non-empty list")
    detectors: list[Detector] = []
    for spec in specs:
        if isinstance(spec, str):
            kind, params = spec, {}
        elif isinstance(spec, dict):
            kind = spec.get("kind")
            params = dict(spec.get("params", {}))
            extra = set(spec) - {"kind", "params"}
            if extra:
                raise StreamProtocolError(
                    f"unknown detector keys: {sorted(extra)}"
                )
        else:
            raise StreamProtocolError(
                f"detector entry must be a name or object, got {spec!r}"
            )
        if kind not in DETECTOR_KINDS:
            raise StreamProtocolError(
                f"unknown detector kind {kind!r}; known: {DETECTOR_KINDS}"
            )
        if not all(isinstance(key, str) for key in params):
            raise StreamProtocolError("detector params keys must be strings")
        if capacity is not None:
            if kind == "contact-rate":
                params.setdefault(
                    "estimator", VirtualHyperLogLog(capacity)
                )
            elif kind == "failure-ratio":
                params.setdefault("failures", CountMinSketch(capacity))
                params.setdefault("attempts", CountMinSketch(capacity))
        try:
            detectors.append(make_detector(kind, internal=internal, **params))
        except (TraceError, TypeError, ValueError) as exc:
            raise StreamProtocolError(
                f"bad params for detector {kind!r}: {exc}"
            ) from exc
    return DetectionEngine(detectors)


class StreamSession:
    """One live detection session: an engine plus ingest bookkeeping."""

    __slots__ = (
        "id",
        "engine",
        "created",
        "last_seen",
        "last_time",
        "chunks",
        "bad_lines",
        "reordered",
    )

    def __init__(
        self, session_id: str, engine: DetectionEngine, *, now: float
    ) -> None:
        self.id = session_id
        self.engine = engine
        self.created = now
        self.last_seen = now
        self.last_time = float("-inf")
        self.chunks = 0
        self.bad_lines = 0
        self.reordered = 0

    def ingest(self, text: str) -> dict:
        """Feed one JSONL chunk; returns the chunk's events + counters."""
        events = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = record_from_json(line)
            except TraceError:
                self.bad_lines += 1
                continue
            if record.time < self.last_time:
                self.reordered += 1
                continue
            self.last_time = record.time
            events.extend(self.engine.feed(record))
        self.chunks += 1
        return {
            "id": self.id,
            "events": [event.to_dict() for event in events],
            "flows": self.engine.flows,
            "bad_lines": self.bad_lines,
            "reordered": self.reordered,
        }

    def summary(self) -> dict:
        """Flush the engine and report the session's final state."""
        final_events = self.engine.finish()
        return {
            "id": self.id,
            "events": [event.to_dict() for event in final_events],
            "flows": self.engine.flows,
            "chunks": self.chunks,
            "bad_lines": self.bad_lines,
            "reordered": self.reordered,
            "total_events": len(self.engine.events),
            "quarantined": {
                name: sorted(hosts)
                for name, hosts in sorted(
                    self.engine.quarantined().items()
                )
            },
        }


class StreamRegistry:
    """Bounded, TTL-evicting registry of live stream sessions."""

    def __init__(
        self,
        *,
        max_streams: int = 8,
        ttl_s: float = 300.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_streams < 1:
            raise ValueError(f"max_streams must be >= 1, got {max_streams}")
        if ttl_s <= 0:
            raise ValueError(f"ttl_s must be positive, got {ttl_s}")
        self.max_streams = max_streams
        self.ttl_s = ttl_s
        self._clock = clock
        self._sessions: dict[str, StreamSession] = {}
        self._lock = threading.Lock()
        self.opened = 0
        self.closed = 0
        self.evicted = 0
        self.rejected = 0
        self.flows_total = 0

    def _evict_expired(self, now: float) -> None:
        expired = [
            sid
            for sid, session in self._sessions.items()
            if session.last_seen + self.ttl_s < now
        ]
        for sid in expired:
            self.flows_total += self._sessions.pop(sid).engine.flows
            self.evicted += 1

    def open(self, payload: dict) -> StreamSession:
        """Admit a session or raise :class:`StreamLimitError` (429)."""
        engine = build_stream_engine(payload)
        with self._lock:
            now = self._clock()
            self._evict_expired(now)
            if len(self._sessions) >= self.max_streams:
                # The earliest slot frees when its session's TTL runs out.
                retry_after = max(
                    1.0,
                    math.ceil(
                        min(
                            session.last_seen + self.ttl_s - now
                            for session in self._sessions.values()
                        )
                    ),
                )
                self.rejected += 1
                raise StreamLimitError(len(self._sessions), retry_after)
            session = StreamSession(uuid.uuid4().hex, engine, now=now)
            self._sessions[session.id] = session
            self.opened += 1
            return session

    def chunk(self, stream_id: str, text: str) -> dict:
        """Ingest one chunk; raises :class:`KeyError` for unknown ids."""
        with self._lock:
            now = self._clock()
            self._evict_expired(now)
            session = self._sessions[stream_id]
            session.last_seen = now
        return session.ingest(text)

    def close(self, stream_id: str) -> dict:
        """Finish and remove a session; returns its summary."""
        with self._lock:
            session = self._sessions.pop(stream_id)
            self.closed += 1
            self.flows_total += session.engine.flows
        return session.summary()

    def stats(self) -> dict:
        """Live counters for ``/metrics``."""
        with self._lock:
            self._evict_expired(self._clock())
            return {
                "open": len(self._sessions),
                "max": self.max_streams,
                "ttl_s": self.ttl_s,
                "opened": self.opened,
                "closed": self.closed,
                "evicted": self.evicted,
                "rejected": self.rejected,
                "flows": self.flows_total
                + sum(s.engine.flows for s in self._sessions.values()),
            }
