"""Online detectors over flow streams: one interface, three families.

Every detector consumes time-ordered :class:`FlowRecord` objects via
``observe`` and yields timestamped events; ``finish`` flushes whatever
the end of the stream makes decidable (pending connection timeouts,
the final window).  Events come in two flavors:

* :class:`Verdict` — "this host looks infected" with a reason and score;
* :class:`QuarantineAction` — the containment decision itself, emitted
  at most once per host per detector (the paper's quarantine trigger).

Families:

* :class:`ContactRateDetector` — the paper's signal: distinct
  destinations contacted per window.  With exact estimators its
  per-window counts equal :func:`repro.traces.windows.per_host_counts`
  (the stream-vs-batch parity contract, asserted by test); with
  :class:`~repro.streaming.estimators.VirtualHyperLogLog` the per-host
  state drops to a few shared bytes.
* :class:`FailureRatioDetector` — connection-failure containment
  (Zhou/Zhou/Chen/Kreidl): count unanswered SYNs and ICMP unreachables
  per host, quarantine on failure count + failure ratio.  Its failure
  semantics are byte-for-byte those of
  :meth:`repro.traces.records.Trace.failed_contacts`, including the
  end-of-stream flush, so batch and stream agree exactly.
* :class:`ThrottleDetector` — adapter over the existing
  :mod:`repro.throttle` policies (Williamson / DNS): a host whose
  per-contact delay exceeds ``detect_delay`` is flagged.  This is the
  baseline the failure detector is compared against in the golden
  detection-latency fixture.

:class:`DetectionEngine` fans one stream out to several detectors and
collects events plus flow counts — the common core under the CLI, the
``/v1/stream`` endpoint and the evaluation harness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from ..throttle.base import Throttle
from ..throttle.dns_throttle import DnsThrottle
from ..throttle.replay import HostThrottles
from ..throttle.williamson import WilliamsonThrottle
from ..traces.dns import DEFAULT_DNS_TTL, ContactClassifier
from ..traces.records import (
    DEFAULT_FAILURE_TIMEOUT,
    FlowRecord,
    Protocol,
    TraceError,
)
from .estimators import CountMinSketch, ExactCounter, ExactDistinct

_TCP, _UDP = Protocol.TCP, Protocol.UDP  # bound once: see traces/records.py

__all__ = [
    "Verdict",
    "QuarantineAction",
    "Detector",
    "ContactRateDetector",
    "FailureRatioDetector",
    "ThrottleDetector",
    "DetectionEngine",
    "DETECTORS",
    "make_detector",
]


@dataclass(slots=True, frozen=True)
class Verdict:
    """A detector's judgement about one host at one moment."""

    time: float
    host: int
    detector: str
    kind: str  # "infected"
    reason: str
    score: float

    def to_dict(self) -> dict:
        return {
            "event": "verdict",
            "time": self.time,
            "host": self.host,
            "detector": self.detector,
            "kind": self.kind,
            "reason": self.reason,
            "score": self.score,
        }


@dataclass(slots=True, frozen=True)
class QuarantineAction:
    """A containment decision for one host (at most one per detector)."""

    time: float
    host: int
    detector: str
    action: str  # "quarantine"
    reason: str

    def to_dict(self) -> dict:
        return {
            "event": "action",
            "time": self.time,
            "host": self.host,
            "detector": self.detector,
            "action": self.action,
            "reason": self.reason,
        }


Event = Verdict | QuarantineAction


class Detector:
    """Base class: stateful online detector over a time-ordered stream."""

    name: str = "detector"

    def __init__(self, *, internal: Callable[[int], bool]) -> None:
        self._internal = internal
        self._quarantined: set[int] = set()
        self._last_time = float("-inf")

    @property
    def quarantined(self) -> frozenset[int]:
        """Hosts this detector has quarantined so far."""
        return frozenset(self._quarantined)

    def observe(self, record: FlowRecord) -> list[Event]:
        """Ingest one record; returns any events it triggers."""
        if record.time < self._last_time:
            raise TraceError(
                f"records must be time-ordered: {record.time} after "
                f"{self._last_time}"
            )
        self._last_time = record.time
        return self._observe(record)

    def finish(self) -> list[Event]:
        """Flush end-of-stream decisions (final window, pending timeouts)."""
        return []

    def _observe(self, record: FlowRecord) -> list[Event]:
        raise NotImplementedError

    def _quarantine(
        self, t: float, host: int, reason: str, score: float
    ) -> list[Event]:
        """Emit a verdict, plus the action if the host is newly flagged."""
        events: list[Event] = [
            Verdict(
                time=t, host=host, detector=self.name,
                kind="infected", reason=reason, score=score,
            )
        ]
        if host not in self._quarantined:
            self._quarantined.add(host)
            events.append(
                QuarantineAction(
                    time=t, host=host, detector=self.name,
                    action="quarantine", reason=reason,
                )
            )
        return events

    def memory_bytes(self) -> int | None:
        """Estimator-bank bytes, if this detector uses compact state."""
        return None


class ContactRateDetector(Detector):
    """Windowed distinct-destination counting (the paper's Figure 9 signal).

    Counts, per internal host and per tumbling ``window``, the distinct
    external destinations of initiated outbound flows; a window count at
    or above ``threshold`` quarantines the host.  With the default
    :class:`ExactDistinct` estimator the counts replicate
    :func:`repro.traces.windows.per_host_counts` under
    ``Refinement.ALL`` exactly; pass a
    :class:`~repro.streaming.estimators.VirtualHyperLogLog` for the
    hyper-compact variant (the bank is reset at window boundaries, so
    load stays in its documented-accuracy regime).
    """

    name = "contact_rate"

    def __init__(
        self, *, internal: Callable[[int], bool],
        window: float = 5.0, threshold: float = 100.0,
        estimator=None,
    ) -> None:
        super().__init__(internal=internal)
        if window <= 0:
            raise TraceError(f"window must be positive, got {window}")
        if threshold <= 0:
            raise TraceError(f"threshold must be positive, got {threshold}")
        self.window = window
        self.threshold = threshold
        self.estimator = estimator if estimator is not None else ExactDistinct()
        self._contacts = ContactClassifier(internal)
        self._current_window = 0
        self._active_hosts: set[int] = set()
        #: per-host per-window counts kept only in exact mode (parity).
        self.window_counts: dict[int, dict[int, int]] = {}
        self._exact = isinstance(self.estimator, ExactDistinct)

    def _flush_window(self, boundary_time: float) -> list[Event]:
        events: list[Event] = []
        estimates = self.estimator.estimate_many(sorted(self._active_hosts))
        for host, count in estimates.items():
            if self._exact:
                self.window_counts.setdefault(host, {})[
                    self._current_window
                ] = int(count)
            if count >= self.threshold:
                events.extend(
                    self._quarantine(
                        boundary_time, host,
                        f"window_rate>={self.threshold:g}", float(count),
                    )
                )
        self._active_hosts.clear()
        self.estimator.reset()
        return events

    def _observe(self, record: FlowRecord) -> list[Event]:
        events: list[Event] = []
        index = int(record.time // self.window)
        if index != self._current_window:
            # The closing window's boundary, not the new record's window
            # (windows may be skipped entirely during quiet spells).
            events.extend(
                self._flush_window((self._current_window + 1) * self.window)
            )
            self._current_window = index
        if self._contacts.outbound(record):
            self._active_hosts.add(record.src)
            self.estimator.add(record.src, record.dst)
        return events

    def finish(self) -> list[Event]:
        return self._flush_window((self._current_window + 1) * self.window)

    def memory_bytes(self) -> int | None:
        return getattr(self.estimator, "memory_bytes", None)


class FailureRatioDetector(Detector):
    """Connection-failure-ratio containment.

    Failure signals (identical to
    :meth:`~repro.traces.records.Trace.failed_contacts`):

    * a TCP SYN from an internal host unanswered within ``timeout`` —
      an answer is any non-SYN TCP segment back from the target, and it
      clears every outstanding SYN for that (host, target) pair;
    * an ICMP unreachable from the target — fails every outstanding
      contact (SYN or echo) toward it.

    Per-host failure and attempt tallies go through pluggable counter
    estimators (:class:`ExactCounter` by default;
    :class:`~repro.streaming.estimators.CountMinSketch` for the
    hyper-compact variant — count-min never underestimates, so
    compaction can only make containment *more* aggressive, never
    blind).  A host is quarantined when its failures reach
    ``min_failures`` and the failure/attempt ratio reaches
    ``ratio_threshold``.
    """

    name = "failure_ratio"

    def __init__(
        self, *, internal: Callable[[int], bool],
        timeout: float = DEFAULT_FAILURE_TIMEOUT,
        min_failures: int = 16, ratio_threshold: float = 0.5,
        failures=None, attempts=None,
    ) -> None:
        super().__init__(internal=internal)
        if timeout <= 0:
            raise TraceError(f"timeout must be positive, got {timeout}")
        if min_failures < 1:
            raise TraceError(
                f"min_failures must be >= 1, got {min_failures}"
            )
        if not 0.0 < ratio_threshold <= 1.0:
            raise TraceError(
                f"ratio_threshold must be in (0, 1], got {ratio_threshold}"
            )
        self.timeout = timeout
        self.min_failures = min_failures
        self.ratio_threshold = ratio_threshold
        self.failures = failures if failures is not None else ExactCounter()
        self.attempts = attempts if attempts is not None else ExactCounter()
        # Sketches that share their cells (the compact mode's pair) are
        # hashed once per failure for both.
        self._shared_cells = isinstance(
            self.failures, CountMinSketch
        ) and self.failures.shares_cells(self.attempts)
        # Pending-contact tracking (mirrors Trace.failed_contacts).
        # Entry: [time, src, dst, is_tcp, alive]
        self._queue: deque[list] = deque()
        self._by_pair: dict[tuple[int, int], deque[list]] = {}
        #: (time, src, dst, reason) of every failure, in detection order —
        #: the parity hook against Trace.failed_contacts.
        self.failure_log: list[tuple[float, int, int, str]] = []

    def _fail(self, detected_at: float, entry: list, reason: str) -> list[Event]:
        entry[4] = False
        host = entry[1]
        self.failure_log.append((detected_at, host, entry[2], reason))
        if self._shared_cells:
            index = self.failures.index(host)
            fail_count = self.failures.add_at(index)
            attempt_count = self.attempts.estimate_at(index)
        else:
            fail_count = self.failures.add(host)
            attempt_count = self.attempts.estimate(host)
        attempt_count = max(attempt_count, fail_count)
        ratio = fail_count / attempt_count
        if fail_count >= self.min_failures and ratio >= self.ratio_threshold:
            return self._quarantine(
                detected_at, host,
                f"failures>={self.min_failures},ratio>="
                f"{self.ratio_threshold:g}",
                float(fail_count),
            )
        return []

    def _expire(self, now: float | None) -> list[Event]:
        events: list[Event] = []
        queue = self._queue
        while queue and (
            now is None or queue[0][0] + self.timeout < now
        ):
            entry = queue.popleft()
            t, src, dst, is_tcp, alive = entry
            if alive and is_tcp:
                events.extend(self._fail(t + self.timeout, entry, "timeout"))
            entry[4] = False
            bucket = self._by_pair.get((src, dst))
            if bucket and bucket[0] is entry:
                bucket.popleft()
                if not bucket:
                    del self._by_pair[(src, dst)]
        return events

    def _observe(self, record: FlowRecord) -> list[Event]:
        queue = self._queue
        if queue and queue[0][0] + self.timeout < record.time:
            events = self._expire(record.time)
        else:
            events = []
        protocol = record.protocol
        if protocol is _TCP and not record.tcp_syn:
            for entry in self._by_pair.pop((record.dst, record.src), ()):
                entry[4] = False
        elif record.icmp_unreachable:
            for entry in self._by_pair.pop((record.dst, record.src), ()):
                if entry[4]:
                    events.extend(
                        self._fail(record.time, entry, "unreachable")
                    )
        elif (
            record.initiates_contact
            and protocol is not _UDP
            and self._internal(record.src)
        ):
            self.attempts.add(record.src)
            entry = [
                record.time, record.src, record.dst, protocol is _TCP, True,
            ]
            self._queue.append(entry)
            self._by_pair.setdefault(
                (record.src, record.dst), deque()
            ).append(entry)
        return events

    def finish(self) -> list[Event]:
        """Flush every pending SYN as a timeout (batch-parity semantics)."""
        return self._expire(None)

    def memory_bytes(self) -> int | None:
        total = 0
        for estimator in (self.failures, self.attempts):
            nbytes = getattr(estimator, "memory_bytes", None)
            if nbytes is None:
                return None
            total += nbytes
        return total


class ThrottleDetector(Detector):
    """Adapter: per-host :mod:`repro.throttle` policies as a detector.

    Each internal host gets its own throttle instance; outbound
    initiated contacts are offered in time order.  A host whose contact
    is delayed by at least ``detect_delay`` seconds is flagged — the
    standard "a growing delay queue *is* the detection" reading of
    Williamson's throttle.  Records step through
    :class:`~repro.throttle.replay.HostThrottles`, the batch replay's
    own per-record step, so the DNS throttle sees the same contact
    classification and translation state as the batch analysis.
    """

    name = "throttle"

    def __init__(
        self, *, internal: Callable[[int], bool],
        factory: Callable[[], Throttle],
        detect_delay: float = 30.0,
        dns_ttl: float = DEFAULT_DNS_TTL,
    ) -> None:
        super().__init__(internal=internal)
        if detect_delay <= 0:
            raise TraceError(
                f"detect_delay must be positive, got {detect_delay}"
            )
        self.factory = factory
        self.detect_delay = detect_delay
        self._throttles: dict[int, Throttle] = {}
        self._hosts = HostThrottles(
            internal, self._throttle_for, dns_ttl=dns_ttl
        )
        probe = factory()
        self.name = f"throttle_{probe.name}"

    def _throttle_for(self, host: int) -> Throttle:
        throttle = self._throttles.get(host)
        if throttle is None:
            throttle = self._throttles[host] = self.factory()
        return throttle

    def _observe(self, record: FlowRecord) -> list[Event]:
        decision = self._hosts.offer(record)
        if decision is None:
            return []
        delay = decision.delay(record.time)
        if delay >= self.detect_delay:
            return self._quarantine(
                record.time, record.src,
                f"delay>={self.detect_delay:g}s", delay,
            )
        return []


def _throttle_kind(policy: Callable[..., Throttle]):
    """A :class:`ThrottleDetector` builder over one throttle policy."""

    def build(
        *, internal: Callable[[int], bool], detect_delay: float = 30.0,
        **kwargs,
    ) -> ThrottleDetector:
        return ThrottleDetector(
            internal=internal, factory=lambda: policy(**kwargs),
            detect_delay=detect_delay,
        )

    return build


#: Detector builders by short name (CLI and ``/v1/stream`` plumbing).
DETECTORS: dict[str, Callable[..., Detector]] = {
    "contact-rate": ContactRateDetector,
    "failure-ratio": FailureRatioDetector,
    "williamson": _throttle_kind(WilliamsonThrottle),
    "dns-throttle": _throttle_kind(DnsThrottle),
}


def make_detector(
    kind: str, *, internal: Callable[[int], bool], **kwargs
) -> Detector:
    """Build a detector by short name: one of :data:`DETECTORS`."""
    build = DETECTORS.get(kind)
    if build is None:
        raise TraceError(f"unknown detector kind: {kind!r}")
    return build(internal=internal, **kwargs)


class DetectionEngine:
    """Fan one time-ordered stream out to several detectors.

    The engine is the shared core under every serving surface: feed it
    records (one at a time or in chunks), read back events; ``finish``
    flushes the detectors once the stream ends.
    """

    def __init__(self, detectors: Iterable[Detector]) -> None:
        self.detectors = list(detectors)
        if not self.detectors:
            raise TraceError("engine needs at least one detector")
        self.flows = 0
        self.events: list[Event] = []
        self._finished = False

    def feed(self, record: FlowRecord) -> list[Event]:
        """Process one record through every detector."""
        if self._finished:
            raise TraceError("engine already finished")
        self.flows += 1
        new: list[Event] = []
        for detector in self.detectors:
            new.extend(detector.observe(record))
        self.events.extend(new)
        return new

    def finish(self) -> list[Event]:
        """Flush every detector; idempotent."""
        if self._finished:
            return []
        self._finished = True
        new: list[Event] = []
        for detector in self.detectors:
            new.extend(detector.finish())
        self.events.extend(new)
        return new

    def quarantined(self) -> dict[str, frozenset[int]]:
        """Quarantined host sets, per detector."""
        return {d.name: d.quarantined for d in self.detectors}

    def estimator_bytes_per_host(self, capacity: int) -> float | None:
        """Total compact-estimator bytes amortized per host of capacity.

        ``None`` when any detector keeps unbounded (exact) state — the
        budget assertion only applies to all-compact engines.
        """
        total = 0
        for detector in self.detectors:
            nbytes = detector.memory_bytes()
            if nbytes is None:
                return None
            total += nbytes
        return total / max(capacity, 1)
