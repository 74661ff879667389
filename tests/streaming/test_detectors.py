"""Online detectors: batch-parity contracts, engine plumbing, adapters.

The two parity contracts are the heart of the subsystem's correctness
story and are asserted here exactly:

* :class:`ContactRateDetector` with the exact estimator reproduces
  :func:`repro.traces.windows.per_host_counts` (``Refinement.ALL``)
  window for window;
* :class:`FailureRatioDetector`'s failure log equals
  :meth:`Trace.failed_contacts` restricted to internal initiators,
  including the end-of-stream flush.
"""

from __future__ import annotations

import pytest

from repro.streaming import (
    ContactRateDetector,
    CountMinSketch,
    DetectionEngine,
    FailureRatioDetector,
    QuarantineAction,
    ThrottleDetector,
    TraceReplayStream,
    Verdict,
    VirtualHyperLogLog,
    make_detector,
)
from repro.traces.records import FlowRecord, HostClass, Protocol, TraceError
from repro.traces.windows import Refinement, per_host_counts
from repro.throttle.williamson import WilliamsonThrottle

pytestmark = pytest.mark.streaming

INTERNAL = (10 << 24) | (1 << 16) | 10
EXTERNAL_BASE = (93 << 24)


def syn(t, src, dst):
    return FlowRecord(
        time=t, src=src, dst=dst, protocol=Protocol.TCP,
        src_port=40000, dst_port=135, tcp_syn=True,
    )


def drive(detector, trace):
    """Replay a trace through one detector; returns all events."""
    events = []
    for record in TraceReplayStream(trace):
        events.extend(detector.observe(record))
    events.extend(detector.finish())
    return events


def worm_hosts(trace):
    return set(trace.hosts_of_class(HostClass.WORM_BLASTER)) | set(
        trace.hosts_of_class(HostClass.WORM_WELCHIA)
    )


class TestContactRateParity:
    def test_exact_counts_equal_batch_windows(self, small_trace):
        detector = ContactRateDetector(
            internal=small_trace.is_internal, window=5.0, threshold=10**9,
        )
        drive(detector, small_trace)
        batch = per_host_counts(
            small_trace, sorted(small_trace.internal_hosts),
            window=5.0, refinement=Refinement.ALL,
        )
        assert any(any(wc.counts) for wc in batch.values())
        for host, wc in batch.items():
            stream_counts = detector.window_counts.get(host, {})
            for index, count in enumerate(wc.counts):
                assert stream_counts.get(index, 0) == count, (
                    f"host {host} window {index}: stream "
                    f"{stream_counts.get(index, 0)} != batch {count}"
                )

    def test_compact_estimator_catches_the_same_heavy_hitters(
        self, small_trace
    ):
        exact = ContactRateDetector(
            internal=small_trace.is_internal, window=5.0, threshold=50.0,
        )
        compact = ContactRateDetector(
            internal=small_trace.is_internal, window=5.0, threshold=50.0,
            estimator=VirtualHyperLogLog(len(small_trace.internal_hosts)),
        )
        drive(exact, small_trace)
        drive(compact, small_trace)
        # The fast scanners sit orders of magnitude over threshold, so
        # the ~13% estimator error cannot change the quarantine set.
        assert exact.quarantined == compact.quarantined
        assert exact.quarantined
        assert exact.quarantined <= worm_hosts(small_trace)

    def test_compact_mode_keeps_no_per_host_dicts(self, small_trace):
        compact = ContactRateDetector(
            internal=small_trace.is_internal, window=5.0, threshold=50.0,
            estimator=VirtualHyperLogLog(len(small_trace.internal_hosts)),
        )
        drive(compact, small_trace)
        assert compact.window_counts == {}
        assert compact.memory_bytes() == 8 * len(
            small_trace.internal_hosts
        )


class TestFailureRatioParity:
    def test_failure_log_equals_batch_failed_contacts(self, small_trace):
        detector = FailureRatioDetector(
            internal=small_trace.is_internal, timeout=3.0,
            min_failures=10**9,
        )
        drive(detector, small_trace)
        expected = sorted(
            (f.detected_at, f.src, f.dst, f.reason)
            for f in small_trace.failed_contacts(timeout=3.0)
            if small_trace.is_internal(f.src)
        )
        assert expected  # the fixture's worms do fail contacts
        assert sorted(detector.failure_log) == expected

    def test_quarantines_failing_host_with_compact_counters(self):
        detector = FailureRatioDetector(
            internal=lambda ip: ip == INTERNAL, timeout=1.0,
            min_failures=8, ratio_threshold=0.5,
            failures=CountMinSketch(256), attempts=CountMinSketch(256),
        )
        events = []
        for i in range(20):
            events.extend(
                detector.observe(syn(float(i), INTERNAL, EXTERNAL_BASE + i))
            )
        events.extend(detector.finish())
        assert INTERNAL in detector.quarantined
        actions = [e for e in events if isinstance(e, QuarantineAction)]
        assert len(actions) == 1  # at most one action per host
        # 8th failure detects at SYN time + timeout.
        assert actions[0].time == pytest.approx(8.0)
        assert detector.memory_bytes() == 2 * 256 * 4

    def test_successful_host_is_never_flagged(self):
        detector = FailureRatioDetector(
            internal=lambda ip: ip == INTERNAL, timeout=1.0,
            min_failures=4, ratio_threshold=0.5,
        )
        for i in range(30):
            target = EXTERNAL_BASE + i
            detector.observe(syn(float(i), INTERNAL, target))
            detector.observe(FlowRecord(
                time=float(i) + 0.1, src=target, dst=INTERNAL,
                protocol=Protocol.TCP, src_port=135, dst_port=40000,
            ))
        detector.finish()
        assert not detector.quarantined

    @pytest.mark.parametrize("kwargs", [
        {"timeout": 0.0},
        {"min_failures": 0},
        {"ratio_threshold": 0.0},
        {"ratio_threshold": 1.5},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(TraceError):
            FailureRatioDetector(internal=lambda ip: True, **kwargs)


class TestThrottleDetector:
    def test_williamson_flags_a_fast_scanner(self):
        detector = ThrottleDetector(
            internal=lambda ip: ip == INTERNAL,
            factory=lambda: WilliamsonThrottle(),
            detect_delay=10.0,
        )
        assert detector.name == "throttle_williamson_ip_throttle"
        events = []
        for i in range(40):
            events.extend(detector.observe(
                syn(i * 0.1, INTERNAL, EXTERNAL_BASE + i)
            ))
        assert INTERNAL in detector.quarantined
        assert any(isinstance(e, Verdict) for e in events)
        assert detector._throttles[INTERNAL].stats.delayed > 0
        assert INTERNAL + 1 not in detector._throttles

    def test_slow_contacts_never_flag(self):
        detector = ThrottleDetector(
            internal=lambda ip: ip == INTERNAL,
            factory=lambda: WilliamsonThrottle(),
            detect_delay=10.0,
        )
        for i in range(40):
            detector.observe(syn(i * 3.0, INTERNAL, EXTERNAL_BASE + i % 3))
        assert not detector.quarantined

    def test_catches_fixture_worms(self, small_trace):
        detector = make_detector(
            "williamson", internal=small_trace.is_internal,
            detect_delay=10.0,
        )
        drive(detector, small_trace)
        assert worm_hosts(small_trace) <= set(detector.quarantined)


class TestDetectorContracts:
    def test_out_of_order_records_raise(self):
        detector = ContactRateDetector(internal=lambda ip: True)
        detector.observe(syn(5.0, INTERNAL, EXTERNAL_BASE))
        with pytest.raises(TraceError):
            detector.observe(syn(4.0, INTERNAL, EXTERNAL_BASE))

    def test_make_detector_rejects_unknown_kind(self):
        with pytest.raises(TraceError):
            make_detector("magic", internal=lambda ip: True)

    @pytest.mark.parametrize(
        "kind", ["contact-rate", "failure-ratio", "williamson",
                 "dns-throttle"],
    )
    def test_make_detector_builds_every_kind(self, kind):
        detector = make_detector(kind, internal=lambda ip: True)
        assert detector.observe(syn(0.0, INTERNAL, EXTERNAL_BASE)) == []


class TestDetectionEngine:
    def test_requires_a_detector(self):
        with pytest.raises(TraceError):
            DetectionEngine([])

    def test_fans_out_and_collects(self, small_trace):
        engine = DetectionEngine([
            make_detector(
                "contact-rate", internal=small_trace.is_internal,
                threshold=50.0,
            ),
            make_detector(
                "failure-ratio", internal=small_trace.is_internal,
            ),
        ])
        for record in TraceReplayStream(small_trace):
            engine.feed(record)
        engine.finish()
        assert engine.flows == len(small_trace)
        quarantined = engine.quarantined()
        assert set(quarantined) == {"contact_rate", "failure_ratio"}
        assert quarantined["contact_rate"]

    def test_finish_is_idempotent_and_seals_the_engine(self):
        engine = DetectionEngine(
            [make_detector("failure-ratio", internal=lambda ip: True)]
        )
        engine.feed(syn(0.0, INTERNAL, EXTERNAL_BASE))
        first = engine.finish()
        assert engine.finish() == []
        assert engine.events[-len(first):] == first if first else True
        with pytest.raises(TraceError):
            engine.feed(syn(1.0, INTERNAL, EXTERNAL_BASE))

    def test_bytes_per_host_requires_all_compact(self):
        exact = DetectionEngine(
            [make_detector("failure-ratio", internal=lambda ip: True)]
        )
        assert exact.estimator_bytes_per_host(1024) is None
        compact = DetectionEngine([
            make_detector(
                "contact-rate", internal=lambda ip: True,
                estimator=VirtualHyperLogLog(1024),
            ),
            make_detector(
                "failure-ratio", internal=lambda ip: True,
                failures=CountMinSketch(1024),
                attempts=CountMinSketch(1024),
            ),
        ])
        # 8 (vHLL) + 4 + 4 (two count-min tables) = the 16-byte budget.
        assert compact.estimator_bytes_per_host(1024) == 16.0
