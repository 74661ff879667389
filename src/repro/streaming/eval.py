"""Evaluation harness: detection latency, false positives, throughput.

:func:`evaluate_detectors` replays a labeled synthetic trace through a
:class:`~repro.streaming.detectors.DetectionEngine` and scores each
detector on the three axes the streaming work is judged by:

* **detection latency** — per worm host, quarantine time minus the
  host's first outbound worm activity; plus the fraction of worms
  caught at all;
* **false positives** — benign (normal/server/P2P) hosts quarantined,
  broken out per class;
* **throughput** — flows per second through the engine (wall clock).

The result dict is JSON-stable (sorted keys, no object references) so
it can feed the golden detection-latency fixture unchanged.
:func:`throughput_run` is the throughput-only variant: it drives the
online :class:`~repro.streaming.stream.SyntheticFlowStream` (no trace
materialization) and reports only flow counts and timing — the
flows/sec floor ``scripts/stream_smoke.py`` asserts.
"""

from __future__ import annotations

import time as _time
from statistics import mean, median
from typing import Callable

from ..traces.records import HostClass, Trace
from ..traces.synth import TraceConfig
from .detectors import DetectionEngine, Detector, QuarantineAction
from .stream import SyntheticFlowStream, TraceReplayStream

__all__ = ["evaluate_detectors", "throughput_run"]

_BENIGN = (HostClass.NORMAL, HostClass.SERVER, HostClass.P2P)
_WORM = (HostClass.WORM_BLASTER, HostClass.WORM_WELCHIA)


def _first_activity(trace: Trace, hosts: set[int]) -> dict[int, float]:
    """First outbound initiation time per host (infection onset)."""
    first: dict[int, float] = {}
    for record in trace.records:
        if (
            record.src in hosts
            and record.src not in first
            and record.initiates_contact
        ):
            first[record.src] = record.time
    return first


def evaluate_detectors(
    trace: Trace,
    detector_factories: dict[str, Callable[[Callable[[int], bool]], Detector]],
) -> dict:
    """Score detectors on a labeled trace; returns a JSON-stable dict.

    ``detector_factories`` maps a report label to a factory taking the
    stream's ``is_internal`` predicate — each detector gets its own
    fresh replay pass so policies never interfere.
    """
    worm_hosts = {
        host for cls in _WORM for host in trace.hosts_of_class(cls)
    }
    onset = _first_activity(trace, worm_hosts)
    benign_by_class = {
        cls.value: set(trace.hosts_of_class(cls)) for cls in _BENIGN
    }
    num_benign = sum(len(hosts) for hosts in benign_by_class.values())

    results: dict[str, dict] = {}
    for label in sorted(detector_factories):
        factory = detector_factories[label]
        stream = TraceReplayStream(trace)
        detector = factory(stream.is_internal)
        engine = DetectionEngine([detector])
        started = _time.perf_counter()
        for record in stream:
            engine.feed(record)
        engine.finish()
        elapsed = _time.perf_counter() - started

        quarantine_times: dict[int, float] = {}
        for event in engine.events:
            if (
                isinstance(event, QuarantineAction)
                and event.host not in quarantine_times
            ):
                quarantine_times[event.host] = event.time

        latencies = sorted(
            quarantine_times[host] - onset[host]
            for host in worm_hosts
            if host in quarantine_times and host in onset
        )
        caught = len(latencies)
        false_positives = {
            cls: sorted(hosts & set(quarantine_times))
            for cls, hosts in benign_by_class.items()
        }
        num_fp = sum(len(v) for v in false_positives.values())
        results[label] = {
            "detector": detector.name,
            "worm_hosts": len(worm_hosts),
            "caught": caught,
            "catch_rate": round(caught / max(len(worm_hosts), 1), 6),
            "detection_latency_s": {
                "mean": round(mean(latencies), 6) if latencies else None,
                "median": round(median(latencies), 6) if latencies else None,
                "max": round(max(latencies), 6) if latencies else None,
                "per_host": [round(v, 6) for v in latencies],
            },
            "false_positives": {
                cls: hosts for cls, hosts in sorted(false_positives.items())
            },
            "false_positive_rate": round(num_fp / max(num_benign, 1), 6),
            "flows": engine.flows,
            "events": len(engine.events),
            "elapsed_s": round(elapsed, 6),
        }
    return {
        "num_worm_hosts": len(worm_hosts),
        "num_benign_hosts": num_benign,
        "detectors": results,
    }


def throughput_run(
    config: TraceConfig,
    engine: DetectionEngine,
    *,
    max_flows: int | None = None,
) -> dict:
    """Drive a synthetic online stream through ``engine``; time it.

    No trace is materialized: this is the memory-bounded load path the
    smoke run measures.
    """
    stream = SyntheticFlowStream(config, max_flows=max_flows)
    started = _time.perf_counter()
    for record in stream:
        engine.feed(record)
    engine.finish()
    elapsed = _time.perf_counter() - started
    flows_per_sec = engine.flows / elapsed if elapsed > 0 else 0.0
    bytes_per_host = engine.estimator_bytes_per_host(config.num_hosts)
    return {
        "flows": engine.flows,
        "events": len(engine.events),
        "quarantined": {
            name: len(hosts) for name, hosts in engine.quarantined().items()
        },
        "elapsed_s": round(elapsed, 6),
        "flows_per_sec": round(flows_per_sec, 3),
        "estimator_bytes_per_host": (
            round(bytes_per_host, 3) if bytes_per_host is not None else None
        ),
    }
