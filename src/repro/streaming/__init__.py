"""Streaming detection: online worm containment over flow streams.

The batch trace pipeline answers "what happened"; this package answers
it *while it is happening*: time-ordered flow streams (replayed,
synthetic-online, or JSONL wire), hyper-compact per-host estimators
(shared-register vHLL spread estimation, count-min failure counting), and
online detectors (windowed contact rate, connection-failure-ratio
containment, throttle-policy adapters) that emit timestamped verdicts
and quarantine actions without ever materializing a trace.  Serving
surfaces: the ``repro stream`` CLI and the service's ``/v1/stream``
chunked-ingest sessions.
"""

from .detectors import (
    ContactRateDetector,
    DetectionEngine,
    Detector,
    FailureRatioDetector,
    QuarantineAction,
    DETECTORS,
    ThrottleDetector,
    Verdict,
    make_detector,
)
from .estimators import (
    CountMinSketch,
    ExactCounter,
    ExactDistinct,
    VirtualHyperLogLog,
)
from .eval import evaluate_detectors, throughput_run
from .stream import (
    FlowStream,
    JsonlFlowStream,
    SyntheticFlowStream,
    TraceReplayStream,
    private_internal,
    record_from_json,
    record_to_json,
)

__all__ = [
    "ContactRateDetector",
    "DetectionEngine",
    "Detector",
    "FailureRatioDetector",
    "QuarantineAction",
    "DETECTORS",
    "ThrottleDetector",
    "Verdict",
    "make_detector",
    "CountMinSketch",
    "ExactCounter",
    "ExactDistinct",
    "VirtualHyperLogLog",
    "evaluate_detectors",
    "throughput_run",
    "FlowStream",
    "JsonlFlowStream",
    "SyntheticFlowStream",
    "TraceReplayStream",
    "private_internal",
    "record_from_json",
    "record_to_json",
]
