"""The paper's primary contribution as a library: deployment analysis
for worm rate limiting (the QuarantineStudy front door over
:class:`~repro.runner.DefenseSpec` deployments, slowdown metrics, and
canned per-figure scenarios)."""

from .quarantine import QuarantineStudy
from .slowdown import SlowdownReport, compare_times
from .sweeps import (
    SweepPoint,
    SweepResult,
    sweep_backbone_rate,
    sweep_detection_latency,
    sweep_host_coverage,
)

__all__ = [
    "QuarantineStudy",
    "SlowdownReport",
    "compare_times",
    "SweepPoint",
    "SweepResult",
    "sweep_backbone_rate",
    "sweep_detection_latency",
    "sweep_host_coverage",
]
