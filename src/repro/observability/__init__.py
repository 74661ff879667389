"""Observability: instrumentation, trace sinks, and profiling.

This package is the measurement infrastructure under the simulator and
the runner — the per-host/per-link counter discipline of the
connection-failure-estimator line of work applied to our tick loop.
Three pieces compose:

* :mod:`repro.observability.instrumentation` — the
  :class:`Instrumentation` object a simulation carries: per-phase wall
  time, named counters, and an optional per-tick trace sink.  The
  default (no instrumentation) costs one ``None`` check per tick.
* :mod:`repro.observability.trace` — structured per-tick trace records
  (schema v1) written to JSONL files or an in-memory ring buffer.
* :mod:`repro.observability.stats` — bucketed histograms of per-link
  queue depths and drops, the shape-preserving summary that survives
  the result cache.
* :mod:`repro.observability.hub` — the process-wide collector the CLI
  configures (``--trace``/``--profile``): aggregates profiles across
  every ensemble executed in the invocation and streams augmented
  trace records to one JSONL file.

Layering: this package imports nothing from :mod:`repro` — simulator
and runner import *it*.
"""

from .hub import ObservabilityHub, observability_hub
from .instrumentation import Instrumentation, InstrumentationOptions
from .stats import (
    HISTOGRAM_BUCKETS,
    bucket_label,
    histogram,
    merge_counts,
)
from .trace import (
    TRACE_SCHEMA_VERSION,
    JsonlTraceSink,
    MemoryTraceSink,
    TraceSink,
    read_trace,
    tick_record,
)

__all__ = [
    "HISTOGRAM_BUCKETS",
    "Instrumentation",
    "InstrumentationOptions",
    "JsonlTraceSink",
    "MemoryTraceSink",
    "ObservabilityHub",
    "TRACE_SCHEMA_VERSION",
    "TraceSink",
    "bucket_label",
    "histogram",
    "merge_counts",
    "observability_hub",
    "read_trace",
    "tick_record",
]
