"""Unified experiment runner: declarative specs, pluggable executors,
content-addressed result caching, and per-run metrics.

This package is the execution backbone under every experiment layer:

* :mod:`repro.runner.spec` — frozen, picklable :class:`RunSpec` /
  :class:`EnsembleSpec` descriptions with centralized
  :func:`derive_seed`;
* :mod:`repro.runner.build` — spec → live simulation, and
  :func:`execute_run`, the unit of work;
* :mod:`repro.runner.executors` — :class:`Executor`: in-process or on
  a lazy, reusable process pool (bit-identical results, less wall
  clock), with ``fast-batched`` replicas grouped into vector batches;
* :mod:`repro.runner.cache` — JSON result store keyed by spec digest;
* :mod:`repro.runner.results` — :class:`RunResult` /
  :class:`EnsembleResult` with wall-time / tick / packet metrics;
* :mod:`repro.runner.api` — :func:`run_ensemble`, the one path through
  all of the above;
* :mod:`repro.runner.config` — process-wide jobs/cache knobs
  (``REPRO_JOBS``, ``REPRO_CACHE``, ``REPRO_CACHE_DIR``).
"""

from ..observability.instrumentation import InstrumentationOptions
from .api import (
    cache_from_config,
    executor_from_config,
    expand_runs,
    run_ensemble,
    run_one,
)
from .build import apply_defense, build_network, build_worm, execute_run
from .cache import CACHE_VERSION, ResultCache, default_cache_dir, spec_digest
from .config import RunnerConfig, configure, current_config, use_config
from .executors import (
    Executor,
    ExecutorError,
    RunCancelledError,
    RunTimeoutError,
    default_jobs,
)
from .results import (
    EnsembleMetrics,
    EnsembleResult,
    RunMetrics,
    RunResult,
)
from .spec import (
    ENGINE_KINDS,
    DefenseSpec,
    EnsembleSpec,
    QuarantineSpec,
    RunSpec,
    SpecError,
    TopologySpec,
    WormSpec,
    derive_seed,
)

__all__ = [
    "CACHE_VERSION",
    "DefenseSpec",
    "ENGINE_KINDS",
    "EnsembleMetrics",
    "EnsembleResult",
    "EnsembleSpec",
    "Executor",
    "ExecutorError",
    "InstrumentationOptions",
    "QuarantineSpec",
    "ResultCache",
    "RunCancelledError",
    "RunMetrics",
    "RunResult",
    "RunSpec",
    "RunTimeoutError",
    "RunnerConfig",
    "SpecError",
    "TopologySpec",
    "WormSpec",
    "apply_defense",
    "build_network",
    "build_worm",
    "cache_from_config",
    "configure",
    "current_config",
    "default_cache_dir",
    "default_jobs",
    "derive_seed",
    "execute_run",
    "executor_from_config",
    "expand_runs",
    "run_ensemble",
    "run_one",
    "spec_digest",
    "use_config",
]
