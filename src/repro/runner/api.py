"""The runner's front door: :func:`run_one` and :func:`run_ensemble`.

``run_ensemble`` is the single execution path every experiment layer
(scenarios, ``QuarantineStudy``, sweeps, CLI, benchmarks) routes through.
It expands the ensemble into per-seed specs, satisfies what it can from
the result cache, hands the misses to the configured executor, and
persists fresh results — returning an
:class:`~repro.runner.results.EnsembleResult` whose runs are always in
seed order regardless of which executor ran them or which came from
cache.
"""

from __future__ import annotations

import dataclasses
import threading
import warnings

from ..observability.hub import observability_hub
from ..observability.instrumentation import InstrumentationOptions
from .build import execute_run
from .cache import ResultCache
from .config import current_config
from .executors import Executor
from .results import EnsembleResult, RunResult
from .spec import EnsembleSpec, RunSpec

__all__ = [
    "run_one",
    "run_ensemble",
    "expand_runs",
    "executor_from_config",
    "cache_from_config",
]


def run_one(
    spec: RunSpec, options: InstrumentationOptions | None = None
) -> RunResult:
    """Execute a single run in-process (no caching)."""
    return execute_run(spec, options)


def executor_from_config() -> Executor:
    """The executor the process-wide configuration implies."""
    config = current_config()
    return Executor(config.jobs, timeout=config.timeout)


def cache_from_config() -> ResultCache | None:
    """The result cache the process-wide configuration implies."""
    config = current_config()
    if not config.cache_enabled:
        return None
    return ResultCache(config.cache_dir)


def expand_runs(spec: EnsembleSpec) -> tuple[RunSpec, ...]:
    """The per-seed RunSpecs ``run_ensemble`` will execute for ``spec``.

    Applies the process-wide engine override exactly the way
    :func:`run_ensemble` does, so the returned specs carry the cache
    identity of the runs that would actually execute.  Factored out so
    other layers (the service's request coalescing keys on the spec
    digests of these runs) can compute that identity without running
    anything.
    """
    runs = spec.expand()
    engine = current_config().engine
    if engine is not None:
        # The override rewrites the specs themselves (not just the
        # execution) so cache lookups key on the engine that will run.
        runs = tuple(
            dataclasses.replace(run_spec, engine=engine)
            for run_spec in runs
        )
    return runs


def run_ensemble(
    spec: EnsembleSpec,
    *,
    executor: Executor | None = None,
    cache: ResultCache | None = None,
    use_cache: bool | None = None,
    options: InstrumentationOptions | None = None,
    cancel: threading.Event | None = None,
) -> EnsembleResult:
    """Execute an ensemble: expand seeds, consult cache, run, aggregate.

    Parameters
    ----------
    spec:
        The ensemble to run.
    executor:
        Overrides the configured executor for this call.  Without one,
        the call builds an executor from the configuration and closes
        it before returning; a passed executor is left open.
    cache:
        Overrides the configured cache for this call.
    use_cache:
        ``False`` forces every run to execute even when a cache is
        configured; ``True`` with no ``cache`` argument uses the
        configured (or default) cache.
    options:
        Per-run instrumentation (profiling/tracing).  Defaults to
        whatever the process-wide observability hub requests (the CLI's
        ``--trace``/``--profile`` land there).  Active instrumentation
        bypasses the result cache: cached entries carry no phase
        timings or trace records, so replaying them would silently
        produce empty telemetry.
    cancel:
        Cooperative cancellation handle, passed to the executor; once
        set, the call raises
        :class:`~repro.runner.executors.RunCancelledError`.
    """
    hub = observability_hub()
    if options is None:
        options = hub.options()
    if options is not None and options.active:
        cache = None
        use_cache = False
    if use_cache is False:
        cache = None
    elif cache is None:
        cache = (
            ResultCache(current_config().cache_dir)
            if use_cache
            else cache_from_config()
        )

    runs = expand_runs(spec)
    results: dict[int, RunResult] = {}
    pending: list[tuple[int, RunSpec]] = []
    if cache is not None:
        for index, run_spec in enumerate(runs):
            hit = cache.load(run_spec)
            if hit is not None:
                results[index] = hit
            else:
                pending.append((index, run_spec))
    else:
        pending = list(enumerate(runs))

    if pending:
        runner = executor if executor is not None else executor_from_config()
        try:
            fresh = runner.run_specs(
                [run_spec for _, run_spec in pending], options, cancel=cancel
            )
        finally:
            if runner is not executor:
                runner.close()
        for (index, _), result in zip(pending, fresh):
            results[index] = result
            if cache is not None:
                try:
                    cache.store(result)
                except OSError as exc:
                    # An unwritable cache degrades to no caching; the
                    # experiment itself must not fail.
                    warnings.warn(
                        f"result cache unwritable ({exc}); "
                        "continuing without persistence",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    cache = None

    ordered = [results[index] for index in range(len(runs))]
    result = EnsembleResult(spec=spec, runs=ordered)
    if hub.active:
        hub.record_ensemble(result)
    return result
