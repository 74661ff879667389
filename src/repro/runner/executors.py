"""Pluggable run executors: serial and process-parallel.

Monte-Carlo worm ensembles are embarrassingly parallel across seeds —
every run rebuilds its whole scenario from its
:class:`~repro.runner.spec.RunSpec` — so the
:class:`ParallelExecutor` fans runs out to a
:class:`~concurrent.futures.ProcessPoolExecutor` and gets near-linear
speedup without any coordination.  Because workers execute the same
:func:`~repro.runner.build.execute_run` on the same specs, parallel
results are bit-identical to serial ones; the executors differ only in
wall clock.

``ParallelExecutor`` degrades gracefully: ``jobs=1`` and pool-creation
failures (sandboxes without working ``fork``/semaphores, pickling
regressions) both fall back to in-process serial execution rather than
failing the experiment.
"""

from __future__ import annotations

import json
import os
import threading
import time
import warnings
from collections.abc import Sequence
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError

from ..chaos.controller import fault_point
from ..observability.instrumentation import InstrumentationOptions
from .build import execute_replica_batch, execute_run
from .results import RunResult
from .spec import RunSpec

__all__ = [
    "ExecutorError",
    "RunTimeoutError",
    "RunCancelledError",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "PersistentExecutor",
    "ReplicaBatchExecutor",
    "default_jobs",
]


class ExecutorError(RuntimeError):
    """Raised when an executor cannot complete its runs."""


class RunTimeoutError(ExecutorError):
    """A run exceeded the executor's per-run timeout."""


class RunCancelledError(ExecutorError):
    """A batch was cancelled before every run finished."""


def default_jobs() -> int:
    """A sensible worker count for this machine."""
    return os.cpu_count() or 1


class Executor:
    """Executes a batch of runs; subclasses define *how*.

    ``options`` requests per-run instrumentation (profiling/tracing); it
    is plain picklable data, so the parallel executor ships it to its
    workers unchanged and instrumented runs behave identically under
    every executor.
    """

    def run_specs(
        self,
        specs: Sequence[RunSpec],
        options: InstrumentationOptions | None = None,
    ) -> list[RunResult]:
        """Execute every spec and return results in spec order."""
        raise NotImplementedError


class SerialExecutor(Executor):
    """Runs everything in-process, one spec at a time."""

    def run_specs(
        self,
        specs: Sequence[RunSpec],
        options: InstrumentationOptions | None = None,
    ) -> list[RunResult]:
        results: list[RunResult] = []
        for spec in specs:
            # Chaos: ``delay`` faults model a slow run.
            fault_point("runner.executor.run")
            results.append(execute_run(spec, options))
        return results


class ParallelExecutor(Executor):
    """Fans runs out across worker processes.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` means one per CPU.  ``jobs=1`` runs
        serially without spawning a pool at all.
    timeout:
        Optional per-run wall-clock limit in seconds; a run exceeding it
        raises :class:`RunTimeoutError` (the pool is torn down, so no
        zombie workers linger).
    """

    def __init__(self, jobs: int | None = None, *, timeout: float | None = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.jobs = jobs if jobs is not None else default_jobs()
        self.timeout = timeout

    def run_specs(
        self,
        specs: Sequence[RunSpec],
        options: InstrumentationOptions | None = None,
    ) -> list[RunResult]:
        if self.jobs == 1 or len(specs) <= 1:
            return SerialExecutor().run_specs(specs, options)
        try:
            return self._run_pooled(specs, options)
        except (ExecutorError, KeyboardInterrupt):
            raise
        except Exception as exc:  # pool broke: degrade, don't fail
            warnings.warn(
                f"parallel execution failed ({exc!r}); "
                "falling back to serial",
                RuntimeWarning,
                stacklevel=2,
            )
            return SerialExecutor().run_specs(specs, options)

    def _run_pooled(
        self,
        specs: Sequence[RunSpec],
        options: InstrumentationOptions | None,
    ) -> list[RunResult]:
        # Chaos: ``break_pool`` faults model a worker death here, which
        # the caller degrades to the serial fallback.
        fault_point("runner.executor.pool")
        workers = min(self.jobs, len(specs))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(execute_run, spec, options) for spec in specs
            ]
            results: list[RunResult] = []
            for spec, future in zip(specs, futures):
                try:
                    results.append(future.result(timeout=self.timeout))
                except FutureTimeoutError:
                    for pending in futures:
                        pending.cancel()
                    raise RunTimeoutError(
                        f"run with seed {spec.seed} exceeded "
                        f"{self.timeout}s timeout"
                    ) from None
        return results


#: How often a cancellable batch checks its cancel event, in seconds.
_CANCEL_POLL_SECONDS = 0.05


class PersistentExecutor(Executor):
    """A reusable process pool that survives across batches.

    :class:`ParallelExecutor` tears its pool down after every
    ``run_specs`` call — the right shape for one-shot CLI invocations,
    but wasteful for anything long-lived: pool startup pays fork/spawn
    latency on every ensemble.  ``PersistentExecutor`` creates its pool
    lazily on first use, reuses it for every subsequent batch, restarts
    it transparently when a worker dies (``BrokenProcessPool``), and
    releases it in :meth:`close` / context-manager exit.  The service
    worker tier holds exactly one of these for the life of the server.

    Thread-safe: concurrent ``run_specs`` calls share the pool
    (``ProcessPoolExecutor.submit`` is thread-safe); pool creation,
    restart, and shutdown are serialized under a lock.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` means one per CPU.  ``jobs=1`` runs
        every batch in-process without a pool.
    timeout:
        Optional per-run wall-clock limit in seconds (pooled mode only).
    """

    def __init__(
        self, jobs: int | None = None, *, timeout: float | None = None
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.jobs = jobs if jobs is not None else default_jobs()
        self.timeout = timeout
        self.restarts = 0
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()
        self._closed = False

    def __enter__(self) -> "PersistentExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Shut the pool down (idempotent); the executor is done after."""
        with self._lock:
            self._closed = True
            if self._pool is not None:
                self._pool.shutdown(wait=True, cancel_futures=True)
                self._pool = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise ExecutorError("executor is closed")
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            return self._pool

    def _retire_pool(self, broken: ProcessPoolExecutor) -> None:
        """Drop a broken pool so the next batch gets a fresh one."""
        with self._lock:
            if self._pool is broken:
                self._pool = None
                self.restarts += 1
        broken.shutdown(wait=False, cancel_futures=True)

    def run_specs(
        self,
        specs: Sequence[RunSpec],
        options: InstrumentationOptions | None = None,
        *,
        cancel: threading.Event | None = None,
    ) -> list[RunResult]:
        """Execute a batch on the shared pool.

        ``cancel`` is an optional cooperative cancellation handle: when
        it becomes set mid-batch, not-yet-started runs are cancelled and
        the call raises :class:`RunCancelledError` within
        ``_CANCEL_POLL_SECONDS`` (runs already executing in a worker
        process finish and are discarded).
        """
        specs = list(specs)
        if not specs:
            return []
        if self.jobs == 1:
            return self._run_serial(specs, options, cancel)
        for attempt in (1, 2):
            pool = self._ensure_pool()
            try:
                return self._run_on_pool(pool, specs, options, cancel)
            except BrokenExecutor:
                # A worker died (OOM kill, segfault, os._exit): restart
                # the pool and retry the whole batch once — reruns are
                # pure functions of their specs, so a retry is safe.
                self._retire_pool(pool)
                if attempt == 2:
                    break
        warnings.warn(
            "worker pool died twice; falling back to serial execution",
            RuntimeWarning,
            stacklevel=2,
        )
        return self._run_serial(specs, options, cancel)

    def _run_serial(
        self,
        specs: Sequence[RunSpec],
        options: InstrumentationOptions | None,
        cancel: threading.Event | None,
    ) -> list[RunResult]:
        results: list[RunResult] = []
        for spec in specs:
            if cancel is not None and cancel.is_set():
                raise RunCancelledError(
                    f"batch cancelled before seed {spec.seed} ran"
                )
            fault_point("runner.executor.run")
            results.append(execute_run(spec, options))
        return results

    def _run_on_pool(
        self,
        pool: ProcessPoolExecutor,
        specs: Sequence[RunSpec],
        options: InstrumentationOptions | None,
        cancel: threading.Event | None,
    ) -> list[RunResult]:
        # Chaos: ``break_pool`` faults model a worker death mid-batch;
        # ``run_specs`` absorbs it by restarting the pool and retrying.
        fault_point("runner.executor.pool")
        futures = [pool.submit(execute_run, spec, options) for spec in specs]
        results: list[RunResult] = []
        try:
            for spec, future in zip(specs, futures):
                results.append(self._await(spec, future, cancel))
        except BaseException:
            for pending in futures:
                pending.cancel()
            raise
        return results

    def _await(self, spec: RunSpec, future, cancel: threading.Event | None):
        if cancel is None:
            try:
                # Chaos: ``timeout`` faults model a run overrunning its
                # limit; the handler below maps them to RunTimeoutError
                # exactly like a real overrun.
                fault_point("runner.executor.await")
                return future.result(timeout=self.timeout)
            except FutureTimeoutError:
                raise RunTimeoutError(
                    f"run with seed {spec.seed} exceeded "
                    f"{self.timeout}s timeout"
                ) from None
        deadline = (
            time.monotonic() + self.timeout
            if self.timeout is not None
            else None
        )
        while True:
            if cancel.is_set():
                raise RunCancelledError(
                    f"batch cancelled while awaiting seed {spec.seed}"
                )
            try:
                return future.result(timeout=_CANCEL_POLL_SECONDS)
            except FutureTimeoutError:
                if deadline is not None and time.monotonic() >= deadline:
                    raise RunTimeoutError(
                        f"run with seed {spec.seed} exceeded "
                        f"{self.timeout}s timeout"
                    ) from None


#: Replicas per vector group: memory scales with the chunk, not the
#: ensemble.
REPLICA_CHUNK = 128


def _replica_group_key(spec: RunSpec) -> str:
    """Canonical scenario identity of a spec, seed excluded."""
    return json.dumps(dict(spec.to_dict(), seed=None), sort_keys=True)


class ReplicaBatchExecutor(Executor):
    """Groups ``engine="fast-batched"`` replicas into vectorized batches.

    A decorator over any other executor: specs that share a scenario
    (identical apart from ``seed``), request the ``fast-batched``
    engine, and pin their topology seed are executed in replica groups
    via :func:`~repro.runner.build.execute_replica_batch`; everything
    else — other engines, unpinned topologies, singleton groups —
    passes through to ``inner`` untouched.  Results
    come back in spec order either way, and each grouped result is
    bit-identical to what the inner executor would have produced for
    that spec alone (modulo ``wall_time``).

    Groups are chunked at :data:`REPLICA_CHUNK` replicas so memory
    scales with the chunk, not the ensemble; chunking does not change
    results.

    ``cancel`` is the service tier's cooperative cancellation event,
    checked between chunks (a chunk in flight finishes first — same
    granularity as a pooled run).
    """

    def __init__(
        self,
        inner: Executor | None = None,
        *,
        cancel: threading.Event | None = None,
    ) -> None:
        self.inner = inner if inner is not None else SerialExecutor()
        self._cancel = cancel

    def run_specs(
        self,
        specs: Sequence[RunSpec],
        options: InstrumentationOptions | None = None,
    ) -> list[RunResult]:
        specs = list(specs)
        results: list[RunResult | None] = [None] * len(specs)
        passthrough: list[int] = []
        groups: dict[str, list[int]] = {}
        for index, spec in enumerate(specs):
            if spec.engine == "fast-batched" and spec.topology.seed is not None:
                groups.setdefault(_replica_group_key(spec), []).append(index)
            else:
                passthrough.append(index)
        for indices in groups.values():
            if len(indices) == 1:
                passthrough.append(indices[0])
                continue
            for at in range(0, len(indices), REPLICA_CHUNK):
                chunk = indices[at : at + REPLICA_CHUNK]
                if self._cancel is not None and self._cancel.is_set():
                    raise RunCancelledError(
                        "batch cancelled between replica chunks"
                    )
                # Chaos: ``delay`` faults model a slow chunk.
                fault_point("runner.executor.run")
                fresh = execute_replica_batch(
                    [specs[i] for i in chunk], options
                )
                for index, result in zip(chunk, fresh):
                    results[index] = result
        if passthrough:
            passthrough.sort()
            fresh = self.inner.run_specs(
                [specs[i] for i in passthrough], options
            )
            for index, result in zip(passthrough, fresh):
                results[index] = result
        return results
