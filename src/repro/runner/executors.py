"""The run executor: one class for in-process, pooled and grouped runs.

Monte-Carlo worm ensembles are embarrassingly parallel across seeds —
every run rebuilds its whole scenario from its
:class:`~repro.runner.spec.RunSpec` — so :class:`Executor` can fan runs
out to a :class:`~concurrent.futures.ProcessPoolExecutor` and get
near-linear speedup without any coordination.  Workers execute the same
:func:`~repro.runner.build.execute_run` on the same specs, so pooled
results are bit-identical to in-process ones; the modes differ only in
wall clock.  Pinned-topology ``fast-batched`` replicas are grouped into
vectorized :func:`~repro.runner.build.execute_replica_batch` calls
first, whatever the worker count.

Every known failure ends in one outcome:

* the pool cannot be created → one ``RuntimeWarning``, then serial;
* a worker dies → the pool restarts and the batch is retried once; a
  second death → serial, with a warning;
* a run raises → the exception propagates;
* a run outlives ``timeout`` → :class:`RunTimeoutError`, and the pool's
  workers are stopped so nothing waits for the stuck run;
* ``cancel`` is set → :class:`RunCancelledError`.
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


#: Replicas per vector group: memory scales with the chunk, not the
#: ensemble.
REPLICA_CHUNK = 128

#: How often a cancellable batch checks its cancel event, in seconds.
_CANCEL_POLL_SECONDS = 0.05


def _replica_group_key(spec: RunSpec) -> str:
    """Canonical scenario identity of a spec, seed excluded."""
    return json.dumps(dict(spec.to_dict(), seed=None), sort_keys=True)


def _cancelled(cancel: threading.Event | None, where: str) -> None:
    if cancel is not None and cancel.is_set():
        raise RunCancelledError(f"batch cancelled {where}")


class Executor:
    """Executes batches of runs in-process or on a reusable process pool.

    The pool is created lazily, reused across batches, restarted when a
    worker dies, and released by :meth:`close` (or leaving a ``with``
    block).  ``jobs=1`` never builds one, and a one-spec batch runs
    in-process while no pool is live.  Thread-safe: concurrent
    ``run_specs`` calls share the pool; creating, retiring and closing
    it happen under a lock.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` means one per CPU.
    timeout:
        Optional per-run wall-clock limit in seconds, enforced on pooled
        runs.
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

    def __enter__(self) -> "Executor":
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
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def run_specs(
        self,
        specs: Sequence[RunSpec],
        options: InstrumentationOptions | None = None,
        *,
        cancel: threading.Event | None = None,
    ) -> list[RunResult]:
        """Execute every spec and return results in spec order.

        ``options`` requests per-run instrumentation; it is plain
        picklable data, so pooled runs see it unchanged.  ``cancel`` is
        a cooperative cancellation handle, checked between runs and
        replica chunks and every ``_CANCEL_POLL_SECONDS`` while awaiting
        the pool (a run already executing finishes and is discarded).
        """
        specs = list(specs)
        results: list[RunResult | None] = [None] * len(specs)
        rest: list[int] = []
        groups: dict[str, list[int]] = {}
        for index, spec in enumerate(specs):
            if spec.engine == "fast-batched" and spec.topology.seed is not None:
                groups.setdefault(_replica_group_key(spec), []).append(index)
            else:
                rest.append(index)
        for indices in groups.values():
            if len(indices) == 1:
                rest.append(indices[0])
                continue
            for at in range(0, len(indices), REPLICA_CHUNK):
                chunk = indices[at : at + REPLICA_CHUNK]
                _cancelled(cancel, "between replica chunks")
                # Chaos: ``delay`` faults model a slow chunk.
                fault_point("runner.executor.run")
                fresh = execute_replica_batch(
                    [specs[i] for i in chunk], options
                )
                for index, result in zip(chunk, fresh):
                    results[index] = result
        if rest:
            rest.sort()
            fresh = self._run_solo([specs[i] for i in rest], options, cancel)
            for index, result in zip(rest, fresh):
                results[index] = result
        return results

    def _run_solo(
        self,
        specs: list[RunSpec],
        options: InstrumentationOptions | None,
        cancel: threading.Event | None,
    ) -> list[RunResult]:
        if self.jobs > 1 and (len(specs) > 1 or self._pool is not None):
            for _attempt in (1, 2):
                pool = self._live_pool()
                if pool is None:  # creation failed; it warned
                    break
                try:
                    return self._run_on_pool(pool, specs, options, cancel)
                except BrokenExecutor:
                    # A worker died (OOM kill, segfault, os._exit):
                    # runs are pure functions of their specs, so a
                    # retry on a fresh pool is safe.
                    self._retire(pool, restart=True)
            else:
                warnings.warn(
                    "worker pool died twice; falling back to serial "
                    "execution",
                    RuntimeWarning,
                    stacklevel=3,
                )
        results: list[RunResult] = []
        for spec in specs:
            _cancelled(cancel, f"before seed {spec.seed} ran")
            # Chaos: ``delay`` faults model a slow run.
            fault_point("runner.executor.run")
            results.append(execute_run(spec, options))
        return results

    def _live_pool(self) -> ProcessPoolExecutor | None:
        """The shared pool, created on first use; ``None`` means serial."""
        with self._lock:
            if self._closed:
                raise ExecutorError("executor is closed")
            if self._pool is None and self.jobs > 1:
                try:
                    self._pool = ProcessPoolExecutor(max_workers=self.jobs)
                except Exception as exc:  # no fork/semaphores here
                    warnings.warn(
                        f"cannot start a worker pool ({exc!r}); "
                        "falling back to serial",
                        RuntimeWarning,
                        stacklevel=4,
                    )
                    self.jobs = 1
            return self._pool

    def _retire(self, pool: ProcessPoolExecutor, *, restart: bool) -> None:
        """Drop ``pool`` so the next batch gets a fresh one.

        A restart follows a worker death, where the pool already reaps
        its workers.  Otherwise a run is stuck, and shutting down would
        wait for it: the workers are stopped first.  Python 3.14 adds
        ``ProcessPoolExecutor.terminate_workers()``; earlier versions
        have no public way, so this sends SIGTERM to each process in the
        pool's private ``_processes`` map.  The pool's manager thread
        then sees them die, reaps them without blocking anyone, and
        fails the futures of batches still sharing the pool with
        ``BrokenProcessPool``, so those retry on a fresh pool.
        """
        with self._lock:
            if self._pool is pool:
                self._pool = None
                if restart:
                    self.restarts += 1
        if not restart:
            for process in list((pool._processes or {}).values()):
                process.terminate()
        pool.shutdown(wait=False)

    def _run_on_pool(
        self,
        pool: ProcessPoolExecutor,
        specs: list[RunSpec],
        options: InstrumentationOptions | None,
        cancel: threading.Event | None,
    ) -> list[RunResult]:
        # Chaos: ``break_pool`` faults model a worker death mid-batch,
        # which ``_run_solo`` absorbs by restarting and retrying.
        fault_point("runner.executor.pool")
        futures = [pool.submit(execute_run, spec, options) for spec in specs]
        try:
            return [
                self._await(spec, future, cancel)
                for spec, future in zip(specs, futures)
            ]
        except BaseException as exc:
            for pending in futures:
                pending.cancel()
            if isinstance(exc, RunTimeoutError):
                self._retire(pool, restart=False)
            raise

    def _await(self, spec: RunSpec, future, cancel: threading.Event | None):
        overrun = RunTimeoutError(
            f"run with seed {spec.seed} exceeded {self.timeout}s timeout"
        )
        try:
            # Chaos: ``timeout`` faults model a run overrunning its
            # limit and map to RunTimeoutError like a real overrun.
            fault_point("runner.executor.await")
        except FutureTimeoutError:
            raise overrun from None
        deadline = (
            time.monotonic() + self.timeout
            if self.timeout is not None
            else None
        )
        while True:
            _cancelled(cancel, f"while awaiting seed {spec.seed}")
            wait = _CANCEL_POLL_SECONDS if cancel is not None else None
            if deadline is not None:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise overrun
                wait = left if wait is None else min(wait, left)
            try:
                return future.result(timeout=wait)
            except FutureTimeoutError:
                pass


#: perfbench's ``runner.group`` layer wraps
#: ``ReplicaBatchExecutor.run_specs``; this alias keeps that name live.
ReplicaBatchExecutor = Executor
