"""The service's worker tier: one shared executor, many ensembles.

The tier owns a single :class:`~repro.runner.executors.Executor`,
created at startup and closed on drain, so its process pool is built
once and reused by every job instead of per request.  Each job passes
its own cancellation event with the call.  Worker crashes are absorbed
by the executor's restart path and surface in ``/metrics`` as
``workers.restarts``.

Jobs still execute through :func:`repro.runner.run_ensemble`, so the
engine/seed semantics, the engine override, replica grouping and the
shared result cache behave exactly as they do in-process — the service
adds scheduling, not a second execution path.
"""

from __future__ import annotations

import threading

from ..chaos.controller import fault_point
from ..runner.api import run_ensemble
from ..runner.cache import ResultCache
from ..runner.executors import Executor
from ..runner.spec import EnsembleSpec
from .protocol import result_payload

__all__ = ["WorkerTier"]


class WorkerTier:
    """Executes admitted jobs on the shared executor and encodes them."""

    def __init__(
        self,
        *,
        jobs: int = 1,
        timeout: float | None = None,
        cache: ResultCache | None = None,
    ) -> None:
        self.executor = Executor(jobs, timeout=timeout)
        self.cache = cache

    @property
    def mode(self) -> str:
        """``"pool"`` with worker processes, ``"serial"`` in-process."""
        return "pool" if self.executor.jobs > 1 else "serial"

    @property
    def restarts(self) -> int:
        """How many times a dead worker pool was replaced."""
        return self.executor.restarts

    def run(self, spec: EnsembleSpec, cancel: threading.Event) -> bytes:
        """The scheduler's runner callable: one ensemble → payload bytes.

        Runs on a worker thread (``asyncio.to_thread``); the blocking
        parts — cache probes and pool waits — happen here, never on the
        event loop.
        """
        # Chaos: ``delay`` faults stall the job past its deadline (a
        # 504); ``error`` faults fail it outright (a 500).
        fault_point("service.worker.run")
        result = run_ensemble(
            spec,
            executor=self.executor,
            cache=self.cache,
            use_cache=self.cache is not None,
            cancel=cancel,
        )
        return result_payload(result)

    def close(self) -> None:
        """Release the pool (idempotent); called on graceful drain."""
        self.executor.close()
