"""Tests for the run executor, in-process and on its process pool.

The headline test is the parity one: ``Executor(jobs=k)`` must produce
bit-identical trajectories to ``Executor(jobs=1)`` for the same
ensemble, because each run rebuilds its scenario entirely from its spec
and seed.  The other tests pin one outcome per failure: pool creation
fails, a worker dies, a run overruns its timeout, a batch is cancelled.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

import repro.runner.executors as executors

from repro.runner import (
    DefenseSpec,
    EnsembleSpec,
    Executor,
    InstrumentationOptions,
    RunSpec,
    TopologySpec,
    WormSpec,
    run_ensemble,
)
from repro.runner.build import execute_run
from repro.runner.executors import (
    ExecutorError,
    RunCancelledError,
    RunTimeoutError,
)


def small_ensemble(num_runs: int = 3) -> EnsembleSpec:
    return EnsembleSpec(
        template=RunSpec(
            topology=TopologySpec(num_nodes=120),
            worm=WormSpec(kind="random"),
            defense=DefenseSpec(kind="backbone", rate=0.05),
            scan_rate=0.8,
            initial_infections=1,
            max_ticks=30,
        ),
        num_runs=num_runs,
        base_seed=42,
        label="parity",
    )


class TestParity:
    def test_parallel_bit_identical_to_serial(self):
        specs = small_ensemble(num_runs=3).expand()
        serial = Executor(1).run_specs(specs)
        with Executor(jobs=2) as executor:
            parallel = executor.run_specs(specs)

        assert len(serial) == len(parallel) == 3
        for s, p in zip(serial, parallel):
            assert s.spec == p.spec
            np.testing.assert_array_equal(
                s.trajectory.infected, p.trajectory.infected
            )
            np.testing.assert_array_equal(
                s.trajectory.times, p.trajectory.times
            )
            np.testing.assert_array_equal(
                s.trajectory.ever_infected, p.trajectory.ever_infected
            )
            assert (
                s.metrics.packets_injected == p.metrics.packets_injected
            )
            assert s.defense_name == p.defense_name
            assert s.limited_links == p.limited_links


class TestInstrumentedParity:
    """Serial and pooled runs must aggregate identically.

    Wall-clock fields (``wall_time``, ``phase_seconds``) are the only
    legitimately nondeterministic metrics; everything else — call
    counts, event counters, histograms, packet totals, traces, and the
    averaged curve — is a pure function of the specs and must match
    bit-for-bit across executors.
    """

    def run_both(self):
        spec = small_ensemble(num_runs=3)
        options = InstrumentationOptions(profile=True, trace=True)
        serial = run_ensemble(
            spec,
            executor=Executor(1),
            use_cache=False,
            options=options,
        )
        with Executor(jobs=2) as executor:
            parallel = run_ensemble(
                spec,
                executor=executor,
                use_cache=False,
                options=options,
            )
        return serial, parallel

    def test_aggregated_metrics_identical(self):
        serial, parallel = self.run_both()
        s, p = serial.metrics, parallel.metrics
        assert s.phase_calls == p.phase_calls
        assert s.counters == p.counters
        assert s.queue_histogram == p.queue_histogram
        assert s.drop_histogram == p.drop_histogram
        assert s.total_ticks == p.total_ticks
        assert s.total_events == p.total_events
        assert s.total_packets_injected == p.total_packets_injected
        assert s.total_packets_delivered == p.total_packets_delivered
        assert s.total_packets_dropped == p.total_packets_dropped
        assert set(s.phase_seconds) == set(p.phase_seconds)

    def test_traces_identical(self):
        serial, parallel = self.run_both()
        for s, p in zip(serial.runs, parallel.runs):
            assert s.trace is not None
            assert s.trace == p.trace

    def test_mean_curves_identical(self):
        serial, parallel = self.run_both()
        np.testing.assert_array_equal(
            serial.mean.infected, parallel.mean.infected
        )
        np.testing.assert_array_equal(
            serial.mean.ever_infected, parallel.mean.ever_infected
        )


class TestSerialExecutor:
    """``Executor(jobs=1)``: every run in-process."""

    def test_results_in_spec_order(self):
        specs = small_ensemble(num_runs=3).expand()
        results = Executor(1).run_specs(specs)
        assert [r.spec.seed for r in results] == [s.seed for s in specs]

    def test_empty_batch(self):
        assert Executor(1).run_specs([]) == []


class TestParallelExecutor:
    """When the pool is built, and what a failed pool turns into."""

    def test_jobs_one_runs_without_pool(self, monkeypatch):
        # jobs=1 must not even construct a pool.
        def explode(*args, **kwargs):  # pragma: no cover
            raise AssertionError("pool should not be created for jobs=1")

        monkeypatch.setattr(executors, "ProcessPoolExecutor", explode)
        results = Executor(jobs=1).run_specs(
            small_ensemble(num_runs=2).expand()
        )
        assert len(results) == 2

    def test_single_spec_runs_without_pool(self, monkeypatch):
        def explode(*args, **kwargs):  # pragma: no cover
            raise AssertionError("pool should not be created for one spec")

        monkeypatch.setattr(executors, "ProcessPoolExecutor", explode)
        with Executor(jobs=4) as executor:
            results = executor.run_specs(small_ensemble(num_runs=1).expand())
        assert len(results) == 1

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        import warnings

        def broken_pool(*args, **kwargs):
            raise OSError("no semaphores in this sandbox")

        monkeypatch.setattr(executors, "ProcessPoolExecutor", broken_pool)
        specs = small_ensemble(num_runs=3).expand()
        with Executor(jobs=2) as executor:
            with pytest.warns(
                RuntimeWarning, match="falling back to serial"
            ):
                results = executor.run_specs(specs)
            # The failure is remembered: later batches run serially
            # without trying (and warning) again.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                again = executor.run_specs(specs[::-1])
            assert executor.jobs == 1
        assert [r.spec.seed for r in results] == [s.seed for s in specs]
        assert [r.spec.seed for r in again] == [s.seed for s in specs[::-1]]

    def test_timeout_raises_run_timeout_error(self, monkeypatch):
        from concurrent.futures import TimeoutError as FutureTimeoutError

        executor = Executor(jobs=2, timeout=0.001)

        class StuckFuture:
            def result(self, timeout=None):
                raise FutureTimeoutError()

            def cancel(self):
                return True

        class StuckPool:
            _processes: dict = {}

            def __init__(self, max_workers=None):
                pass

            def submit(self, fn, *args):
                return StuckFuture()

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(executors, "ProcessPoolExecutor", StuckPool)
        with pytest.raises(RunTimeoutError, match="timeout"):
            executor.run_specs(small_ensemble(num_runs=2).expand())

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            Executor(jobs=0)
        with pytest.raises(ValueError):
            Executor(jobs=2, timeout=-1.0)


class TestPersistentExecutor:
    """The pool outlives a batch: the service worker tier shares one."""

    def test_parity_with_serial(self):
        specs = small_ensemble(num_runs=3).expand()
        serial = Executor(1).run_specs(specs)
        with Executor(2) as executor:
            pooled = executor.run_specs(specs)
        for s, p in zip(serial, pooled):
            assert s.spec == p.spec
            np.testing.assert_array_equal(
                s.trajectory.infected, p.trajectory.infected
            )
            assert s.metrics.packets_injected == p.metrics.packets_injected

    def test_pool_created_once_and_reused(self, monkeypatch):
        # The whole point of the executor: batch N+1 must not pay pool
        # startup again.
        built = []
        real_pool = executors.ProcessPoolExecutor

        class CountingPool(real_pool):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(executors, "ProcessPoolExecutor", CountingPool)
        with Executor(2) as executor:
            specs = small_ensemble(num_runs=2).expand()
            first = executor.run_specs(specs)
            second = executor.run_specs(specs)
        assert len(built) == 1
        for a, b in zip(first, second):
            np.testing.assert_array_equal(
                a.trajectory.infected, b.trajectory.infected
            )

    def test_jobs_one_never_builds_a_pool(self, monkeypatch):
        def explode(*args, **kwargs):  # pragma: no cover
            raise AssertionError("pool should not be created for jobs=1")

        monkeypatch.setattr(executors, "ProcessPoolExecutor", explode)
        with Executor(1) as executor:
            results = executor.run_specs(
                small_ensemble(num_runs=2).expand()
            )
        assert len(results) == 2

    def test_dead_pool_restarts_transparently(self):
        import os

        specs = small_ensemble(num_runs=2).expand()
        with Executor(2) as executor:
            # Kill a worker out from under the pool: the next batch hits
            # BrokenProcessPool, retires the pool, and retries fresh.
            pool = executor._live_pool()
            pool.submit(os._exit, 1)
            import concurrent.futures
            import time

            # The pool notices the abrupt death asynchronously; probe
            # until it reports itself broken.
            deadline = time.monotonic() + 30
            while True:
                try:
                    pool.submit(execute_probe).result(timeout=30)
                except concurrent.futures.BrokenExecutor:
                    break
                assert time.monotonic() < deadline, "pool never broke"
                time.sleep(0.05)
            results = executor.run_specs(specs)
            assert executor.restarts == 1
        assert [r.spec.seed for r in results] == [s.seed for s in specs]

    def test_persistently_broken_pool_falls_back_to_serial(
        self, monkeypatch
    ):
        import concurrent.futures

        class DOAPool:
            def __init__(self, max_workers=None):
                pass

            def submit(self, fn, *args):
                raise concurrent.futures.BrokenExecutor("stillborn")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(executors, "ProcessPoolExecutor", DOAPool)
        specs = small_ensemble(num_runs=2).expand()
        with Executor(2) as executor:
            with pytest.warns(
                RuntimeWarning, match="falling back to serial"
            ):
                results = executor.run_specs(specs)
            assert executor.restarts == 2
        assert [r.spec.seed for r in results] == [s.seed for s in specs]

    def test_closed_executor_refuses_work(self):
        executor = Executor(2)
        executor.close()
        assert executor.closed
        executor.close()  # idempotent
        with pytest.raises(ExecutorError, match="closed"):
            executor.run_specs(small_ensemble(num_runs=2).expand())

    def test_preset_cancel_aborts_serial_batch(self):
        import threading

        cancel = threading.Event()
        cancel.set()
        with Executor(1) as executor:
            with pytest.raises(RunCancelledError, match="cancelled"):
                executor.run_specs(
                    small_ensemble(num_runs=2).expand(), cancel=cancel
                )

    def test_preset_cancel_aborts_pooled_batch(self):
        import threading

        cancel = threading.Event()
        cancel.set()
        with Executor(2) as executor:
            with pytest.raises(RunCancelledError, match="cancelled"):
                executor.run_specs(
                    small_ensemble(num_runs=3).expand(), cancel=cancel
                )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            Executor(0)
        with pytest.raises(ValueError):
            Executor(2, timeout=0)

    def test_run_error_propagates_without_rerun(self, monkeypatch):
        # A run that raises is a bug in the run, not in the pool: the
        # exception surfaces as-is and nothing reruns the batch.
        specs = small_ensemble(num_runs=2).expand()
        monkeypatch.setattr(executors, "execute_run", failing_run)
        with Executor(2) as executor:
            with pytest.raises(ValueError, match="bad run"):
                executor.run_specs(specs)
            assert executor.restarts == 0

    def test_timeout_bounds_wall_time_and_pool_recovers(self, monkeypatch):
        specs = stuck_specs(2)
        monkeypatch.setattr(executors, "execute_run", blocking_run)
        executor = Executor(2, timeout=0.5)
        try:
            start = time.monotonic()
            with pytest.raises(RunTimeoutError, match="exceeded"):
                executor.run_specs(specs)
            assert time.monotonic() - start < 2.0
            # The stuck workers are gone: a fresh batch and the close
            # that follows need not wait for them.
            monkeypatch.undo()
            results = executor.run_specs(specs)
            assert [r.spec.seed for r in results] == [s.seed for s in specs]
        finally:
            executor.close()
        assert time.monotonic() - start < 5.0

    def test_timeout_spares_a_concurrent_batch(self, monkeypatch):
        # Stopping the stuck workers breaks the shared pool under any
        # batch queued behind them; that batch retries on a fresh pool
        # instead of failing.
        import threading

        monkeypatch.setattr(executors, "execute_run", blocking_run)
        specs = small_ensemble(num_runs=2).expand()
        outcome: dict = {}
        with Executor(2, timeout=1.0) as executor:

            def queued_behind():
                time.sleep(0.3)  # both workers are busy with stuck runs
                outcome["results"] = executor.run_specs(specs)

            thread = threading.Thread(target=queued_behind)
            thread.start()
            with pytest.raises(RunTimeoutError):
                executor.run_specs(stuck_specs(2))
            thread.join(timeout=30)
        assert [r.spec.seed for r in outcome["results"]] == [
            s.seed for s in specs
        ]


def execute_probe() -> int:
    """Picklable probe for the crash-restart test."""
    return 1


def failing_run(spec, options=None):
    """Picklable stand-in for ``execute_run`` that always raises."""
    raise ValueError(f"bad run {spec.seed}")


#: Seeds at or above this make :func:`blocking_run` hang.
STUCK_SEED = 10_000


def stuck_specs(num_runs: int) -> list[RunSpec]:
    return [
        dataclasses.replace(spec, seed=STUCK_SEED + spec.seed)
        for spec in small_ensemble(num_runs=num_runs).expand()
    ]


def blocking_run(spec, options=None):
    """Picklable ``execute_run`` that hangs 10 s on a stuck seed."""
    if spec.seed >= STUCK_SEED:
        time.sleep(10.0)
    return execute_run(spec, options)
