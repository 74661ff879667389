"""Runner-layer degradation under injected faults.

Each scenario pins an *exact* degradation the runner already promises —
the serial fallback, the pool restart-and-retry, the warn-once cache
write-off, the counted cache miss — and asserts the degraded run's
payload is byte-identical to a clean run's.  Chaos must surface as
warnings and counters, never as different science.
"""

from __future__ import annotations

import warnings

import pytest

from repro.chaos import Fault, FaultPlan, chaos_active
from repro.runner import EnsembleSpec, RunSpec, TopologySpec, run_ensemble
from repro.runner import executors
from repro.runner.cache import ResultCache
from repro.runner.executors import Executor, RunTimeoutError
from repro.service.protocol import result_payload

pytestmark = pytest.mark.chaos


def ensemble(label: str = "runner-chaos", num_runs: int = 2) -> EnsembleSpec:
    return EnsembleSpec(
        template=RunSpec(
            topology=TopologySpec(kind="star", num_nodes=30),
            max_ticks=8,
        ),
        num_runs=num_runs,
        base_seed=11,
        label=label,
    )


def clean_payload(spec: EnsembleSpec) -> bytes:
    return result_payload(
        run_ensemble(spec, executor=Executor(1), use_cache=False)
    )


class TestCacheDegradation:
    def test_unwritable_cache_warns_once_and_degrades(self, tmp_path):
        spec = ensemble("cache-store")
        expected = clean_payload(spec)
        cache = ResultCache(tmp_path)
        plan = FaultPlan.single(
            "runner.cache.store", Fault("io_error"), at=0
        )
        with chaos_active(plan) as controller:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = run_ensemble(
                    spec, executor=Executor(1), cache=cache
                )
        unwritable = [
            w
            for w in caught
            if "result cache unwritable" in str(w.message)
        ]
        # Warn once, then stop persisting — not one warning per run.
        assert len(unwritable) == 1
        assert issubclass(unwritable[0].category, RuntimeWarning)
        assert "chaos[runner.cache.store@0]" in str(unwritable[0].message)
        assert controller.fired_log() == [
            ("runner.cache.store", 0, "io_error")
        ]
        # Nothing persisted, nothing half-written.
        assert list(tmp_path.glob("*.json")) == []
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.stores == 0
        assert result_payload(result) == expected

    def test_unreadable_entry_degrades_to_a_counted_miss(self, tmp_path):
        spec = ensemble("cache-load")
        expected = clean_payload(spec)
        # Prime the cache with a clean pass.
        primer = ResultCache(tmp_path)
        run_ensemble(spec, executor=Executor(1), cache=primer)
        assert primer.stores == 2
        entries = sorted(p.name for p in tmp_path.glob("*.json"))

        cache = ResultCache(tmp_path)
        plan = FaultPlan.single(
            "runner.cache.load", Fault("io_error"), at=0
        )
        with chaos_active(plan) as controller:
            result = run_ensemble(
                spec, executor=Executor(1), cache=cache
            )
        assert controller.fired_log() == [
            ("runner.cache.load", 0, "io_error")
        ]
        # The faulted load is a miss; the other entry still hits; the
        # rerun re-stores the *same* digest — no duplicate entries.
        assert cache.misses == 1
        assert cache.hits == 1
        assert cache.stores == 1
        assert sorted(p.name for p in tmp_path.glob("*.json")) == entries
        assert list(tmp_path.glob("*.tmp")) == []
        assert result_payload(result) == expected


class TestPoolDegradation:
    def test_broken_pool_restarts_and_retries_once(self):
        spec = ensemble("pool-once")
        expected = clean_payload(spec)
        plan = FaultPlan.single(
            "runner.executor.pool", Fault("break_pool"), at=0
        )
        with Executor(jobs=2) as executor:
            with chaos_active(plan) as controller:
                result = run_ensemble(
                    spec, executor=executor, use_cache=False
                )
            assert executor.restarts == 1
        assert controller.fired_log() == [
            ("runner.executor.pool", 0, "break_pool")
        ]
        assert result_payload(result) == expected

    def test_pool_dying_twice_falls_back_to_serial(self):
        spec = ensemble("pool-twice")
        expected = clean_payload(spec)
        plan = FaultPlan(
            events={
                "runner.executor.pool": {
                    0: Fault("break_pool"),
                    1: Fault("break_pool"),
                }
            }
        )
        with Executor(jobs=2) as executor:
            with chaos_active(plan) as controller:
                with pytest.warns(
                    RuntimeWarning, match="worker pool died twice"
                ):
                    result = run_ensemble(
                        spec, executor=executor, use_cache=False
                    )
            assert executor.restarts == 2
        assert controller.fired_log() == [
            ("runner.executor.pool", 0, "break_pool"),
            ("runner.executor.pool", 1, "break_pool"),
        ]
        assert result_payload(result) == expected

    def test_injected_timeout_maps_to_run_timeout_error(self):
        spec = ensemble("await-timeout")
        plan = FaultPlan.single(
            "runner.executor.await", Fault("timeout"), at=0
        )
        with Executor(jobs=2, timeout=5.0) as executor:
            with chaos_active(plan):
                with pytest.raises(RunTimeoutError, match="exceeded"):
                    run_ensemble(spec, executor=executor, use_cache=False)


class TestReplicaBatchDegradation:
    """Fault injection over the cross-replica vectorized path.

    The replica-batched executor shares one chaos point per chunk
    (``runner.executor.run``); these scenarios assert that faults fired
    there degrade exactly like solo runs — same warnings, same
    counters — while the vectorized engine's stats-only writeback still
    yields payloads byte-identical to clean solo execution.
    """

    def replica_ensemble(
        self, label: str, num_runs: int = 6
    ) -> EnsembleSpec:
        # Pinned topology seed + fast-batched engine makes every run
        # groupable, so the whole ensemble takes the vectorized path.
        return EnsembleSpec(
            template=RunSpec(
                topology=TopologySpec(kind="star", num_nodes=30, seed=7),
                max_ticks=8,
                engine="fast-batched",
            ),
            num_runs=num_runs,
            base_seed=11,
            label=label,
        )

    def test_delayed_chunk_keeps_vectorized_payload_identical(
        self, monkeypatch
    ):
        spec = self.replica_ensemble("replica-delay")
        expected = clean_payload(spec)
        plan = FaultPlan.single(
            "runner.executor.run", Fault("delay", delay_s=0.05), at=0
        )
        monkeypatch.setattr(executors, "REPLICA_CHUNK", 3)
        executor = Executor(1)
        slept: list[float] = []
        with chaos_active(plan) as controller:
            controller.sleep = slept.append
            result = run_ensemble(spec, executor=executor, use_cache=False)
            # Six replicas in chunks of three: the point fires per
            # chunk, and only the scheduled chunk sleeps.
            assert controller.invocations("runner.executor.run") == 2
        assert slept == [0.05]
        assert controller.fired_log() == [
            ("runner.executor.run", 0, "delay")
        ]
        assert result_payload(result) == expected

    def test_unwritable_cache_degrades_vectorized_batch(
        self, tmp_path, monkeypatch
    ):
        spec = self.replica_ensemble("replica-cache")
        expected = clean_payload(spec)
        cache = ResultCache(tmp_path)
        plan = FaultPlan.single(
            "runner.cache.store", Fault("io_error"), at=0
        )
        monkeypatch.setattr(executors, "REPLICA_CHUNK", 3)
        executor = Executor(1)
        with chaos_active(plan):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = run_ensemble(spec, executor=executor, cache=cache)
        unwritable = [
            w
            for w in caught
            if "result cache unwritable" in str(w.message)
        ]
        assert len(unwritable) == 1
        assert cache.stores == 0
        assert result_payload(result) == expected


class TestSerialDelay:
    def test_delay_fires_on_the_scheduled_run_only(self):
        spec = ensemble("serial-delay", num_runs=3)
        expected = clean_payload(spec)
        plan = FaultPlan.single(
            "runner.executor.run", Fault("delay", delay_s=0.05), at=1
        )
        slept: list[float] = []
        with chaos_active(plan) as controller:
            controller.sleep = slept.append
            result = run_ensemble(
                spec, executor=Executor(1), use_cache=False
            )
            assert controller.invocations("runner.executor.run") == 3
        assert slept == [0.05]
        assert controller.fired_log() == [
            ("runner.executor.run", 1, "delay")
        ]
        assert result_payload(result) == expected
