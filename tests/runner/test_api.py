"""Tests for ``run_ensemble``: caching, ordering, and configuration."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.runner import (
    DefenseSpec,
    EnsembleSpec,
    ResultCache,
    RunnerConfig,
    Executor,
    RunSpec,
    TopologySpec,
    run_ensemble,
    use_config,
)
from repro.simulator.observers import average_trajectories


def tiny_ensemble(num_runs: int = 3) -> EnsembleSpec:
    return EnsembleSpec(
        template=RunSpec(
            topology=TopologySpec(kind="star", num_nodes=30),
            max_ticks=15,
        ),
        num_runs=num_runs,
        base_seed=7,
        label="tiny",
    )


class TestRunEnsemble:
    def test_runs_come_back_in_seed_order(self):
        result = run_ensemble(tiny_ensemble())
        assert [r.spec.seed for r in result.runs] == [7, 8, 9]

    def test_mean_is_average_of_run_trajectories(self):
        result = run_ensemble(tiny_ensemble())
        expected = average_trajectories(result.trajectories)
        np.testing.assert_array_equal(
            result.mean.infected, expected.infected
        )

    def test_metrics_aggregate(self):
        result = run_ensemble(tiny_ensemble())
        assert result.metrics.runs == 3
        assert result.metrics.cache_hits == 0
        assert result.metrics.total_wall_time > 0.0
        assert result.metrics.total_packets_injected == sum(
            r.metrics.packets_injected for r in result.runs
        )

    def test_second_invocation_hits_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_ensemble()

        first = run_ensemble(spec, cache=cache)
        assert first.metrics.cache_hits == 0
        assert cache.stores == 3

        second = run_ensemble(spec, cache=ResultCache(tmp_path))
        assert second.metrics.cache_hits == 3
        assert all(run.cached for run in second.runs)
        np.testing.assert_array_equal(
            second.mean.infected, first.mean.infected
        )

    def test_partial_cache_fills_the_gaps(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_ensemble(tiny_ensemble(num_runs=2), cache=cache)

        # Growing the ensemble reuses the two cached runs, executes one.
        grown = run_ensemble(
            tiny_ensemble(num_runs=3), cache=ResultCache(tmp_path)
        )
        assert grown.metrics.cache_hits == 2
        assert [r.cached for r in grown.runs] == [True, True, False]
        assert [r.spec.seed for r in grown.runs] == [7, 8, 9]

    def test_use_cache_false_bypasses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_ensemble(tiny_ensemble(), cache=cache)
        result = run_ensemble(
            tiny_ensemble(), cache=cache, use_cache=False
        )
        assert result.metrics.cache_hits == 0

    def test_cached_and_fresh_results_identical(self, tmp_path):
        spec = tiny_ensemble()
        fresh = run_ensemble(spec, use_cache=False)
        run_ensemble(spec, cache=ResultCache(tmp_path))
        replayed = run_ensemble(spec, cache=ResultCache(tmp_path))
        np.testing.assert_array_equal(
            replayed.mean.infected, fresh.mean.infected
        )
        np.testing.assert_array_equal(
            replayed.mean.ever_infected, fresh.mean.ever_infected
        )

    def test_unwritable_cache_degrades_with_warning(self, monkeypatch, tmp_path):
        cache = ResultCache(tmp_path)

        def refuse(result):
            raise OSError("read-only filesystem")

        monkeypatch.setattr(cache, "store", refuse)
        with pytest.warns(RuntimeWarning, match="cache unwritable"):
            result = run_ensemble(tiny_ensemble(), cache=cache)
        assert result.metrics.runs == 3  # the experiment still completed

    def test_unwritable_cache_warns_once_and_stops_storing(
        self, monkeypatch, tmp_path
    ):
        # After the first OSError the cache is dropped for the rest of
        # the ensemble: one store attempt, one warning, no retries.
        cache = ResultCache(tmp_path)
        attempts = []

        def refuse(result):
            attempts.append(result.spec.seed)
            raise OSError("read-only filesystem")

        monkeypatch.setattr(cache, "store", refuse)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_ensemble(tiny_ensemble(), cache=cache)
        degradations = [
            w for w in caught if "cache unwritable" in str(w.message)
        ]
        assert len(attempts) == 1
        assert len(degradations) == 1
        assert list(tmp_path.glob("*.json")) == []

    def test_degraded_run_matches_uncached_run(self, monkeypatch, tmp_path):
        cache = ResultCache(tmp_path)
        monkeypatch.setattr(
            cache,
            "store",
            lambda result: (_ for _ in ()).throw(OSError("disk full")),
        )
        with pytest.warns(RuntimeWarning, match="cache unwritable"):
            degraded = run_ensemble(tiny_ensemble(), cache=cache)
        pristine = run_ensemble(tiny_ensemble(), use_cache=False)
        np.testing.assert_array_equal(
            degraded.mean.infected, pristine.mean.infected
        )
        assert degraded.metrics.total_packets_injected == (
            pristine.metrics.total_packets_injected
        )

    def test_partial_store_failure_keeps_earlier_entries(
        self, monkeypatch, tmp_path
    ):
        # The first run persists; the second store fails; the ensemble
        # still completes and the surviving entry replays as a hit.
        cache = ResultCache(tmp_path)
        real_store = cache.store
        calls = []

        def flaky(result):
            calls.append(result.spec.seed)
            if len(calls) == 2:
                raise OSError("quota exceeded")
            return real_store(result)

        monkeypatch.setattr(cache, "store", flaky)
        with pytest.warns(RuntimeWarning, match="cache unwritable"):
            run_ensemble(tiny_ensemble(), cache=cache)
        assert len(calls) == 2  # third run never attempts a store
        assert len(list(tmp_path.glob("*.json"))) == 1
        replay = run_ensemble(tiny_ensemble(), cache=ResultCache(tmp_path))
        assert replay.metrics.cache_hits == 1


def powerlaw_ensemble(**template) -> EnsembleSpec:
    return EnsembleSpec(
        template=RunSpec(
            topology=TopologySpec(kind="powerlaw", num_nodes=100),
            initial_infections=3,
            max_ticks=80,
            **template,
        ),
        num_runs=3,
        base_seed=10,
    )


class TestEnsembleResult:
    def test_defense_applied_each_run(self):
        result = run_ensemble(powerlaw_ensemble(
            defense=DefenseSpec(kind="backbone", rate=0.05)
        ), use_cache=False)
        assert len(result.runs) == 3
        for run in result.runs:
            assert run.defense_name == "backbone_rl"
            assert run.limited_links > 0

    def test_seeds_vary_across_runs(self):
        first, second, _ = run_ensemble(
            powerlaw_ensemble(), use_cache=False
        ).trajectories
        n = min(first.infected.size, second.infected.size)
        assert not np.array_equal(first.infected[:n], second.infected[:n])

    def test_helpers(self):
        result = run_ensemble(powerlaw_ensemble(), use_cache=False)
        assert result.time_to_fraction(0.5) > 0
        assert 0 < result.final_ever_infected() <= 1.0


class TestConfiguration:
    def test_config_cache_enabled_round_trips(self, tmp_path):
        config = RunnerConfig(
            jobs=1, cache_enabled=True, cache_dir=tmp_path
        )
        with use_config(config):
            first = run_ensemble(tiny_ensemble())
            second = run_ensemble(tiny_ensemble())
        assert first.metrics.cache_hits == 0
        assert second.metrics.cache_hits == 3

    def test_explicit_executor_wins_over_config(self):
        calls = []

        class SpyExecutor(Executor):
            def run_specs(self, specs, options=None, *, cancel=None):
                calls.append(len(specs))
                return super().run_specs(specs, options, cancel=cancel)

        with use_config(RunnerConfig(jobs=4)):
            run_ensemble(tiny_ensemble(), executor=SpyExecutor(1))
        assert calls == [3]

    def test_config_disabled_cache_means_no_persistence(self, tmp_path):
        with use_config(RunnerConfig(cache_enabled=False, cache_dir=tmp_path)):
            run_ensemble(tiny_ensemble())
        assert list(tmp_path.glob("*.json")) == []

    def test_config_engine_override_rewrites_specs(self):
        with use_config(RunnerConfig(engine="fast")):
            fast = run_ensemble(tiny_ensemble())
        assert all(run.spec.engine == "fast" for run in fast.runs)
        # On this 30-leaf star the fast engine mirrors the reference
        # RNG, so the override changes the engine but not the curves.
        reference = run_ensemble(tiny_ensemble())
        assert all(run.spec.engine == "reference" for run in reference.runs)
        np.testing.assert_array_equal(
            fast.mean.infected, reference.mean.infected
        )

    def test_engine_override_keys_the_cache_on_the_engine_that_ran(
        self, tmp_path
    ):
        config = RunnerConfig(
            cache_enabled=True, cache_dir=tmp_path, engine="fast"
        )
        with use_config(config):
            first = run_ensemble(tiny_ensemble())
            second = run_ensemble(tiny_ensemble())
        assert first.metrics.cache_hits == 0
        assert second.metrics.cache_hits == 3
        # The same scenario on the reference engine must miss: the
        # stored entries are addressed by the fast-engine digest.
        with use_config(
            RunnerConfig(cache_enabled=True, cache_dir=tmp_path)
        ):
            reference = run_ensemble(tiny_ensemble())
        assert reference.metrics.cache_hits == 0
