"""Tests for the process-wide observability hub."""

from __future__ import annotations

import json

from repro.observability.hub import ObservabilityHub, observability_hub
from repro.observability.trace import read_trace
from repro.runner import (
    EnsembleSpec,
    Executor,
    InstrumentationOptions,
    RunSpec,
    TopologySpec,
    run_ensemble,
)


def tiny_ensemble(num_runs: int = 2) -> EnsembleSpec:
    return EnsembleSpec(
        template=RunSpec(
            topology=TopologySpec(kind="star", num_nodes=40),
            initial_infections=2,
            max_ticks=12,
        ),
        num_runs=num_runs,
        base_seed=7,
        label="hub-test",
    )


class TestConfiguration:
    def test_inactive_by_default(self):
        hub = ObservabilityHub()
        assert not hub.active
        assert not hub.profiling
        assert hub.options() is None
        assert hub.trace_summary() is None

    def test_configure_nothing_stays_inactive(self):
        hub = ObservabilityHub()
        hub.configure()
        assert not hub.active

    def test_configure_profile(self):
        hub = ObservabilityHub()
        hub.configure(profile=True)
        assert hub.active
        assert hub.profiling
        assert hub.options() == InstrumentationOptions(profile=True)

    def test_configure_trace(self, tmp_path):
        hub = ObservabilityHub()
        hub.configure(trace_path=tmp_path / "t.jsonl")
        options = hub.options()
        assert options.trace and not options.profile
        assert hub.trace_path == tmp_path / "t.jsonl"

    def test_reconfigure_clears_previous_state(self, tmp_path):
        hub = ObservabilityHub()
        hub.configure(profile=True)
        hub.phase_calls["scan"] = 3
        hub.configure(trace_path=tmp_path / "t.jsonl")
        assert hub.phase_calls == {}
        assert not hub.profiling

    def test_singleton(self):
        assert observability_hub() is observability_hub()


class TestRecordEnsemble:
    def test_aggregates_profiles_across_runs(self):
        hub = ObservabilityHub()
        hub.configure(profile=True)
        result = run_ensemble(
            tiny_ensemble(),
            executor=Executor(1),
            use_cache=False,
            options=hub.options(),
        )
        hub.record_ensemble(result)
        assert hub.runs_recorded == 2
        assert hub.phase_calls["scan"] == sum(
            r.metrics.phase_calls["scan"] for r in result.runs
        )
        assert "scan" in hub.profile_table()

    def test_trace_records_tagged_with_label_and_seed(self, tmp_path):
        path = tmp_path / "t.jsonl"
        hub = ObservabilityHub()
        hub.configure(trace_path=path)
        result = run_ensemble(
            tiny_ensemble(),
            executor=Executor(1),
            use_cache=False,
            options=hub.options(),
        )
        hub.record_ensemble(result)
        hub.flush()
        records = read_trace(path)
        assert len(records) == hub.records_written > 0
        assert {r["label"] for r in records} == {"hub-test"}
        assert {r["seed"] for r in records} == {7, 8}
        assert f"{hub.records_written} records" in hub.trace_summary()

    def test_inactive_hub_ignores_ensembles(self):
        hub = ObservabilityHub()
        result = run_ensemble(
            tiny_ensemble(), executor=Executor(1), use_cache=False
        )
        hub.record_ensemble(result)
        assert hub.runs_recorded == 0


class TestFlushAndReset:
    def test_flush_without_records_writes_meta_only_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        hub = ObservabilityHub()
        hub.configure(trace_path=path)
        hub.flush()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 1
        assert lines[0]["type"] == "meta"

    def test_flush_idempotent(self, tmp_path):
        hub = ObservabilityHub()
        hub.configure(trace_path=tmp_path / "t.jsonl")
        hub.flush()
        hub.flush()

    def test_reset_drops_everything(self, tmp_path):
        hub = ObservabilityHub()
        hub.configure(profile=True, trace_path=tmp_path / "t.jsonl")
        hub.phase_calls["scan"] = 1
        hub.records_written = 5
        hub.reset()
        assert not hub.active
        assert hub.phase_calls == {}
        assert hub.records_written == 0
        assert hub.trace_path is None
