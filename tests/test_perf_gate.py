"""The CI performance gate's decision, on canned ``run.py`` results.

``scripts/perf_gate.py`` runs the benchmark on a base and a head
checkout and exits 1 when the head is worse.  These tests replace its
measuring step with fixed result objects, so no benchmark process
starts; they check only the verdict.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "perf_gate", ROOT / "scripts" / "perf_gate.py"
)
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

#: One plausible run of every workload; each seed's run varies a little.
BASELINE = {
    "setup_s": 1.5,
    "peak_rss_mb": 250.0,
    "op_p50_ms": 900.0,
    "op_p90_ms": 1100.0,
    "runs_per_s": 140.0,
    "chunk_tmean_ms": 30.0,
    "ok_frac": 1.0,
}


def run_result(scale: dict[str, float] | None = None, *, jitter: float = 0.0,
               correct: bool = True, failed: int = 0) -> dict:
    scale = scale or {}
    metrics = {
        name: {"value": value * scale.get(name, 1.0) * (1.0 + jitter),
               "unit": "x"}
        for name, value in BASELINE.items()
    }
    # ok_frac is a ratio of ops, not a timing: it does not jitter.
    metrics["ok_frac"]["value"] = BASELINE["ok_frac"] * scale.get(
        "ok_frac", 1.0
    )
    return {"correct": correct, "attempted": 20, "failed": failed,
            "metrics": metrics, "wall_s": 30.0}


def side(**kwargs) -> dict[str, list[dict]]:
    jitters = (-0.02, -0.01, 0.0, 0.01, 0.02)
    return {
        w: [run_result(jitter=j, **kwargs) for j in jitters]
        for w in WORKLOADS
    }


@pytest.fixture
def gate(monkeypatch, tmp_path):
    """Run ``main`` with canned results for base and head; its exit code."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH))

    def run(base: dict, head: dict) -> int:
        monkeypatch.setattr(
            perf_gate, "measure", lambda *args: (base, head)
        )
        return perf_gate.main([str(tmp_path), str(tmp_path)])

    return run


def with_workload(runs: dict, workload: str, **kwargs) -> dict:
    changed = dict(runs)
    changed[workload] = side(**kwargs)[workload]
    return changed


def test_no_change_exits_zero(gate):
    assert gate(side(), side()) == 0


def test_injected_slowdown_exits_nonzero(gate):
    # A busy loop that doubles the op time and halves the throughput.
    head = with_workload(side(), "replica_sweep", scale={
        "op_p50_ms": 2.0, "op_p90_ms": 2.0, "runs_per_s": 0.5,
    })
    assert gate(side(), head) == 1


def test_lower_is_better_metric_past_its_bound_fails(gate):
    head = with_workload(side(), "figure_fresh", scale={"op_p50_ms": 1.30})
    assert gate(side(), head) == 1


def test_runs_per_s_drop_past_its_bound_fails(gate):
    head = with_workload(side(), "figure_fresh", scale={"runs_per_s": 0.70})
    assert gate(side(), head) == 1


def test_move_inside_the_bound_passes(gate):
    head = with_workload(side(), "service_mix", scale={
        "op_p50_ms": 1.20, "setup_s": 1.20, "runs_per_s": 0.82,
        "peak_rss_mb": 1.08,
    })
    assert gate(side(), head) == 0


def test_improvement_passes(gate):
    head = with_workload(side(), "replica_sweep", scale={
        "op_p50_ms": 0.5, "op_p90_ms": 0.5, "setup_s": 0.5,
        "peak_rss_mb": 0.5, "chunk_tmean_ms": 0.5, "runs_per_s": 2.0,
    })
    assert gate(side(), head) == 0


def test_incorrect_head_run_fails(gate):
    head = side()
    head["service_mix"][2] = run_result(correct=False)
    assert gate(side(), head) == 1


def test_higher_failed_count_fails(gate):
    head = side()
    head["replica_sweep"][0] = run_result(failed=1)
    assert gate(side(), head) == 1


def test_failed_count_equal_to_base_passes(gate):
    base = side(failed=1)
    assert gate(base, side(failed=1)) == 0


def test_ok_frac_drop_past_its_bound_fails(gate):
    head = with_workload(side(), "service_mix", scale={"ok_frac": 0.998})
    assert gate(side(), head) == 1


def test_worse_by_follows_the_better_direction():
    assert perf_gate.worse_by(100.0, 130.0, "lower") == pytest.approx(0.30)
    assert perf_gate.worse_by(100.0, 70.0, "higher") == pytest.approx(0.30)
    assert perf_gate.worse_by(100.0, 70.0, "lower") == pytest.approx(-0.30)
    assert perf_gate.worse_by(100.0, 130.0, "higher") == pytest.approx(-0.30)

