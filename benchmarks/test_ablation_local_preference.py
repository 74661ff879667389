"""Ablation — how local-preference strength erodes edge-router filters.

The paper contrasts only "random" and "local preferential"; this ablation
sweeps the preference probability to show the *transition*: the more a
worm biases toward its own subnet, the less of its traffic an edge filter
ever sees, and the smaller the global slowdown the filter buys.
"""

from __future__ import annotations

from conftest import print_rows

from repro.core.quarantine import QuarantineStudy
from repro.runner.spec import DefenseSpec


def edge_slowdown(preference: float | None, *, num_runs: int = 5) -> float:
    study = QuarantineStudy(
        1000,
        scan_rate=0.8,
        local_preference=preference,
        seed=42,
    )
    base = study.simulate_deployments(
        [DefenseSpec(kind="none")], max_ticks=200, num_runs=num_runs
    )["no_rl"]
    defended = study.simulate_deployments(
        [DefenseSpec(kind="edge", rate=0.02)], max_ticks=200, num_runs=num_runs
    )["edge_rl"]
    return defended.time_to_fraction(0.5) / base.time_to_fraction(0.5)


def test_ablation_local_preference(benchmark):
    sweep = benchmark.pedantic(
        lambda: {
            "random": edge_slowdown(None),
            "preference_0.5": edge_slowdown(0.5),
            "preference_0.9": edge_slowdown(0.9),
        },
        rounds=1,
        iterations=1,
    )
    print_rows(
        "Ablation: edge-RL slowdown vs worm local preference",
        [(label, f"{value:.2f}x") for label, value in sweep.items()],
    )

    # Edge RL helps the random worm measurably ...
    assert sweep["random"] > 1.15
    # ... and its benefit decays as the worm turns local.
    assert sweep["preference_0.9"] < sweep["random"]
    assert sweep["preference_0.9"] < 1.4
