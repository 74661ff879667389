#!/usr/bin/env python3
"""Model-vs-simulation deployment study (the paper's core method).

For each deployment strategy this script solves the matching analytical
ODE model *and* runs the packet-level simulation, then prints the two
times-to-50% side by side — the validation loop Sections 4-5 perform for
every figure.

Run:  python examples/deployment_study.py
"""

from __future__ import annotations

import math

from repro import DefenseSpec, QuarantineStudy


def fmt(t: float) -> str:
    return f"{t:8.1f}" if math.isfinite(t) else "   never"


def main() -> None:
    study = QuarantineStudy(
        num_nodes=1000, scan_rate=0.8, initial_infections=5, seed=11
    )

    strategies = [
        DefenseSpec(kind="none"),
        DefenseSpec(kind="hosts", coverage=0.50, rate=0.01),
        DefenseSpec(kind="hosts", coverage=1.00, rate=0.01),
        DefenseSpec(kind="backbone", rate=0.02),
    ]

    print("running simulations (4 strategies x 5 runs) ...\n")
    simulated = study.simulate_deployments(
        strategies, max_ticks=500, num_runs=5
    )

    print(f"{'strategy':<18} {'model t50':>10} {'sim t50':>10}")
    for strategy in strategies:
        model = study.analytical_model(strategy)
        model_t50 = model.solve(3000, num_points=3000).time_to_fraction(0.5)
        sim_t50 = simulated[strategy.label].time_to_fraction(0.5)
        print(f"{strategy.label:<18} {fmt(model_t50)} {fmt(sim_t50)}")

    print(
        "\nNotes: the analytical models are mean-field (no routing\n"
        "latency, no queueing), so absolute times differ; the *ordering*\n"
        "and the gaps between strategies are what the paper predicts.\n"
        "Full host deployment changes the regime entirely (Figure 2's\n"
        "cliff); backbone filters get most of that benefit with a\n"
        "handful of filter locations."
    )


if __name__ == "__main__":
    main()
