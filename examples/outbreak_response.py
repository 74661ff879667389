#!/usr/bin/env python3
"""Outbreak response what-if: how fast must patching start?

Section 6 of the paper shows that the *total damage* (hosts ever
infected) depends sharply on when patching begins, and that backbone rate
limiting buys the responders time.  This script sweeps response
thresholds with and without backbone filters and prints the damage table
(the Figure 8 experiment as a decision aid).

Run:  python examples/outbreak_response.py
"""

from __future__ import annotations

from repro import DefenseSpec, QuarantineStudy
from repro.models.homogeneous import HomogeneousSIModel
from repro.simulator.immunization import ImmunizationPolicy


def main() -> None:
    num_nodes = 1000
    beta, mu = 0.8, 0.1
    study = QuarantineStudy(
        num_nodes, scan_rate=beta, initial_infections=5, seed=3
    )
    baseline_model = HomogeneousSIModel(num_nodes, beta)

    print(
        f"worm beta={beta}, patch rate mu={mu}, {num_nodes}-node "
        "power-law internet, 5-run averages\n"
    )
    print(
        f"{'response at':<14} {'start tick':>10} "
        f"{'damage, no RL':>15} {'damage, backbone RL':>21}"
    )

    for level in (0.1, 0.2, 0.5, 0.8):
        start_tick = round(baseline_model.exact_time_to_fraction(level))
        policy = ImmunizationPolicy.at_tick(start_tick, mu)

        undefended = study.simulate_deployments(
            [DefenseSpec(kind="none")],
            max_ticks=200,
            num_runs=5,
            immunization=policy,
        )["no_rl"]
        defended = study.simulate_deployments(
            [DefenseSpec(kind="backbone", rate=0.02)],
            max_ticks=400,
            num_runs=5,
            immunization=policy,
        )["backbone_rl"]

        print(
            f"{level:>10.0%}    {start_tick:>10d} "
            f"{undefended.final_fraction_ever_infected():>14.1%} "
            f"{defended.final_fraction_ever_infected():>20.1%}"
        )

    print(
        "\nReading the table: every row holds the wall-clock response\n"
        "time fixed; the backbone filters slow the worm so the same\n"
        "response patches more hosts before they are hit — the paper's\n"
        "'rate limiting buys time for system administrators' conclusion."
    )


if __name__ == "__main__":
    main()
