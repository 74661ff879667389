"""Ablation — Figure 4's heavy backbone filter combined with patching.

Figure 8(b) uses a light-touch filter to isolate the incremental benefit
of rate limiting (~10-point drop in ever-infected).  This ablation runs
the *strong* filter from Figure 4 (base rate 0.02, ~5x slowdown) with the
same delayed patching: the worm's effective growth rate falls below the
patch rate and the outbreak goes extinct — the strongest version of the
paper's "rate limiting buys time" conclusion.
"""

from __future__ import annotations

from conftest import print_rows

from repro.core.quarantine import QuarantineStudy
from repro.core.scenarios import (
    IMMUNIZATION_MU,
    IMMUNIZATION_SCAN_RATE,
    ROUTER_BASE_RATE,
)
from repro.runner import DefenseSpec, run_ensemble
from repro.simulator.immunization import ImmunizationPolicy


def run_cases(num_runs: int = 5) -> dict[str, float]:
    study = QuarantineStudy(
        1000, scan_rate=IMMUNIZATION_SCAN_RATE, seed=42
    )
    unlimited = study.simulate_deployments(
        [DefenseSpec(kind="none")], max_ticks=60, num_runs=num_runs
    )["no_rl"]
    start = round(unlimited.time_to_fraction(0.2))
    policy = ImmunizationPolicy.at_tick(start, IMMUNIZATION_MU)

    finals: dict[str, float] = {
        "patching_only": run_ensemble(
            study.spec_for(
                DefenseSpec(kind="none"),
                max_ticks=200,
                num_runs=num_runs,
                immunization=policy,
            )
        ).final_ever_infected()
    }
    finals["patching_plus_strong_backbone"] = run_ensemble(
        study.spec_for(
            DefenseSpec(kind="backbone", rate=ROUTER_BASE_RATE),
            max_ticks=400,
            num_runs=num_runs,
            immunization=policy,
        )
    ).final_ever_infected()
    return finals


def test_ablation_strong_filter_immunization(benchmark):
    finals = benchmark.pedantic(run_cases, rounds=1, iterations=1)
    print_rows(
        "Ablation: strong backbone filter + patching (ever-infected)",
        [(label, f"{value:.1%}") for label, value in finals.items()],
    )

    # Patching alone leaves most hosts hit (the Figure 8(a) regime) ...
    assert finals["patching_only"] > 0.6
    # ... but the strong filter drops the worm's growth rate below mu:
    # extinction instead of a 10-point dent.
    assert finals["patching_plus_strong_backbone"] < 0.15
