"""Batch sampling (the vector engine) vs the pinned Figure-4 golden curves.

``tests/test_golden.py`` pins the *reference* engine's fig4 output
byte-for-byte.  Batch sampling is statistically equivalent, not
bit-identical, so this test closes the remaining gap: a 10-seed batch
sweep of every fig4 deployment strategy must land within the Welch
tolerance (the same ``3*stderr + 2%-of-population`` bound
``tests/test_engine_equivalence.py`` documents) of the golden final
attack sizes.  A drift in batch sampling now fails against the pinned
fixture, not just against a fresh reference run.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
from pathlib import Path

import pytest

from repro.core.quarantine import QuarantineStudy
from repro.core.scenarios import HOST_RL_RATE, ROUTER_BASE_RATE
from repro.runner.build import execute_replica_batch, execute_run
from repro.runner.spec import DefenseSpec, EnsembleSpec
from repro.simulator import ImmunizationPolicy

pytestmark = pytest.mark.slow

GOLDEN_PATH = Path(__file__).parent / "golden" / "fig4.json"

#: Seeds in the batch sweep (the golden fixture averaged ``num_runs``).
NUM_FAST_RUNS = 10

#: The fig4 deployment grid, keyed by the labels the fixture stores.
STRATEGIES = {
    "no_rl": DefenseSpec(kind="none"),
    "host_rl_5pct": DefenseSpec(kind="hosts", coverage=0.05, rate=HOST_RL_RATE),
    "edge_rl": DefenseSpec(kind="edge", rate=ROUTER_BASE_RATE),
    "backbone_rl": DefenseSpec(kind="backbone", rate=ROUTER_BASE_RATE),
}


def batch_final_ever_infected(run_spec) -> float:
    """One seeded fig4 run, batch sampling forced (a width-1 vector group).

    ``engine="fast"`` auto-selects the mirror engine below the batch
    host threshold, so the 150-node golden scenario must ask for
    ``fast-batched`` to exercise the batch path at all.
    """
    result = execute_run(dataclasses.replace(run_spec, engine="fast-batched"))
    return float(result.trajectory.ever_infected[-1])


@pytest.mark.parametrize("label", sorted(STRATEGIES))
def test_batch_mode_matches_the_golden_attack_size(label):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    params = golden["params"]
    golden_final = golden["curves"][label]["ever_infected"][-1]

    study = QuarantineStudy(params["num_nodes"], scan_rate=0.8, seed=42)
    spec = study.spec_for(
        STRATEGIES[label],
        max_ticks=params["max_ticks"],
        num_runs=NUM_FAST_RUNS,
    )
    finals = [
        batch_final_ever_infected(run_spec) for run_spec in spec.expand()
    ]
    fast_mean = statistics.fmean(finals)
    variance = statistics.variance(finals) if len(finals) > 1 else 0.0

    # Welch-style bound: the golden side is a num_runs-seed mean whose
    # per-run variance the fixture doesn't store, so the fast sweep's
    # variance stands in for both arms; the 2%-of-population floor
    # keeps near-deterministic strategies from demanding exactness.
    stderr = math.sqrt(
        variance / NUM_FAST_RUNS + variance / params["num_runs"]
    )
    tolerance = 3.0 * stderr + 0.02 * params["num_nodes"]
    assert abs(fast_mean - golden_final) <= tolerance, (
        f"{label}: batch mean {fast_mean:.1f} vs golden "
        f"{golden_final:.1f} exceeds tolerance {tolerance:.1f}"
    )


def _dieout_template():
    """The fig4 undefended scenario, tuned for the die-out phenomenon.

    Pure SI dynamics take off with probability 1 (an infected host scans
    forever), so the branching process needs a removal arm: immunization
    from tick 1 at ``mu=0.08`` puts the single-seed outbreak near
    criticality — roughly a quarter of replicas go extinct below the
    20% threshold, the rest take off.  (Tick 1, not 0: a replica whose
    only infection is patched on tick 0 records a single sample, which
    is not a trajectory.)  The topology seed is pinned so every replica
    attacks the *same* network and the replica path is allowed to group.
    """
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    params = golden["params"]
    study = QuarantineStudy(params["num_nodes"], scan_rate=0.8, seed=42)
    spec = study.spec_for(
        DefenseSpec(kind="none"), max_ticks=params["max_ticks"]
    )
    template = dataclasses.replace(
        spec.template,
        topology=dataclasses.replace(spec.template.topology, seed=42),
        initial_infections=1,
        immunization=ImmunizationPolicy.at_tick(1, 0.08),
        engine="fast-batched",
    )
    return template, params["num_nodes"]


def _dieout_stats(results, threshold: float):
    finals = [
        float(result.trajectory.ever_infected[-1]) for result in results
    ]
    die_outs = [final < threshold for final in finals]
    return statistics.fmean(die_outs), finals


def test_replica_path_reproduces_the_dieout_probability():
    """1000 grouped replicas vs an independent solo-batch arm.

    The die-out fraction (final attack below 20% of the population) is
    a per-replica Bernoulli outcome, so the two arms — the replica
    engine's 1000-wide group and 150 per-replica batch runs on fresh
    seeds — must agree within a binomial Welch bound.  This is the
    statistical safety net on top of the bit-identity suite: it runs
    the *whole* runner path at ensemble scale, where a subtle
    cross-replica state leak would first show up as a skewed die-out
    rate.
    """
    template, num_nodes = _dieout_template()
    threshold = 0.2 * num_nodes

    grouped_spec = EnsembleSpec(
        template=template, num_runs=1000, base_seed=42, label="grouped"
    )
    grouped = execute_replica_batch(list(grouped_spec.expand()))
    grouped_p, grouped_finals = _dieout_stats(grouped, threshold)

    solo_spec = EnsembleSpec(
        template=template, num_runs=150, base_seed=5000, label="solo"
    )
    solo = [execute_run(run_spec) for run_spec in solo_spec.expand()]
    solo_p, solo_finals = _dieout_stats(solo, threshold)

    stderr = math.sqrt(
        grouped_p * (1.0 - grouped_p) / len(grouped_finals)
        + solo_p * (1.0 - solo_p) / len(solo_finals)
    )
    tolerance = 3.0 * stderr + 0.02
    assert abs(grouped_p - solo_p) <= tolerance, (
        f"die-out fraction {grouped_p:.3f} (replica path) vs "
        f"{solo_p:.3f} (solo batch) exceeds tolerance {tolerance:.3f}"
    )
    # Both regimes must actually occur, or the comparison is vacuous.
    assert 0.0 < grouped_p < 1.0

    # Conditional on take-off, the attack sizes must agree too (Welch).
    grouped_take = [f for f in grouped_finals if f >= threshold]
    solo_take = [f for f in solo_finals if f >= threshold]
    assert grouped_take and solo_take
    take_stderr = math.sqrt(
        statistics.variance(grouped_take) / len(grouped_take)
        + statistics.variance(solo_take) / len(solo_take)
    )
    take_tolerance = 3.0 * take_stderr + 0.02 * num_nodes
    assert (
        abs(statistics.fmean(grouped_take) - statistics.fmean(solo_take))
        <= take_tolerance
    )
