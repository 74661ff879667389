"""1000-replica die-out probability vs the pinned golden count.

The paper's Figure-4 analysis hinges on the *probability* that a worm
dies out before taking off — a quantity only visible across a large
replica ensemble.  This golden test pins that probability for a
near-critical scenario (tick-0 patching racing a random-scan worm; both
outcomes common) measured over 1000 replicas of the cross-replica
vectorized engine.

Today the run is deterministic — same seeds, same draw order — so the
count reproduces exactly.  The assertion is deliberately looser: the
measured die-out fraction must land within a binomial Welch band
(``3 * stderr`` at n=1000) of the pinned value, so a future,
intentionally draw-order-changing optimization fails this test only if
it shifts the *distribution*, not the stream.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.simulator.fastpath import VectorReplicaSimulation
from repro.simulator.immunization import ImmunizationPolicy
from repro.simulator.network import Network
from repro.simulator.worms import RandomScanWorm

pytestmark = pytest.mark.slow

GOLDEN_PATH = Path(__file__).parent / "golden" / "replica_dieout.json"


def test_dieout_probability_within_binomial_welch_band():
    golden = json.loads(GOLDEN_PATH.read_text())
    scenario = golden["scenario"]
    replicas = golden["replicas"]
    network = Network.from_powerlaw(
        scenario["topology"]["num_nodes"], seed=scenario["topology"]["seed"]
    )
    immunization = ImmunizationPolicy.at_tick(
        scenario["immunization"]["start_tick"],
        scenario["immunization"]["mu"],
    )
    batch = VectorReplicaSimulation(
        network,
        RandomScanWorm(
            hit_probability=scenario["worm"]["hit_probability"]
        ),
        scan_rate=scenario["scan_rate"],
        seeds=[golden["base_seed"] + i for i in range(replicas)],
        initial_infections=scenario["initial_infections"],
        immunization=immunization,
    )
    ever: dict[int, int] = {}

    def harvest(replica, sim):
        ever[replica] = sim.ever_infected

    batch.run(scenario["max_ticks"], harvest)
    assert len(ever) == replicas

    threshold = (
        golden["dieout_threshold_fraction"]
        * scenario["topology"]["num_nodes"]
    )
    dieouts = sum(1 for count in ever.values() if count < threshold)

    p_golden = golden["dieouts"] / replicas
    stderr = math.sqrt(p_golden * (1.0 - p_golden) / replicas)
    band = 3.0 * stderr
    p_measured = dieouts / replicas
    assert abs(p_measured - p_golden) <= band, (
        f"die-out probability {p_measured:.3f} outside "
        f"{p_golden:.3f} +/- {band:.3f}"
    )
