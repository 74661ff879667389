"""Ablation — scan hit probability vs effective growth rate.

The homogeneous model folds address-space density into ``beta``: a worm
scanning 2^32 addresses with N real hosts has a tiny per-scan hit
probability.  Our simulator exposes the two factors separately
(``scan_rate`` x ``hit_probability``); this ablation verifies they
compose the way Eq. (1) assumes.  In discrete time with delivery latency
the fitted rate is ``lambda ~ ln(1 + beta*p) / (1 + latency_correction)``
rather than ``beta*p`` itself, so halving the hit probability divides the
rate by a factor somewhat *below* the mean-field 2 — the assertion bands
account for that.  Runs are batch-sampled (width-1 vector groups), the
engine paper-scale figures use.
"""

from __future__ import annotations

from conftest import print_rows

from repro.models.fitting import fit_logistic
from repro.simulator.fastpath import VectorReplicaSimulation
from repro.simulator.network import Network
from repro.simulator.observers import average_trajectories
from repro.simulator.worms import RandomScanWorm


def fitted_rate(hit_probability: float, *, num_runs: int = 5) -> float:
    runs = []
    for i in range(num_runs):
        seed = 50 + i
        simulation = VectorReplicaSimulation(
            Network.from_powerlaw(1000, seed=seed),
            RandomScanWorm(hit_probability=hit_probability),
            scan_rate=2.0,
            seeds=[seed],
            initial_infections=5,
            lan_delivery=True,
            writeback="stats",
        )
        simulation.run(
            600,
            lambda _replica, state: runs.append(state.recorder.trajectory()),
        )
    return fit_logistic(average_trajectories(runs)).rate


def test_ablation_scan_model(benchmark):
    rates = benchmark.pedantic(
        lambda: {p: fitted_rate(p) for p in (1.0, 0.5, 0.25)},
        rounds=1,
        iterations=1,
    )
    rows = [(f"hit_probability={p}", f"lambda={rate:.3f}")
            for p, rate in rates.items()]
    rows.append(
        ("ratio 1.0/0.5 (mean-field 2)", f"{rates[1.0] / rates[0.5]:.2f}")
    )
    rows.append(
        ("ratio 0.5/0.25 (mean-field 2)", f"{rates[0.5] / rates[0.25]:.2f}")
    )
    print_rows("Ablation: scan hit probability vs growth rate", rows)

    assert rates[1.0] > rates[0.5] > rates[0.25]
    # Below the mean-field 2 (discrete compounding + delivery latency),
    # but the scaling direction and rough magnitude must hold.
    assert 1.3 < rates[1.0] / rates[0.5] < 2.3
    assert 1.3 < rates[0.5] / rates[0.25] < 2.3
