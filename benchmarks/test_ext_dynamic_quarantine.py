"""Extension E19 — the full dynamic-quarantine loop: detect, then deploy.

The paper's title scenario, assembled from its own ingredients plus the
telescope detection its related-work section points to (Zou et al.):
a random worm probes mostly dark address space, a /8-scale telescope
notices the scan spike, and backbone rate limiting deploys after a
configurable reaction delay.  The sweep quantifies the cost of latency —
the quantitative version of Moore et al.'s "containment must be
initiated within minutes", which the paper cites as motivation.
"""

from __future__ import annotations

from conftest import print_rows

from repro.simulator.defense import deploy_backbone_rate_limit
from repro.simulator.dynamic import DynamicQuarantine
from repro.simulator.fastpath import FastWormSimulation
from repro.simulator.network import Network
from repro.simulator.observers import average_trajectories
from repro.simulator.telescope import ScanDetector, Telescope
from repro.simulator.worms import RandomScanWorm


def run_case(reaction_delay: int | None, *, num_runs: int = 5):
    """Mean t50 and detection tick; ``None`` delay = no quarantine."""
    runs = []
    detections = []
    for i in range(num_runs):
        seed = 70 + i
        quarantine = None
        if reaction_delay is not None:
            quarantine = DynamicQuarantine(
                lambda network: deploy_backbone_rate_limit(network, 0.02),
                telescope=Telescope(coverage=0.1),
                detector=ScanDetector(scans_per_infected=0.8),
                reaction_delay=reaction_delay,
            )
        simulation = FastWormSimulation(
            Network.from_powerlaw(1000, seed=seed),
            RandomScanWorm(hit_probability=0.5),
            scan_rate=1.6,
            initial_infections=5,
            lan_delivery=True,
            quarantine=quarantine,
            seed=seed,
        )
        runs.append(simulation.run(400))
        if quarantine is not None and quarantine.detected_at is not None:
            detections.append(quarantine.detected_at)
    mean = average_trajectories(runs)
    detected = sum(detections) / len(detections) if detections else None
    return mean.time_to_fraction(0.5), detected


def test_ext_dynamic_quarantine(benchmark):
    results = benchmark.pedantic(
        lambda: {
            "no quarantine": run_case(None),
            "react instantly": run_case(0),
            "react +3 ticks": run_case(3),
            "react +8 ticks": run_case(8),
        },
        rounds=1,
        iterations=1,
    )
    rows = []
    for label, (t50, detected) in results.items():
        detail = f"t50={t50:6.1f}"
        if detected is not None:
            detail += f"  (mean detection tick {detected:.1f})"
        rows.append((label, detail))
    print_rows("Extension: dynamic quarantine vs reaction delay", rows)

    base_t50, _ = results["no quarantine"]
    instant_t50, detected = results["react instantly"]
    slow_t50, _ = results["react +8 ticks"]

    # Detection happens early (single-digit infected percentage).
    assert detected is not None and detected < base_t50
    # Instant reaction buys a large slowdown ...
    assert instant_t50 > 2.0 * base_t50
    # ... and most of it evaporates if the response dawdles.
    assert slow_t50 < 0.7 * instant_t50
