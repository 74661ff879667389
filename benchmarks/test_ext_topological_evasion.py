"""Extension E20 — topological worms evade dark-space detection.

Staniford et al. (cited in the paper's related work) warn that worms
harvesting targets from their victims never probe unused address space.
This experiment releases our :class:`TopologicalWorm` against the full
dynamic-quarantine stack: the telescope stays silent, the filters never
deploy, and only *pre-deployed* backbone rate limiting slows the spread —
a limits-of-the-defense result the paper's framework makes easy to state.
"""

from __future__ import annotations

from conftest import print_rows

from repro.simulator.defense import deploy_backbone_rate_limit
from repro.simulator.dynamic import DynamicQuarantine
from repro.simulator.fastpath import FastWormSimulation
from repro.simulator.network import Network
from repro.simulator.observers import average_trajectories
from repro.simulator.telescope import ScanDetector, Telescope
from repro.simulator.worms import RandomScanWorm, TopologicalWorm, WormStrategy


def run_case(worm_factory, *, dynamic: bool, predeploy: bool, num_runs: int = 5):
    runs = []
    detected = 0
    for i in range(num_runs):
        seed = 90 + i
        network = Network.from_powerlaw(1000, seed=seed)
        plan = deploy_backbone_rate_limit(network, 0.02) if predeploy else None
        quarantine = None
        if dynamic:
            quarantine = DynamicQuarantine(
                lambda n: deploy_backbone_rate_limit(n, 0.02),
                telescope=Telescope(coverage=0.1),
                detector=ScanDetector(scans_per_infected=0.8),
            )
        simulation = FastWormSimulation(
            network,
            worm_factory(),
            scan_rate=1.6,
            initial_infections=5,
            lan_delivery=True,
            defense=plan,
            quarantine=quarantine,
            seed=seed,
        )
        runs.append(simulation.run(400))
        if quarantine is not None and quarantine.detector.has_detected:
            detected += 1
    mean = average_trajectories(runs)
    return mean.time_to_fraction(0.5), detected


def random_worm() -> WormStrategy:
    return RandomScanWorm(hit_probability=0.5)


def topological_worm() -> WormStrategy:
    return TopologicalWorm(radius=2, exploration=0.02)


def test_ext_topological_evasion(benchmark):
    results = benchmark.pedantic(
        lambda: {
            "random, dynamic quarantine": run_case(
                random_worm, dynamic=True, predeploy=False
            ),
            "topological, dynamic quarantine": run_case(
                topological_worm, dynamic=True, predeploy=False
            ),
            "topological, pre-deployed filters": run_case(
                topological_worm, dynamic=False, predeploy=True
            ),
            "topological, undefended": run_case(
                topological_worm, dynamic=False, predeploy=False
            ),
        },
        rounds=1,
        iterations=1,
    )
    rows = [
        (label, f"t50={t50:6.1f}  detected in {hits}/5 runs")
        for label, (t50, hits) in results.items()
    ]
    print_rows("Extension: telescope evasion by topological worms", rows)

    random_t50, random_detected = results["random, dynamic quarantine"]
    topo_t50, topo_detected = results["topological, dynamic quarantine"]
    undefended_t50, _ = results["topological, undefended"]
    predeployed_t50, _ = results["topological, pre-deployed filters"]

    # The scanner gets caught every run; the topological worm never does.
    assert random_detected == 5
    assert topo_detected == 0
    # Undetected means unthrottled: same speed as no defense at all.
    assert abs(topo_t50 - undefended_t50) < 0.25 * undefended_t50
    # Static (pre-deployed) filters still work — worm packets must cross
    # the backbone no matter how targets were chosen.
    assert predeployed_t50 > 1.5 * undefended_t50
