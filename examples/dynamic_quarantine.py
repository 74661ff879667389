#!/usr/bin/env python3
"""The paper's title, end to end: DYNAMIC quarantine of an internet worm.

A random-scanning worm probes mostly unused address space; a network
telescope watching a slice of that dark space notices the scan spike; an
anomaly detector declares an outbreak; and — after a configurable human/
operational reaction delay — backbone rate-limiting filters deploy
mid-outbreak.  The response is a deployer: when the loop triggers, the
engine asks it for a plan and applies the plan to its own arrays, so the
network stays as built.  The sweep below shows what every tick of
hesitation costs.

Run:  python examples/dynamic_quarantine.py
"""

from __future__ import annotations

from repro.simulator import (
    DynamicQuarantine,
    FastWormSimulation,
    Network,
    RandomScanWorm,
    ScanDetector,
    Telescope,
    average_trajectories,
    deploy_backbone_rate_limit,
)


def run(reaction_delay: int | None, num_runs: int = 5):
    runs, quarantines = [], []
    for i in range(num_runs):
        seed = 500 + i
        quarantine = None
        if reaction_delay is not None:
            quarantine = DynamicQuarantine(
                lambda net: deploy_backbone_rate_limit(net, 0.02),
                telescope=Telescope(coverage=0.1),
                detector=ScanDetector(scans_per_infected=0.8),
                reaction_delay=reaction_delay,
            )
        sim = FastWormSimulation(
            Network.from_powerlaw(1000, seed=seed),
            RandomScanWorm(hit_probability=0.5),
            scan_rate=1.6,
            initial_infections=5,
            lan_delivery=True,
            quarantine=quarantine,
            seed=seed,
        )
        runs.append(sim.run(400))
        quarantines.append(quarantine)
    return average_trajectories(runs), quarantines


def main() -> None:
    print("worm: random scanning, 50% of probes hit dark space")
    print("telescope: 10% of dark-space probes observed\n")

    baseline, _ = run(None)
    base_t50 = baseline.time_to_fraction(0.5)
    print(f"{'response policy':<24} {'t50':>7} {'slowdown':>9}  detection")
    print(f"{'no quarantine':<24} {base_t50:7.1f} {'1.0x':>9}")

    for delay in (0, 2, 5, 10):
        curve, quarantines = run(delay)
        t50 = curve.time_to_fraction(0.5)
        detections = [
            q.detected_at for q in quarantines if q and q.detected_at is not None
        ]
        mean_detect = sum(detections) / len(detections)
        print(
            f"{'react after +' + str(delay) + ' ticks':<24} {t50:7.1f} "
            f"{t50 / base_t50:8.1f}x  tick {mean_detect:.0f} "
            f"(est. {quarantines[0].detector.report.estimated_infected:.0f} "
            "infected)"
        )

    print(
        "\nThe telescope spots the worm while <5% of hosts are infected.\n"
        "Reacting immediately buys the full backbone-RL slowdown; every\n"
        "tick of delay hands the worm another doubling — the quantified\n"
        "version of 'containment must be initiated within minutes'."
    )


if __name__ == "__main__":
    main()
