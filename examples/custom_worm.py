#!/usr/bin/env python3
"""Extending the simulator: a custom hit-list worm vs the defenses.

The library's worm strategies are pluggable.  This example implements a
*hit-list* worm (Staniford et al.'s "Warhol worm" idea, cited by the
paper): it spreads through a precomputed list of known-vulnerable hosts
before falling back to random scanning — and we ask whether the paper's
backbone rate limiting still holds up against it.

Run:  python examples/custom_worm.py
"""

from __future__ import annotations

import random

from repro import DefenseSpec
from repro.models.base import Trajectory
from repro.simulator import (
    FastWormSimulation,
    Network,
    RandomScanWorm,
    WormStrategy,
    average_trajectories,
    deploy_backbone_rate_limit,
)


class HitListWorm(WormStrategy):
    """Scans a shared hit list first, then falls back to random scanning.

    ``hit_list`` is global worm knowledge (distributed with the payload):
    every instance works through the same list, so early spread wastes no
    scans on immune or fictitious addresses.
    """

    def __init__(self, hit_list: list[int]) -> None:
        self._hit_list = list(hit_list)
        self._cursor = 0
        self._fallback = RandomScanWorm()

    @property
    def name(self) -> str:
        return "hit_list"

    def pick_target(
        self, rng: random.Random, origin: int, network: Network
    ) -> int | None:
        while self._cursor < len(self._hit_list):
            target = self._hit_list[self._cursor]
            self._cursor += 1
            if target != origin:
                return target
        return self._fallback.pick_target(rng, origin, network)


def run_case(defended: bool, worm_kind: str, num_runs: int = 5) -> Trajectory:
    runs = []
    for i in range(num_runs):
        seed = 100 + i
        network = Network.from_powerlaw(1000, seed=seed)
        # A deployer returns a plan; the engine applies it to its arrays.
        plan = deploy_backbone_rate_limit(network, 0.02) if defended else None
        if worm_kind == "hit_list":
            rng = random.Random(seed)
            hit_list = rng.sample(
                list(network.infectable), k=len(network.infectable) // 2
            )
            worm: WormStrategy = HitListWorm(hit_list)
        else:
            worm = RandomScanWorm()
        simulation = FastWormSimulation(
            network,
            worm,
            scan_rate=0.8,
            initial_infections=5,
            lan_delivery=True,
            defense=plan,
            seed=seed,
        )
        runs.append(simulation.run(400))
    return average_trajectories(runs)


def main() -> None:
    print("comparing random-scan vs hit-list worms, 5-run averages ...\n")
    print(f"{'case':<34} {'t50':>8}")
    for worm_kind in ("random", "hit_list"):
        for defended in (False, True):
            curve = run_case(defended, worm_kind)
            label = (
                f"{worm_kind} worm, "
                f"{'backbone RL' if defended else 'no defense'}"
            )
            print(f"{label:<34} {curve.time_to_fraction(0.5):>8.1f}")

    print(
        "\nThe hit list accelerates the undefended worm (no wasted\n"
        "scans), but its packets still cross the backbone — the filters'\n"
        "advantage is positional, not informational, so the slowdown\n"
        "factor survives even a smarter worm.  DefenseSpec: "
        f"{DefenseSpec(kind='backbone', rate=0.02).label}"
    )


if __name__ == "__main__":
    main()
