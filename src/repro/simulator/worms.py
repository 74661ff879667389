"""Worm scanning strategies: random propagation and local-preferential.

The paper studies two propagation algorithms (Section 5):

* **random propagation** (Code Red I style) — every scan targets a host
  chosen uniformly at random from the whole susceptible population;
* **local-preferential connection** (Blaster/Welchia style) — a scan
  targets the worm's own subnet with probability ``local_preference`` and
  a random host otherwise.

Scan volume follows the paper's simulation loop: "at each time unit each
infected node will attempt to infect everyone else with infection
probability beta" — i.e. each infected node emits scans at expected rate
``beta`` per tick.  We realize fractional rates with a deterministic
integer part plus one Bernoulli trial for the remainder.
"""

from __future__ import annotations

import abc
import random

from .network import Network

__all__ = [
    "WormStrategy",
    "RandomScanWorm",
    "LocalPreferentialWorm",
    "TopologicalWorm",
    "SequentialScanWorm",
    "scans_this_tick",
]


def scans_this_tick(rng: random.Random, rate: float) -> int:
    """Number of scans a host emits this tick for an expected ``rate``.

    ``rate = 2.3`` yields 2 scans always plus a third with probability 0.3,
    so the expectation is exact and the variance is minimal (keeps 10-run
    averages tight, like the paper's).
    """
    if rate < 0:
        raise ValueError(f"scan rate must be non-negative, got {rate}")
    whole = int(rate)
    fraction = rate - whole
    return whole + (1 if fraction > 0 and rng.random() < fraction else 0)


class WormStrategy(abc.ABC):
    """Target-selection policy of a scanning worm."""

    @abc.abstractmethod
    def pick_target(
        self, rng: random.Random, origin: int, network: Network
    ) -> int | None:
        """Choose a scan destination for an infected host at ``origin``.

        Returns ``None`` when no valid target exists (degenerate
        networks); such scans are simply not emitted.
        """

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short name used in experiment labels."""


class RandomScanWorm(WormStrategy):
    """Uniform random scanning over the infectable population.

    ``hit_probability`` models scans aimed at unused address space: with
    probability ``1 - hit_probability`` the scan targets nothing real and
    is wasted.  The paper's abstract model folds this into ``beta``; the
    ablation benchmarks expose it separately.
    """

    def __init__(self, *, hit_probability: float = 1.0) -> None:
        if not 0.0 < hit_probability <= 1.0:
            raise ValueError(
                f"hit_probability must be in (0, 1], got {hit_probability}"
            )
        self._hit = hit_probability

    @property
    def name(self) -> str:
        return "random"

    @property
    def hit_probability(self) -> float:
        """Probability a scan targets a real (infectable) address."""
        return self._hit

    def pick_target(
        self, rng: random.Random, origin: int, network: Network
    ) -> int | None:
        if self._hit < 1.0 and rng.random() >= self._hit:
            return None
        population = network.infectable
        if len(population) < 2:
            return None
        target = origin
        while target == origin:
            target = population[rng.randrange(len(population))]
        return target


class LocalPreferentialWorm(WormStrategy):
    """Subnet-preferential scanning (Blaster/Welchia-style).

    With probability ``local_preference`` the scan targets a random host in
    the origin's own subnet; otherwise it behaves like a random worm.
    """

    def __init__(self, local_preference: float = 0.8) -> None:
        if not 0.0 <= local_preference <= 1.0:
            raise ValueError(
                f"local_preference must be in [0, 1], got {local_preference}"
            )
        self._preference = local_preference
        self._fallback = RandomScanWorm()

    @property
    def name(self) -> str:
        return "local_preferential"

    @property
    def local_preference(self) -> float:
        """Probability a scan stays inside the origin's subnet."""
        return self._preference

    def pick_target(
        self, rng: random.Random, origin: int, network: Network
    ) -> int | None:
        if rng.random() < self._preference:
            peers = network.subnet_peers(origin)
            if peers:
                return peers[rng.randrange(len(peers))]
            # Lone host in its subnet: fall through to a random scan.
        return self._fallback.pick_target(rng, origin, network)


class TopologicalWorm(WormStrategy):
    """Spreads along application-level relationships (topological worm).

    Staniford et al. (cited by the paper) describe worms that harvest
    targets from their victims — address books, known_hosts files, peer
    lists — instead of scanning.  We model the relationship graph with
    the victim's graph neighborhood within ``radius`` hops: targets are
    hosts the victim "knows".  Such worms emit no dark-space scans at
    all, which is what makes them invisible to telescopes and resistant
    to contact-rate heuristics keyed on *unknown* addresses.

    With probability ``exploration`` the worm falls back to a random
    scan (a harvested URL pointing outside the neighborhood), which keeps
    the epidemic able to escape poorly connected regions.
    """

    def __init__(self, *, radius: int = 2, exploration: float = 0.05) -> None:
        if radius < 1:
            raise ValueError(f"radius must be >= 1, got {radius}")
        if not 0.0 <= exploration <= 1.0:
            raise ValueError(
                f"exploration must be in [0, 1], got {exploration}"
            )
        self._radius = radius
        self._exploration = exploration
        self._fallback = RandomScanWorm()
        self._neighborhoods: dict[int, tuple[int, ...]] = {}

    @property
    def name(self) -> str:
        return "topological"

    def _neighborhood(self, origin: int, network: Network) -> tuple[int, ...]:
        cached = self._neighborhoods.get(origin)
        if cached is not None:
            return cached
        frontier = {origin}
        seen = {origin}
        for _ in range(self._radius):
            frontier = {
                neighbor
                for node in frontier
                for neighbor in network.topology.neighbors(node)
                if neighbor not in seen
            }
            seen |= frontier
        neighborhood = tuple(
            sorted(
                n for n in seen
                if n != origin and n in network.infectable_set
            )
        )
        self._neighborhoods[origin] = neighborhood
        return neighborhood

    def pick_target(
        self, rng: random.Random, origin: int, network: Network
    ) -> int | None:
        if self._exploration > 0 and rng.random() < self._exploration:
            return self._fallback.pick_target(rng, origin, network)
        known = self._neighborhood(origin, network)
        if not known:
            return self._fallback.pick_target(rng, origin, network)
        return known[rng.randrange(len(known))]


class SequentialScanWorm(WormStrategy):
    """Blaster-style sequential address-space sweeping.

    Each infected instance starts from a random point in the (sorted)
    host address space and walks upward, wrapping around.  Sequential
    sweeps find dense address blocks efficiently but revisit nothing, so
    the per-instance wasted-scan fraction mirrors the space's density —
    modeled by ``hit_probability`` exactly as for the random worm.
    """

    def __init__(self, *, hit_probability: float = 1.0) -> None:
        if not 0.0 < hit_probability <= 1.0:
            raise ValueError(
                f"hit_probability must be in (0, 1], got {hit_probability}"
            )
        self._hit = hit_probability
        self._cursors: dict[int, int] = {}

    @property
    def name(self) -> str:
        return "sequential"

    def pick_target(
        self, rng: random.Random, origin: int, network: Network
    ) -> int | None:
        population = network.infectable
        if len(population) < 2:
            return None
        if self._hit < 1.0 and rng.random() >= self._hit:
            return None
        cursor = self._cursors.get(origin)
        if cursor is None:
            cursor = rng.randrange(len(population))
        target = population[cursor % len(population)]
        self._cursors[origin] = cursor + 1
        if target == origin:
            target = population[(cursor + 1) % len(population)]
            self._cursors[origin] = cursor + 2
        return target
