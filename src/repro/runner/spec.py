"""Declarative run specifications: an experiment as plain data.

A :class:`RunSpec` captures *everything* a single seeded simulation run
depends on — topology, worm strategy, defense deployment, scan rate,
immunization/quarantine configuration, seed, and tick horizon — as frozen
dataclasses of primitives.  That buys three things at once:

* **portability** — specs pickle cleanly, so a worker process can rebuild
  the whole scenario from the spec alone (the parallel executor's
  contract);
* **content addressing** — specs serialize to canonical JSON, so a result
  cache can key on a digest of the spec (see :mod:`repro.runner.cache`);
* **reproducibility** — an :class:`EnsembleSpec` expands into per-seed
  RunSpecs through one centralized :func:`derive_seed`, replacing the
  ad-hoc ``base_seed + i`` arithmetic that used to be sprinkled through
  the scenario builders.

Specs only *describe*; the builders in :mod:`repro.runner.build` turn
them into live :class:`~repro.simulator.network.Network` and engine
objects (:mod:`repro.simulator.fastpath`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

from ..simulator.immunization import ImmunizationPolicy

__all__ = [
    "SpecError",
    "derive_seed",
    "ENGINE_KINDS",
    "TopologySpec",
    "WormSpec",
    "DefenseSpec",
    "QuarantineSpec",
    "RunSpec",
    "EnsembleSpec",
]

#: Observation modes understood by the run executor.
OBSERVE_MODES = ("population", "seed_subnets")

TOPOLOGY_KINDS = ("powerlaw", "star")
WORM_KINDS = ("random", "local_preferential", "topological", "sequential")
#: Worms with a batch sampling kernel (the vector engine's scan phase).
BATCH_WORM_KINDS = ("random", "local_preferential")
DEFENSE_KINDS = ("none", "hosts", "hub", "edge", "backbone")

#: Engine labels a spec can carry.  ``"reference"`` names the exact
#: path: :class:`~repro.simulator.fastpath.FastWormSimulation`, the
#: mirror, which draws from the run RNG in the paper's per-host,
#: per-packet order at every size.  (The label is older than the
#: mirror; keeping it keeps spec digests, cache entries and payloads
#: stable.)  ``"fast"`` takes the same exact path below
#: ``BATCH_MIN_HOSTS`` infectable hosts (or for worms without a batch
#: kernel) and a width-1 batch-sampled
#: :class:`~repro.simulator.fastpath.VectorReplicaSimulation` group
#: above; ``"fast-batched"`` forces batch sampling and lets the runner
#: vectorize whole replica groups of an ensemble through one shared
#: scenario build.
ENGINE_KINDS = ("reference", "fast", "fast-batched")


class SpecError(ValueError):
    """Raised for malformed run specifications."""


def derive_seed(base: int, index: int) -> int:
    """Seed for run ``index`` of an ensemble with base seed ``base``.

    Centralizes the protocol the paper's "average of ten simulation runs"
    implies: run ``i`` is an independent replicate whose randomness is a
    deterministic function of ``(base, i)``.  The derivation is the
    additive one the repository has always used, so historical curves are
    bit-for-bit preserved; every caller must go through this function so
    that changing the derivation ever again is a one-line edit.
    """
    if index < 0:
        raise SpecError(f"run index must be non-negative, got {index}")
    return base + index


@dataclass(frozen=True)
class TopologySpec:
    """How to build the network topology for a run.

    ``seed=None`` (the default) means "use the run's own seed", which is
    the resample-per-run protocol of the paper's power-law experiments;
    pass a concrete seed to pin one topology across all runs.
    """

    kind: str = "powerlaw"
    num_nodes: int = 1000
    edges_per_node: int = 2
    backbone_fraction: float = 0.05
    edge_fraction: float = 0.10
    infect_routers: bool = False
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise SpecError(
                f"topology kind must be one of {TOPOLOGY_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.num_nodes < 2:
            raise SpecError(
                f"num_nodes must be >= 2, got {self.num_nodes}"
            )


@dataclass(frozen=True)
class WormSpec:
    """Which scanning strategy the worm uses (Section 5's design axis)."""

    kind: str = "random"
    local_preference: float = 0.8
    hit_probability: float = 1.0
    radius: int = 2
    exploration: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in WORM_KINDS:
            raise SpecError(
                f"worm kind must be one of {WORM_KINDS}, got {self.kind!r}"
            )


@dataclass(frozen=True)
class DefenseSpec:
    """Where rate-limiting filters go and how hard they throttle.

    The paper's design axis as data: ``kind`` is the location (no
    filters, end hosts, the star hub, edge routers or backbone routers);
    ``rate`` is the allowed contact/packet rate per tick (the
    analytical ``beta2`` for host filters, the per-link base rate for
    router filters); ``coverage`` is the fraction of hosts filtered
    (host deployment only); ``node_budget`` is the star hub's forwarding
    budget; ``weighted`` scales router-link capacities with
    routing-table occupancy (the paper's scheme).  ``seed`` only matters
    for host deployment (which filters a random fraction of hosts); it
    is deliberately independent of the run seed so the *same* hosts are
    filtered in every run of an ensemble, matching the fixed-deployment
    reading of the paper.
    """

    kind: str = "none"
    rate: float | None = None
    coverage: float = 1.0
    node_budget: float | None = None
    weighted: bool = True
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in DEFENSE_KINDS:
            raise SpecError(
                f"defense kind must be one of {DEFENSE_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.kind != "none" and self.rate is None:
            raise SpecError(f"{self.kind} defense needs a rate")
        if self.kind == "hub" and self.node_budget is None:
            raise SpecError("hub defense needs a node_budget")
        if self.rate is not None and self.rate <= 0:
            raise SpecError(f"rate must be positive, got {self.rate}")
        if self.node_budget is not None and self.node_budget <= 0:
            raise SpecError(
                f"node_budget must be positive, got {self.node_budget}"
            )
        if not 0.0 <= self.coverage <= 1.0:
            raise SpecError(
                f"coverage must be in [0, 1], got {self.coverage}"
            )

    @property
    def label(self) -> str:
        """Display label, e.g. ``host_rl_30pct`` or ``backbone_rl``."""
        if self.kind == "none":
            return "no_rl"
        if self.kind == "hosts":
            return f"host_rl_{int(round(self.coverage * 100))}pct"
        return {"hub": "hub_rl", "edge": "edge_rl", "backbone": "backbone_rl"}[
            self.kind
        ]


@dataclass(frozen=True)
class QuarantineSpec:
    """Dynamic-quarantine control loop: telescope → detector → response."""

    response: DefenseSpec
    telescope_coverage: float = 1.0 / 256.0
    detector_scans_per_infected: float = 1.0
    reaction_delay: int = 0

    def __post_init__(self) -> None:
        if self.response.kind == "none":
            raise SpecError("a quarantine response must deploy something")
        if self.reaction_delay < 0:
            raise SpecError(
                f"reaction_delay must be non-negative, "
                f"got {self.reaction_delay}"
            )


@dataclass(frozen=True)
class RunSpec:
    """One seeded simulation run, fully described.

    Attributes
    ----------
    topology, worm, defense:
        The scenario's static pieces, as data.
    scan_rate:
        ``beta`` — expected scans per infected host per tick.
    initial_infections:
        Hosts infected at tick 0.
    immunization:
        Optional delayed-patching policy (already a frozen dataclass of
        primitives, so it rides along unchanged).
    quarantine:
        Optional dynamic-quarantine loop configuration.
    lan_delivery:
        Deliver same-subnet scans over the local LAN; see
        :class:`~repro.simulator.fastpath.FastWormSimulation`.
    max_ticks:
        Tick horizon.
    seed:
        This run's seed (drives topology resampling, initial infections,
        and all worm randomness).
    observe:
        ``"population"`` records the whole-network infection curve;
        ``"seed_subnets"`` records the infected fraction within the
        subnets holding the initial seeds (Figure 5's view).
    engine:
        Which engine path executes the run: ``"reference"`` (always the
        exact path), ``"fast"`` or ``"fast-batched"`` (see
        :data:`ENGINE_KINDS`).  Part of the spec — and therefore the
        cache digest — because batch sampling is only statistically
        equivalent to the exact path.
    """

    topology: TopologySpec = field(default_factory=TopologySpec)
    worm: WormSpec = field(default_factory=WormSpec)
    defense: DefenseSpec = field(default_factory=DefenseSpec)
    scan_rate: float = 0.8
    initial_infections: int = 1
    immunization: ImmunizationPolicy | None = None
    quarantine: QuarantineSpec | None = None
    lan_delivery: bool = False
    max_ticks: int = 100
    seed: int = 0
    observe: str = "population"
    engine: str = "reference"

    def __post_init__(self) -> None:
        if self.seed is None:
            # A seedless run would draw its topology, seeds and worm
            # from OS entropy under a deterministic digest.
            raise SpecError("a run needs a seed")
        if self.scan_rate <= 0:
            raise SpecError(
                f"scan_rate must be positive, got {self.scan_rate}"
            )
        if self.max_ticks <= 0:
            raise SpecError(
                f"max_ticks must be positive, got {self.max_ticks}"
            )
        if self.observe not in OBSERVE_MODES:
            raise SpecError(
                f"observe must be one of {OBSERVE_MODES}, "
                f"got {self.observe!r}"
            )
        if self.engine not in ENGINE_KINDS:
            raise SpecError(
                f"engine must be one of {ENGINE_KINDS}, got {self.engine!r}"
            )
        if (
            self.engine == "fast-batched"
            and self.worm.kind not in BATCH_WORM_KINDS
        ):
            raise SpecError(
                f"engine='fast-batched' requires a worm kind in "
                f"{BATCH_WORM_KINDS}, got {self.worm.kind!r}"
            )
        # A seedless host deployment would draw its filtered hosts from
        # OS entropy, so the run would not be a function of its spec
        # (nor of its cache key).
        response = self.quarantine.response if self.quarantine else None
        for name, defense in (
            ("defense", self.defense),
            ("quarantine.response", response),
        ):
            if defense is not None and defense.kind == "hosts":
                if defense.seed is None:
                    raise SpecError(
                        f"{name}: a hosts deployment needs a seed, which"
                        " picks the filtered hosts"
                    )

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-ready dict (the cache-digest input)."""
        return dataclasses.asdict(self)

    def scenario_key(self) -> str:
        """Hashable identity of the spec minus its ``seed``.

        Specs that may share one vector group have equal keys.  The key
        is the ``repr`` of the seedless spec, not the spec itself:
        ``1 == 1.0`` and ``0.0 == -0.0``, yet their canonical JSON (and
        so their cache digests) differ, and ``repr`` tells them apart
        as JSON does.
        """
        return repr(dataclasses.replace(self, seed=0))

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_dict`."""
        data = dict(data)
        data["topology"] = TopologySpec(**data["topology"])
        data["worm"] = WormSpec(**data["worm"])
        data["defense"] = DefenseSpec(**data["defense"])
        if data.get("immunization") is not None:
            data["immunization"] = ImmunizationPolicy(**data["immunization"])
        if data.get("quarantine") is not None:
            quarantine = dict(data["quarantine"])
            quarantine["response"] = DefenseSpec(**quarantine["response"])
            data["quarantine"] = QuarantineSpec(**quarantine)
        return cls(**data)


@dataclass(frozen=True)
class EnsembleSpec:
    """``num_runs`` independent replicates of one scenario.

    ``template.seed`` is ignored; run ``i`` gets
    ``derive_seed(base_seed, i)``.  The convenience properties expose
    the template's scan rate and horizon to study-level code.
    """

    template: RunSpec
    num_runs: int = 10
    base_seed: int = 42
    label: str = "experiment"

    def __post_init__(self) -> None:
        if self.base_seed is None:
            raise SpecError("an ensemble needs a base_seed")
        if self.num_runs < 1:
            raise SpecError(
                f"num_runs must be >= 1, got {self.num_runs}"
            )

    @property
    def scan_rate(self) -> float:
        """The template's scan rate."""
        return self.template.scan_rate

    @property
    def max_ticks(self) -> int:
        """The template's tick horizon."""
        return self.template.max_ticks

    def expand(self) -> tuple[RunSpec, ...]:
        """The per-seed RunSpecs this ensemble denotes."""
        return tuple(
            dataclasses.replace(
                self.template, seed=derive_seed(self.base_seed, i)
            )
            for i in range(self.num_runs)
        )

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-ready dict (the service protocol's wire form)."""
        return {
            "template": self.template.to_dict(),
            "num_runs": self.num_runs,
            "base_seed": self.base_seed,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EnsembleSpec":
        """Inverse of :meth:`to_dict`."""
        data = dict(data)
        data["template"] = RunSpec.from_dict(data["template"])
        return cls(**data)
