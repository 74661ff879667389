"""Builders: turn declarative specs into live simulations, and run them.

:func:`execute_run` is the runner's unit of work.  It is a module-level
function of one picklable :class:`~repro.runner.spec.RunSpec` argument so
that a :class:`concurrent.futures.ProcessPoolExecutor` worker can execute
it after rebuilding the whole scenario from the spec — the property that
makes the parallel executor produce *bit-identical* trajectories to the
serial one: all randomness flows from the spec's seed, none from shared
process state.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Sequence

import numpy as np

from ..models.base import Trajectory
from ..observability.instrumentation import Instrumentation, InstrumentationOptions
from ..observability.stats import histogram
from ..simulator.defense import (
    DefensePlan,
    deploy_backbone_rate_limit,
    deploy_edge_rate_limit,
    deploy_host_rate_limit,
    deploy_hub_rate_limit,
    no_defense,
)
from ..simulator.dynamic import DynamicQuarantine
from ..simulator.fastpath import FastWormSimulation, VectorReplicaSimulation
from ..simulator.fastpath.vector import ReplicaState
from ..simulator.network import Network
from ..simulator.observers import subset_fraction_curve
from ..simulator.telescope import ScanDetector, Telescope
from ..simulator.worms import (
    LocalPreferentialWorm,
    RandomScanWorm,
    SequentialScanWorm,
    TopologicalWorm,
    WormStrategy,
)
from .results import RunMetrics, RunResult
from .spec import (
    BATCH_WORM_KINDS,
    DefenseSpec,
    QuarantineSpec,
    RunSpec,
    TopologySpec,
    WormSpec,
)

__all__ = [
    "build_network",
    "build_worm",
    "apply_defense",
    "build_quarantine",
    "execute_run",
    "execute_replica_batch",
]

#: ``engine="fast"`` switches from draw-for-draw mirroring to batch
#: sampling (a width-1 vector group) at this many infectable hosts:
#: below it, exact replay costs little and buys bit-identical
#: differential testing; above it, the per-draw Python overhead
#: dominates the tick.
BATCH_MIN_HOSTS = 512


def build_network(spec: TopologySpec, *, run_seed: int) -> Network:
    """Construct the network a run attacks.

    ``spec.seed`` pins a topology; ``None`` resamples per run from
    ``run_seed`` (the paper's power-law protocol).
    """
    return Network.from_spec(
        spec, seed=spec.seed if spec.seed is not None else run_seed
    )


def build_worm(spec: WormSpec) -> WormStrategy:
    """Construct the worm strategy a spec describes."""
    if spec.kind == "random":
        return RandomScanWorm(hit_probability=spec.hit_probability)
    if spec.kind == "local_preferential":
        return LocalPreferentialWorm(spec.local_preference)
    if spec.kind == "topological":
        return TopologicalWorm(
            radius=spec.radius, exploration=spec.exploration
        )
    return SequentialScanWorm(hit_probability=spec.hit_probability)


def apply_defense(network: Network, spec: DefenseSpec) -> DefensePlan:
    """The plan of the filters a spec describes, for ``network``."""
    if spec.kind == "none":
        return no_defense(network)
    if spec.kind == "hosts":
        return deploy_host_rate_limit(
            network, spec.coverage, spec.rate, seed=spec.seed
        )
    if spec.kind == "hub":
        return deploy_hub_rate_limit(
            network, link_rate=spec.rate, hub_budget=spec.node_budget
        )
    if spec.kind == "edge":
        return deploy_edge_rate_limit(
            network, spec.rate, weighted=spec.weighted
        )
    return deploy_backbone_rate_limit(
        network, spec.rate, weighted=spec.weighted
    )


def build_quarantine(spec: QuarantineSpec) -> DynamicQuarantine:
    """Construct the dynamic-quarantine control loop a spec describes."""
    response_spec = spec.response
    return DynamicQuarantine(
        lambda network: apply_defense(network, response_spec),
        telescope=Telescope(coverage=spec.telescope_coverage),
        detector=ScanDetector(
            scans_per_infected=spec.detector_scans_per_infected
        ),
        reaction_delay=spec.reaction_delay,
    )


def _seed_subnet_curve(
    network: Network, infected_at: np.ndarray, max_ticks: int
) -> Trajectory:
    """Figure 5's observable: infected fraction in the seeds' subnets.

    ``infected_at`` is the run's infection tick per node (-1: never).
    """
    members: set[int] = set()
    for seed_node in np.flatnonzero(infected_at == 0).tolist():
        members.add(seed_node)
        members.update(network.subnet_peers(seed_node))
    ticks = np.arange(max_ticks, dtype=float)
    fraction = subset_fraction_curve(network, infected_at, members, ticks)
    return Trajectory(times=ticks, infected=fraction, population=1.0)


def _run_metrics(
    simulation: FastWormSimulation | ReplicaState,
    instrumentation: Instrumentation | None,
    wall_time: float,
) -> RunMetrics:
    """The packet totals, link-stat histograms and profile of a finished run.

    All of it comes from the run's transport.  The histograms list
    buckets in edge order (:class:`~repro.simulator.fastpath.transport.
    LinkArrays`), so solo and grouped runs serialize to the same bytes.
    """
    transport = simulation.transport
    links = transport.link_arrays()
    return RunMetrics(
        ticks_executed=simulation.ticks_executed,
        packets_injected=transport.injected,
        packets_delivered=transport.delivered,
        packets_dropped=transport.dropped_total,
        queue_histogram=histogram(links.peak),
        drop_histogram=histogram(links.dropped),
        wall_time=wall_time,
        phase_seconds=(
            dict(instrumentation.phase_seconds) if instrumentation else {}
        ),
        phase_calls=(
            dict(instrumentation.phase_calls) if instrumentation else {}
        ),
        counters=dict(instrumentation.counters) if instrumentation else {},
    )


def _trace(instrumentation: Instrumentation | None):
    """The run's tick records, when it ran with a trace sink."""
    if instrumentation is None or instrumentation.sink is None:
        return None
    return instrumentation.trace_records


def _batch_sampled(spec: RunSpec, network: Network) -> bool:
    """Whether a run takes the vector engine (batch sampling)."""
    if spec.engine == "fast-batched":
        return True
    return (
        spec.engine == "fast"
        and spec.worm.kind in BATCH_WORM_KINDS
        and network.num_infectable >= BATCH_MIN_HOSTS
    )


def execute_run(
    spec: RunSpec, options: InstrumentationOptions | None = None
) -> RunResult:
    """Build the scenario a spec describes, run it, and measure it.

    ``options`` requests observability for this run: profiling fills the
    per-phase timing fields of :class:`RunMetrics`, tracing attaches the
    per-tick records to the :class:`RunResult`.  Both default off; the
    queue/drop histograms are computed on every run either way.
    """
    start = time.perf_counter()
    network = build_network(spec.topology, run_seed=spec.seed)
    plan = apply_defense(network, spec.defense)
    if _batch_sampled(spec, network):
        return _run_vector([spec], network, plan, options, start)[0]
    instrumentation = Instrumentation.from_options(options)
    quarantine = (
        build_quarantine(spec.quarantine)
        if spec.quarantine is not None
        else None
    )
    # Every run that is not batch-sampled takes the exact path:
    # "reference" always, "fast" below BATCH_MIN_HOSTS or for a worm
    # the vector engine does not sample.
    simulation = FastWormSimulation(
        network,
        build_worm(spec.worm),
        scan_rate=spec.scan_rate,
        initial_infections=spec.initial_infections,
        immunization=spec.immunization,
        lan_delivery=spec.lan_delivery,
        defense=plan,
        quarantine=quarantine,
        seed=spec.seed,
        instrumentation=instrumentation,
    )
    trajectory = simulation.run(spec.max_ticks)
    if spec.observe == "seed_subnets":
        trajectory = _seed_subnet_curve(
            network, simulation.hosts.infected_at[0], spec.max_ticks
        )
    metrics = _run_metrics(
        simulation,
        instrumentation,
        wall_time=time.perf_counter() - start,
    )
    return RunResult(
        spec=spec,
        trajectory=trajectory,
        metrics=metrics,
        defense_name=plan.name,
        limited_links=plan.limited_links,
        throttled_hosts=plan.throttled_hosts,
        trace=_trace(instrumentation),
    )


def _run_vector(
    specs: Sequence[RunSpec],
    network: Network,
    plan: DefensePlan,
    options: InstrumentationOptions | None,
    start: float,
) -> list[RunResult]:
    """Run specs differing only by seed as one vector group on ``network``.

    ``plan`` is the static defense every replica runs under.
    ``wall_time`` reports the time since ``start`` split evenly over the
    group (per-replica attribution inside an interleaved tick loop would
    be noise anyway); a width-1 group keeps its whole build and run.
    """
    template = specs[0]
    quarantine_factory = None
    if template.quarantine is not None:
        quarantine_spec = template.quarantine

        def quarantine_factory() -> DynamicQuarantine:
            return build_quarantine(quarantine_spec)

    instrumentation = None
    if options is not None and options.active:
        instrumentation = [
            Instrumentation.from_options(options) for _ in specs
        ]
    batch = VectorReplicaSimulation(
        network,
        build_worm(template.worm),
        scan_rate=template.scan_rate,
        seeds=[spec.seed for spec in specs],
        initial_infections=template.initial_infections,
        immunization=template.immunization,
        lan_delivery=template.lan_delivery,
        defense=plan,
        quarantine_factory=quarantine_factory,
        instrumentation=instrumentation,
    )
    harvested: list[tuple[Trajectory, RunMetrics] | None] = [None] * len(
        specs
    )

    def harvest(replica: int, state: ReplicaState) -> None:
        spec = specs[replica]
        trajectory = state.trajectory()
        if spec.observe == "seed_subnets":
            trajectory = _seed_subnet_curve(
                network, state.infected_at, spec.max_ticks
            )
        harvested[replica] = (
            trajectory,
            _run_metrics(state, state.instrumentation, 0.0),
        )

    batch.run(template.max_ticks, harvest)
    per_run = (time.perf_counter() - start) / len(specs)
    results: list[RunResult] = []
    for spec, state, (trajectory, metrics) in zip(
        specs, batch.states, harvested
    ):
        results.append(
            RunResult(
                spec=spec,
                trajectory=trajectory,
                metrics=dataclasses.replace(metrics, wall_time=per_run),
                defense_name=plan.name,
                limited_links=plan.limited_links,
                throttled_hosts=plan.throttled_hosts,
                trace=_trace(state.instrumentation),
            )
        )
    return results


def execute_replica_batch(
    specs: Sequence[RunSpec],
    options: InstrumentationOptions | None = None,
) -> list[RunResult]:
    """Execute a replica group — same scenario, different seeds — at once.

    The specs must be identical apart from ``seed``, carry
    ``engine="fast-batched"``, and pin their topology seed (an unpinned
    topology resamples per run, so there is no shared network to
    amortize).  One scenario build serves every replica via
    :class:`~repro.simulator.fastpath.VectorReplicaSimulation`; each
    returned :class:`RunResult` is bit-identical to what
    :func:`execute_run` would produce for that spec alone, except
    ``wall_time`` and ``phase_seconds``, which report the group's time
    split evenly over its replicas.
    """
    specs = list(specs)
    if not specs:
        return []
    if len(specs) == 1:
        return [execute_run(specs[0], options)]
    template = specs[0]
    if template.engine != "fast-batched":
        raise ValueError(
            f"replica batching requires engine='fast-batched', "
            f"got {template.engine!r}"
        )
    if template.topology.seed is None:
        raise ValueError(
            "replica batching requires a pinned topology seed; "
            "unpinned topologies resample per run"
        )
    base = template.scenario_key()
    for spec in specs[1:]:
        if spec.scenario_key() != base:
            raise ValueError(
                "replica batching requires specs that differ only by seed"
            )

    start = time.perf_counter()
    network = build_network(template.topology, run_seed=template.seed)
    plan = apply_defense(network, template.defense)
    return _run_vector(specs, network, plan, options, start)
