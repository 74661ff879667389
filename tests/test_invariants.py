"""Simulation invariants, checked through the observability trace.

Every seeded run, on every topology, with and without defenses, must
satisfy the conservation laws of the tick engine:

* compartments partition the population: ``S + I + R == N`` every tick;
* the ever-infected tally never decreases;
* packets are conserved: every scan injected into the routed graph is,
  at all times, delivered, dropped, or still queued on some link;
* the per-tick trace is exactly the view the ``CurveRecorder`` samples —
  the two observation paths can never disagree.

The grid is deliberately wide (topology x seed x defense x engine) and
each run deliberately small, so a regression in any phase of any engine
trips at least one cell.  Grouped vector runs must satisfy the same laws
replica by replica.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.runner import (
    DefenseSpec,
    InstrumentationOptions,
    RunSpec,
    TopologySpec,
    execute_run,
)
from repro.runner.build import execute_replica_batch

TOPOLOGIES = {
    "star": TopologySpec(kind="star", num_nodes=60),
    "powerlaw": TopologySpec(kind="powerlaw", num_nodes=120),
}
# Each topology pairs with the defenses that can actually deploy on it:
# a star has a hub but no backbone routers, a power-law graph the reverse.
DEFENSES = {
    "star": {
        "none": DefenseSpec(),
        "hub": DefenseSpec(kind="hub", rate=10.0, node_budget=4.0),
    },
    "powerlaw": {
        "none": DefenseSpec(),
        "backbone": DefenseSpec(kind="backbone", rate=0.05),
    },
}
SEEDS = (1, 7, 23)

TRACE_OPTIONS = InstrumentationOptions(trace=True)

# Reference cells keep their historical ids; the fast engines' cells
# carry the engine name.  These topologies are small, so ``fast`` runs
# the mirror engine and ``fast-batched`` a width-1 vector group.
ENGINES = ("reference", "fast", "fast-batched")

GRID = [
    pytest.param(
        topology,
        seed,
        defense,
        engine,
        id=f"{t_name}-s{seed}-{d_name}"
        + ("" if engine == "reference" else f"-{engine}"),
    )
    for engine in ENGINES
    for t_name, topology in TOPOLOGIES.items()
    for seed in SEEDS
    for d_name, defense in DEFENSES[t_name].items()
]


def run_spec(
    topology: TopologySpec,
    seed: int,
    defense: DefenseSpec,
    engine: str = "reference",
    *,
    lan_delivery: bool = False,
) -> RunSpec:
    return RunSpec(
        topology=topology,
        defense=defense,
        scan_rate=0.8,
        initial_infections=2,
        lan_delivery=lan_delivery,
        max_ticks=40,
        seed=seed,
        engine=engine,
    )


def traced_run(
    topology: TopologySpec,
    seed: int,
    defense: DefenseSpec,
    engine: str = "reference",
    *,
    lan_delivery: bool = False,
):
    spec = run_spec(
        topology, seed, defense, engine, lan_delivery=lan_delivery
    )
    result = execute_run(spec, TRACE_OPTIONS)
    assert result.trace, "traced run produced no trace records"
    return result


def assert_compartments_partition_population(result) -> None:
    population = int(result.trajectory.population)
    for record in result.trace:
        total = record["susceptible"] + record["infected"] + record["immune"]
        assert total == population, (
            f"tick {record['tick']}: S+I+R = {total} != N = {population}"
        )


def assert_packets_conserved(result) -> None:
    """injected == delivered + dropped + in-flight, at every tick.

    LAN-queued packets bypass the routed graph's inject counter, so
    they sit outside this law (and ``lan_queue`` is reported
    separately in the trace).
    """
    for record in result.trace:
        accounted = (
            record["packets_delivered"]
            + record["packets_dropped"]
            + record["in_flight"]
        )
        assert record["packets_injected"] == accounted, (
            f"tick {record['tick']}: injected "
            f"{record['packets_injected']} != accounted {accounted}"
        )


def assert_trace_matches_curve(result) -> None:
    """The trace and the trajectory are two views of one sampling."""
    trajectory = result.trajectory
    assert len(result.trace) == trajectory.times.size
    np.testing.assert_array_equal(
        np.array([r["tick"] for r in result.trace], dtype=float),
        trajectory.times,
    )
    np.testing.assert_array_equal(
        np.array([r["infected"] for r in result.trace], dtype=float),
        trajectory.infected,
    )
    np.testing.assert_array_equal(
        np.array([r["susceptible"] for r in result.trace], dtype=float),
        trajectory.susceptible,
    )
    np.testing.assert_array_equal(
        np.array([r["immune"] for r in result.trace], dtype=float),
        trajectory.removed,
    )
    np.testing.assert_array_equal(
        np.array([r["ever_infected"] for r in result.trace], dtype=float),
        trajectory.ever_infected,
    )


@pytest.mark.parametrize("topology,seed,defense,engine", GRID)
class TestConservationLaws:
    def test_compartments_partition_population(
        self, topology, seed, defense, engine
    ):
        assert_compartments_partition_population(
            traced_run(topology, seed, defense, engine)
        )

    def test_ever_infected_monotone_nondecreasing(
        self, topology, seed, defense, engine
    ):
        result = traced_run(topology, seed, defense, engine)
        series = [r["ever_infected"] for r in result.trace]
        assert all(a <= b for a, b in zip(series, series[1:]))
        # ...and an ever-infected host is infected now or was before.
        for record in result.trace:
            assert record["ever_infected"] >= record["infected"]

    def test_packet_conservation_every_tick(
        self, topology, seed, defense, engine
    ):
        assert_packets_conserved(traced_run(topology, seed, defense, engine))

    def test_final_record_matches_run_metrics(
        self, topology, seed, defense, engine
    ):
        result = traced_run(topology, seed, defense, engine)
        last = result.trace[-1]
        assert last["packets_injected"] == result.metrics.packets_injected
        assert last["packets_delivered"] == result.metrics.packets_delivered
        assert last["packets_dropped"] == result.metrics.packets_dropped

    def test_trace_consistent_with_curve_recorder(
        self, topology, seed, defense, engine
    ):
        """The trace and the trajectory are two views of one sampling."""
        assert_trace_matches_curve(traced_run(topology, seed, defense, engine))


@pytest.mark.parametrize(
    "t_name,d_name",
    [(t, d) for t in TOPOLOGIES for d in DEFENSES[t]],
    ids=lambda name: name,
)
def test_grouped_replicas_keep_the_laws(t_name, d_name):
    """An instrumented vector group traces every replica on its own."""
    pinned = dataclasses.replace(TOPOLOGIES[t_name], seed=3)
    specs = [
        run_spec(pinned, seed, DEFENSES[t_name][d_name], "fast-batched")
        for seed in SEEDS
    ]
    results = execute_replica_batch(specs, TRACE_OPTIONS)
    assert [result.spec.seed for result in results] == list(SEEDS)
    for result in results:
        assert result.trace, "grouped replica produced no trace records"
        assert_compartments_partition_population(result)
        assert_packets_conserved(result)
        assert_trace_matches_curve(result)
        last = result.trace[-1]
        assert last["packets_injected"] == result.metrics.packets_injected
        assert last["packets_dropped"] == result.metrics.packets_dropped


class TestLanDelivery:
    """Conservation holds with the LAN shortcut on: LAN scans never
    enter the routed graph, so the routed-packet law is unaffected."""

    def test_packet_conservation_with_lan_queue(self):
        result = traced_run(
            TOPOLOGIES["powerlaw"], 7, DefenseSpec(), lan_delivery=True
        )
        for record in result.trace:
            assert record["packets_injected"] == (
                record["packets_delivered"]
                + record["packets_dropped"]
                + record["in_flight"]
            )

    def test_compartments_still_partition(self):
        result = traced_run(
            TOPOLOGIES["powerlaw"], 7, DefenseSpec(), lan_delivery=True
        )
        population = int(result.trajectory.population)
        for record in result.trace:
            assert (
                record["susceptible"]
                + record["infected"]
                + record["immune"]
                == population
            )
