"""Solo fast runs harvest their metrics from the transport's arrays.

``execute_run`` leaves a fast run's per-link state in the transport
(``writeback="stats"``) and builds histograms from its folded arrays.
These tests pin that harvest to the bytes of the one it replaced: the
same run written back onto the network in full, with packet totals and
histograms read off ``network.links`` — key order included, since the
serialized result is what the cache and the service hand out.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.observability.stats import drop_histogram, queue_histogram
from repro.runner.build import execute_run
from repro.runner.spec import (
    DefenseSpec,
    QuarantineSpec,
    RunSpec,
    TopologySpec,
    WormSpec,
)
from repro.simulator.fastpath import FastWormSimulation, VectorReplicaSimulation

#: One fig-4 seed column at reduced scale (300 nodes, 150 ticks).
_TEMPLATE = RunSpec(
    topology=TopologySpec(num_nodes=300),
    scan_rate=0.8,
    initial_infections=5,
    lan_delivery=True,
    max_ticks=150,
    seed=11,
)
_BACKBONE = DefenseSpec(kind="backbone", rate=0.02)
_COLUMN = {
    "none": _TEMPLATE,
    "hosts": dataclasses.replace(
        _TEMPLATE,
        defense=DefenseSpec(kind="hosts", rate=0.01, coverage=0.05, seed=42),
    ),
    "edge": dataclasses.replace(
        _TEMPLATE, defense=DefenseSpec(kind="edge", rate=0.02)
    ),
    "backbone": dataclasses.replace(_TEMPLATE, defense=_BACKBONE),
    "quarantine": dataclasses.replace(
        _TEMPLATE, quarantine=QuarantineSpec(response=_BACKBONE)
    ),
    "seed_subnets": dataclasses.replace(
        _TEMPLATE,
        worm=WormSpec(kind="local_preferential", local_preference=0.8),
        defense=DefenseSpec(kind="edge", rate=0.02),
        observe="seed_subnets",
    ),
}


def _dumps(data: dict) -> str:
    data["metrics"]["wall_time"] = 0.0
    return json.dumps(data)


def _full_writeback_bytes(spec: RunSpec, monkeypatch) -> str:
    """The run's bytes with every host and link written back and walked.

    Mirror runs write back at ``run``; batch-sampled runs (width-1
    vector groups) at their replica's harvest, and the network keeps
    that state after the group finishes.
    """
    networks = []
    original_run = FastWormSimulation.run
    original_init = VectorReplicaSimulation.__init__

    def run_full(self, max_ticks, *, writeback="full"):
        networks.append(self.network)
        return original_run(self, max_ticks, writeback="full")

    def init_full(self, network, *args, **kwargs):
        networks.append(network)
        original_init(self, network, *args, **dict(kwargs, writeback="full"))

    with monkeypatch.context() as patch:
        patch.setattr(FastWormSimulation, "run", run_full)
        patch.setattr(VectorReplicaSimulation, "__init__", init_full)
        data = execute_run(spec).to_dict()
    network = networks[0]
    data["metrics"].update(
        packets_injected=network.stats.packets_injected,
        packets_delivered=network.stats.packets_delivered,
        packets_dropped=network.stats.packets_dropped,
        queue_histogram=queue_histogram(network),
        drop_histogram=drop_histogram(network),
    )
    return _dumps(data)


@pytest.mark.parametrize("engine", ["fast", "fast-batched"])
@pytest.mark.parametrize("deployment", list(_COLUMN))
def test_array_harvest_matches_full_writeback(engine, deployment, monkeypatch):
    spec = dataclasses.replace(_COLUMN[deployment], engine=engine)
    harvested = _dumps(execute_run(spec).to_dict())
    assert harvested == _full_writeback_bytes(spec, monkeypatch)


def test_solo_run_leaves_links_unwritten(monkeypatch):
    """Only the aggregate counters reach the network in a stats harvest."""
    runs: list[FastWormSimulation] = []
    original = FastWormSimulation.run

    def spy(self, max_ticks, **kwargs):
        runs.append(self)
        return original(self, max_ticks, **kwargs)

    monkeypatch.setattr(FastWormSimulation, "run", spy)
    result = execute_run(dataclasses.replace(_COLUMN["backbone"], engine="fast"))
    network = runs[0].network
    assert network.stats.packets_injected == result.metrics.packets_injected
    assert all(
        link.stats.forwarded == 0 and link.queue_length == 0
        for link in network.links.values()
    )
    assert sum(result.metrics.queue_histogram.values()) == len(network.links)
