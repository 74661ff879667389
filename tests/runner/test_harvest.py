"""Fast runs harvest their results from the engines' arrays.

A run's results live in its host arrays and transport, never on the
network it attacked.  These tests pin the served bytes of the harvest
on one fig-4 seed column, every deployment plus figure 5's seed-subnet
observable, on the mirror (``fast`` below 512 hosts) and on a width-1
vector group (``fast-batched``).  The digests were taken while a full
writeback of each run onto the network's link and host objects, with
packet totals and histograms read off those links, still produced the
same bytes.  They also check that a finished run, on either engine and
in a group, leaves the network as it was built and makes no filter
object on the way.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.runner import build
from repro.runner.build import execute_run
from repro.runner.results import EnsembleResult
from repro.runner.spec import (
    DefenseSpec,
    EnsembleSpec,
    QuarantineSpec,
    RunSpec,
    TopologySpec,
    WormSpec,
)
from repro.service.protocol import result_payload
from repro.simulator.links import TokenBucket

from ..oracle import as_built

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


#: sha256 of each case's ``result_payload``, keyed ``deployment@engine``.
#: Generated at the commit whose harvest these tests compared against a
#: full writeback of the run onto the network; to regenerate after an
#: intended change, print ``_digest`` for every case.
PINNED = {
    "none@fast": "1e8c27649e18314e52223457af4a9251b1f224e5e90cdc787ad7593777fb62de",
    "hosts@fast": "81e7a59f3beca6fe09815f9bf9753dff2777518e2495b650546d256b4bf7afcc",
    "edge@fast": "c1c50b5ac791911bac4042d94de8e6a53d68e316d6a8221f6df60c16ae44cae6",
    "backbone@fast": "9539d88404ddd50f927c7f5c6b2e4ef4b1017f97675ac69088f188ae9e4e859a",
    "quarantine@fast": "534e3675ae276ca612872688c85c9425d5f35efe3c44d4f72b39f16241b8d481",
    "seed_subnets@fast": "a5eb6a5d1a414c0088d36f701ed91b44f63750344ebd395afdb9e15f99d4e921",
    "none@fast-batched": "ae17e33f53ab35509d18a67869a0be22900a3fed434e3aa530d00865f113bc6d",
    "hosts@fast-batched": "7644867aab2b98738320991c1ba33ddaab23cb5ea30f0db213541e297a0c0f22",
    "edge@fast-batched": "cfa2f2a7e2a847931ca46338156082d606721a0b146df7414126f2031b40c2d1",
    "backbone@fast-batched": "41b07a53e37db24ff299e1661e89826cf7701b241e236e4f6cdbf75a862d071f",
    "quarantine@fast-batched": "f8ccb57a05118b3be8f207ed0a8ddbbfc924de2f211e75ecc5f361aa3df230de",
    "seed_subnets@fast-batched": "fe5f15048a61d913606c252742468bb93307fdbb980bc4daa785a166bf8de0bb",
    "quarantine_deploying@fast": "f544ea1dd581ffd4dc9b6c7b4970b2f6c768261b14bc74d4ce3b7e51db4fb871",
    "quarantine_deploying@fast-batched": "1a54ca0f8bb5e620dd7cdccd66d23ae6d36ae0794b4add956a06259b87ad54ce",
}


def _digest(spec: RunSpec) -> str:
    """sha256 of the bytes the service would serve for ``spec`` alone."""
    result = EnsembleResult(
        spec=EnsembleSpec(template=spec, num_runs=1, base_seed=spec.seed),
        runs=[execute_run(spec)],
    )
    return hashlib.sha256(result_payload(result)).hexdigest()


@pytest.mark.parametrize("engine", ["fast", "fast-batched"])
@pytest.mark.parametrize("deployment", list(_COLUMN))
def test_harvest_payload_bytes_are_pinned(engine, deployment):
    spec = dataclasses.replace(_COLUMN[deployment], engine=engine)
    assert _digest(spec) == PINNED[f"{deployment}@{engine}"]


#: The quarantine column's loop never fires: its worm never misses, so
#: the telescope stays dark.  The as-built test runs this one instead,
#: which deploys on every engine and replica.
_DEPLOYING = {
    "worm": WormSpec(hit_probability=0.5),
    "quarantine": QuarantineSpec(response=_BACKBONE, telescope_coverage=0.25),
}


@pytest.mark.parametrize("engine", ["fast", "fast-batched"])
def test_deploying_quarantine_payload_bytes_are_pinned(engine, monkeypatch):
    """The quarantine column with a loop that fires mid-run (tick 9)."""
    spec = dataclasses.replace(
        _COLUMN["quarantine"], engine=engine, **_DEPLOYING
    )
    quarantines = []
    build_quarantine = build.build_quarantine

    def recording_build_quarantine(*args, **kwargs):
        quarantines.append(build_quarantine(*args, **kwargs))
        return quarantines[-1]

    monkeypatch.setattr(build, "build_quarantine", recording_build_quarantine)
    assert _digest(spec) == PINNED[f"quarantine_deploying@{engine}"]
    assert [q.deployed_at for q in quarantines] == [9]


@pytest.mark.parametrize("engine", ["mirror", "width-1", "grouped"])
@pytest.mark.parametrize("deployment", list(_COLUMN))
def test_finished_runs_leave_the_network_as_built(
    engine, deployment, monkeypatch
):
    """Runs read the network and keep their results to themselves.

    Defenses too: the static plan and a quarantine's are applied to the
    engines' arrays, so no :class:`TokenBucket` is made at any point of
    the run, and the network holds what it held when it was built.
    """
    spec = dataclasses.replace(
        _COLUMN[deployment],
        topology=TopologySpec(num_nodes=300, seed=11),
        engine="fast" if engine == "mirror" else "fast-batched",
    )
    if deployment == "quarantine":
        spec = dataclasses.replace(spec, **_DEPLOYING)
    networks = []
    built = []
    build_network = build.build_network

    def recording_build_network(*args, **kwargs):
        networks.append(build_network(*args, **kwargs))
        built.append(as_built(networks[-1]))
        return networks[-1]

    quarantines = []
    build_quarantine = build.build_quarantine

    def recording_build_quarantine(*args, **kwargs):
        quarantines.append(build_quarantine(*args, **kwargs))
        return quarantines[-1]

    buckets = []
    make_bucket = TokenBucket.__init__

    def recording_make_bucket(self, *args, **kwargs):
        buckets.append(args)
        make_bucket(self, *args, **kwargs)

    monkeypatch.setattr(build, "build_network", recording_build_network)
    monkeypatch.setattr(build, "build_quarantine", recording_build_quarantine)
    monkeypatch.setattr(TokenBucket, "__init__", recording_make_bucket)
    if engine == "grouped":
        ensemble = EnsembleSpec(template=spec, num_runs=3, base_seed=11)
        results = build.execute_replica_batch(ensemble.expand())
    else:
        results = [build.execute_run(spec)]
    (network,) = networks
    assert buckets == []
    assert all(q.deployed_at is not None for q in quarantines)
    assert as_built(network) == built[0]
    fresh = build_network(spec.topology, run_seed=spec.seed)
    assert as_built(network) == as_built(fresh)
    assert all(result.metrics.packets_injected for result in results)
