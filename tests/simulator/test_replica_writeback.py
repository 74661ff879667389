"""Regression: runs that die at tick 0 still leave their host stamps.

An immunization policy with ``mu=1.0`` starting at tick 0 patches the
whole population on the very first tick, so the epidemic is over after
one recorder sample and ``Trajectory`` construction fails with
:class:`~repro.models.base.ModelError`.  The mirror engine's host arrays
(and a vector replica's host row, solo or grouped) must hold the
``infected_at`` / ``immunized_at`` stamps after that failure — exactly
what the reference oracle leaves on the host objects — or post-mortem
inspection of die-outs silently reads stale hosts.
"""

from __future__ import annotations

import pytest

from repro.models.base import ModelError
from repro.simulator import (
    DefensePlan,
    FastWormSimulation,
    ImmunizationPolicy,
    Network,
    RandomScanWorm,
    deploy_hub_rate_limit,
)
from repro.simulator.fastpath import VectorReplicaSimulation

from ..oracle import WormSimulation, result_state

#: Patch everyone (including the infected seeds) on tick 0.
KILL_ALL = ImmunizationPolicy.at_tick(0, 1.0)
MAX_TICKS = 40
SEEDS = (11, 12, 13)


def _stamps(network: Network, run=None) -> dict:
    return result_state(network, run)["hosts"]


def _powerlaw() -> tuple[Network, None]:
    return Network.from_powerlaw(80, seed=3), None


def _star() -> tuple[Network, None]:
    return Network.from_star(60), None


def _star_hub_budget() -> tuple[Network, DefensePlan]:
    network = Network.from_star(60)
    return network, deploy_hub_rate_limit(
        network, link_rate=10.0, hub_budget=5.0
    )


def _run(engine_cls, seed: int, make_network=_powerlaw, **kwargs):
    network, plan = make_network()
    simulation = engine_cls(
        network,
        RandomScanWorm(hit_probability=0.5),
        scan_rate=1.2,
        initial_infections=3,
        immunization=KILL_ALL,
        defense=plan,
        seed=seed,
        **kwargs,
    )
    with pytest.raises(ModelError):
        simulation.run(MAX_TICKS)
    if engine_cls is WormSimulation:
        return _stamps(simulation.network)
    return _stamps(network, simulation)


@pytest.mark.parametrize("scan_mode", ["mirror", "batch"])
def test_tick0_dieout_writes_back_stamps(scan_mode):
    """Mirror and batch-sampled runs leave the reference's exact stamps.

    The outcome is deterministic across RNG streams — every host is
    immunized at tick 0, the seeds alone carry ``infected_at=0`` — so
    the mirror engine *and* a batch-sampled run (a width-1 vector group)
    must agree with the reference bit-for-bit.
    """
    for seed in SEEDS:
        reference = _run(WormSimulation, seed)
        if scan_mode == "mirror":
            fast = _run(FastWormSimulation, seed)
        else:
            fast = _replica_batch_stamps(_powerlaw, [seed])[0]
        assert fast == reference, seed


def _replica_batch_stamps(make_network, seeds=SEEDS) -> dict:
    """Run a tick-0 die-out batch; return each replica's harvested stamps."""
    network, plan = make_network()
    batch = VectorReplicaSimulation(
        network,
        RandomScanWorm(hit_probability=0.5),
        scan_rate=1.2,
        seeds=list(seeds),
        initial_infections=3,
        immunization=KILL_ALL,
        defense=plan,
    )
    harvested = {}

    def harvest(replica, sim):
        # The one-sample trajectory is unbuildable; the stamps must be
        # in the replica's host row anyway.
        with pytest.raises(ModelError):
            sim.trajectory()
        assert replica not in harvested
        harvested[replica] = _stamps(network, sim)

    batch.run(MAX_TICKS, harvest)
    assert sorted(harvested) == list(range(len(seeds)))
    return harvested


def test_tick0_dieout_replica_batch_writes_back_stamps():
    """Every replica of a batch dying at tick 0 still keeps its stamps.

    Every replica dies on the very first tick, so the replica engine's
    finished-detection fires for the whole batch at once: each replica
    must still drop its pending-store packets, keep its stamps, and
    reach its harvest callback exactly once.
    """
    harvested = _replica_batch_stamps(_powerlaw)
    for replica, seed in enumerate(SEEDS):
        assert harvested[replica] == _run(WormSimulation, seed), seed


@pytest.mark.parametrize(
    "make_network", [_star, _star_hub_budget], ids=["vector", "budgeted"]
)
def test_tick0_dieout_vector_replicas_write_back_stamps(make_network):
    """Tick-0 die-outs are finalized on either replica transport.

    On a star, ``vector`` replicas share the vectorized transport and
    its pending store, while a static hub forwarding budget makes every
    ``budgeted`` replica queue and sweep on its own transport from tick
    0.  Both finalize paths must leave the reference's stamps behind.
    """
    harvested = _replica_batch_stamps(make_network)
    for replica, seed in enumerate(SEEDS):
        expected = _run(WormSimulation, seed, make_network)
        assert harvested[replica] == expected, seed
