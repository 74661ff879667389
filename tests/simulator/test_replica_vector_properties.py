"""Hypothesis properties of the cross-replica vectorized engine.

Three families:

* **seed-perturbation isolation** — changing one replica's seed leaves
  every *other* replica's trajectory, host stamps and link counters
  byte-identical: the shared numpy passes and the global pending-packet
  store never leak state across the replica axis;
* **live-mask correctness** — under aggressive immunization replicas
  die out at staggered ticks, shrinking the live mask mid-run; each
  survivor (and each casualty) still replays its solo run (a width-1
  group) bit-for-bit and is harvested exactly once;
* **RNG stream non-collision** — per-replica generators stay distinct
  streams at 1000 replicas: no two replicas share a bit-generator
  state, and their leading draws differ.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.base import ModelError
from repro.simulator.fastpath import VectorReplicaSimulation
from repro.simulator.fastpath.vector import ReplicaState
from repro.simulator.immunization import ImmunizationPolicy
from repro.simulator.network import Network
from repro.simulator.worms import RandomScanWorm

from ..oracle import result_state

TICKS = 40


def _network() -> Network:
    return Network.from_powerlaw(60, seed=5)


def _state(network: Network, sim: ReplicaState) -> tuple:
    state = result_state(network, sim)
    hosts = tuple(state["hosts"].values())
    links = tuple(
        (key, *counts[:4]) for key, counts in sorted(state["links"].items())
    )
    return (hosts, links, *state["stats"])


def _harvest_tuple(network: Network, sim: ReplicaState) -> tuple:
    try:
        curve = sim.trajectory()
        trajectory = tuple(zip(curve.times, curve.infected))
    except ModelError:
        # Tick-0 die-outs have a one-sample recorder; the stamps below
        # still capture everything the run left behind.
        trajectory = ()
    return (trajectory, _state(network, sim))


def _vector_batch(seeds, *, mu=None, start=1):
    network = _network()
    immunization = (
        ImmunizationPolicy.at_tick(start, mu) if mu is not None else None
    )
    batch = VectorReplicaSimulation(
        network,
        RandomScanWorm(hit_probability=0.5),
        scan_rate=1.2,
        seeds=list(seeds),
        initial_infections=2,
        immunization=immunization,
    )
    harvested: dict[int, tuple] = {}

    def harvest(replica, sim):
        assert replica not in harvested, "replica harvested twice"
        harvested[replica] = _harvest_tuple(network, sim)

    batch.run(TICKS, harvest)
    assert sorted(harvested) == list(range(len(seeds)))
    return [harvested[i] for i in range(len(seeds))]


def _solo_batch(seed, *, mu=None, start=1):
    (alone,) = _vector_batch([seed], mu=mu, start=start)
    return alone


# ----------------------------------------------------------------------
# Seed-perturbation isolation
# ----------------------------------------------------------------------

@given(
    seeds=st.lists(
        st.integers(min_value=0, max_value=2**20),
        min_size=3,
        max_size=6,
        unique=True,
    ),
    k=st.integers(min_value=0, max_value=5),
    bump=st.integers(min_value=1, max_value=2**20),
)
@settings(deadline=None, max_examples=10)
def test_perturbing_one_seed_leaves_others_byte_identical(seeds, k, bump):
    """Replica ``k``'s seed is nobody else's business."""
    k %= len(seeds)
    perturbed = list(seeds)
    perturbed[k] = (perturbed[k] + bump) % 2**31
    if perturbed[k] in seeds:
        perturbed[k] = 2**22 + k  # keep the seed list collision-free
    base = _vector_batch(seeds)
    other = _vector_batch(perturbed)
    for i in range(len(seeds)):
        if i != k:
            assert other[i] == base[i], i


# ----------------------------------------------------------------------
# Live-mask correctness under staggered die-outs
# ----------------------------------------------------------------------

@given(
    mu=st.floats(min_value=0.15, max_value=1.0),
    base_seed=st.integers(min_value=0, max_value=2**16),
)
@settings(deadline=None, max_examples=10)
def test_staggered_dieouts_keep_replicas_solo_identical(mu, base_seed):
    """Aggressive patching retires replicas at different ticks; the
    shrinking live mask must not disturb any replica's results."""
    seeds = [base_seed + i for i in range(5)]
    vector = _vector_batch(seeds, mu=mu)
    for seed, got in zip(seeds, vector):
        assert got == _solo_batch(seed, mu=mu), seed


# ----------------------------------------------------------------------
# Per-replica RNG stream non-collision
# ----------------------------------------------------------------------

@given(base_seed=st.integers(min_value=0, max_value=2**16))
@settings(deadline=None, max_examples=3)
def test_thousand_replica_streams_never_collide(base_seed):
    """1000 replicas hold 1000 distinct generator streams."""
    network = Network.from_powerlaw(30, seed=5)
    batch = VectorReplicaSimulation(
        network,
        RandomScanWorm(hit_probability=0.5),
        scan_rate=1.2,
        seeds=[base_seed + i for i in range(1000)],
        initial_infections=1,
    )
    states = set()
    draws = set()
    for state in batch.states:
        bg = state.gen.bit_generator
        state = bg.state["state"]
        states.add((state["state"], state["inc"]))
        clone = type(bg)()
        clone.state = bg.state
        draws.add(tuple(np.random.Generator(clone).integers(2**62, size=4)))
    assert len(states) == 1000
    assert len(draws) == 1000
