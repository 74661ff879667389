"""Property tests for the replica seed protocol (``derive_seed``).

The replica-batched engine hands every replica its own
``random.Random(seed)`` / ``numpy`` generator pair, all derived through
:func:`repro.runner.spec.derive_seed`.  Three properties keep a
1000-replica ensemble honest:

* seeds are injective per ensemble — no two replicas share one;
* the RNG *streams* those seeds open do not collide either (distinct
  seeds that produced identical streams would silently halve the
  ensemble's effective sample size);
* the executor's regrouping is order-independent — shuffling the
  expanded specs changes neither the group a spec lands in nor the seed
  it carries.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import executors as executors_module
from repro.runner.build import execute_replica_batch
from repro.runner.executors import Executor
from repro.runner.spec import (
    EnsembleSpec,
    RunSpec,
    SpecError,
    TopologySpec,
    WormSpec,
    derive_seed,
)


@given(
    base=st.integers(min_value=-(2**31), max_value=2**31),
    i=st.integers(min_value=0, max_value=100_000),
    j=st.integers(min_value=0, max_value=100_000),
)
def test_derive_seed_deterministic_and_injective(base, i, j):
    assert derive_seed(base, i) == derive_seed(base, i)
    if i != j:
        assert derive_seed(base, i) != derive_seed(base, j)


@given(
    base=st.integers(min_value=0, max_value=2**31),
    index=st.integers(max_value=-1),
)
def test_derive_seed_rejects_negative_indices(base, index):
    with pytest.raises(SpecError):
        derive_seed(base, index)


@given(base=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=10, deadline=None)
def test_thousand_replica_streams_never_collide(base):
    """1000 replica seeds open 1000 distinct RNG streams.

    The additive derivation makes seed uniqueness trivial; the stronger
    claim is about the streams they open.  Distinctness of the first
    two 64-bit draws is an (overwhelmingly strong) witness that no two
    replicas of the ensemble share a random sequence.
    """
    seeds = [derive_seed(base, index) for index in range(1000)]
    assert len(set(seeds)) == len(seeds)
    heads = {
        (rng.getrandbits(64), rng.getrandbits(64))
        for rng in (random.Random(seed) for seed in seeds)
    }
    assert len(heads) == len(seeds)


def _expanded(num_runs: int) -> list[RunSpec]:
    spec = EnsembleSpec(
        template=RunSpec(
            topology=TopologySpec(num_nodes=64, seed=7),
            max_ticks=50,
            engine="fast-batched",
        ),
        num_runs=num_runs,
        base_seed=42,
    )
    return list(spec.expand())


@given(permutation=st.permutations(list(range(12))))
@settings(deadline=None)
def test_group_key_is_order_and_seed_independent(permutation):
    """Regrouping shuffled replicas reconstitutes the same group.

    The executor keys groups on the spec minus its seed; any
    permutation of an ensemble's expansion must map every spec to one
    identical key, with the seeds themselves untouched by grouping.
    """
    runs = _expanded(len(permutation))
    shuffled = [runs[index] for index in permutation]
    keys = {spec.scenario_key() for spec in shuffled}
    assert len(keys) == 1
    assert sorted(spec.seed for spec in shuffled) == [
        spec.seed for spec in runs
    ]
    # A spec differing in anything but the seed keys differently.
    other = dataclasses.replace(runs[0], scan_rate=runs[0].scan_rate + 0.1)
    assert other.scenario_key() not in keys


@pytest.mark.parametrize(
    "field, a, b",
    [
        ("scan_rate", 1, 1.0),
        ("worm", WormSpec(exploration=0.0), WormSpec(exploration=-0.0)),
    ],
    ids=["int-vs-float", "zero-vs-negative-zero"],
)
def test_group_key_never_merges_different_canonical_json(
    field, a, b, monkeypatch
):
    """Specs equal under ``==`` but not in canonical JSON never group.

    ``1 == 1.0`` and ``0.0 == -0.0``, so the frozen specs compare and
    hash equal; their cache digests differ, so they must stay in
    separate groups, and one replica batch must refuse the pair.
    """
    first, second = (
        dataclasses.replace(_expanded(2)[index], **{field: value})
        for index, value in enumerate((a, b))
    )
    assert dataclasses.replace(first, seed=0) == dataclasses.replace(
        second, seed=0
    )
    assert json.dumps(dict(first.to_dict(), seed=None)) != json.dumps(
        dict(second.to_dict(), seed=None)
    )
    assert first.scenario_key() != second.scenario_key()
    with pytest.raises(ValueError, match="differ only by seed"):
        execute_replica_batch([first, second])

    batches = []
    monkeypatch.setattr(
        executors_module,
        "execute_replica_batch",
        lambda specs, options=None: batches.append(list(specs)) or [],
    )
    monkeypatch.setattr(
        executors_module, "execute_run", lambda spec, options=None: spec
    )
    third = dataclasses.replace(_expanded(3)[2], **{field: a})
    with Executor(jobs=1) as executor:
        executor.run_specs([first, second, third])
    # ``first`` and ``third`` share a key; ``second`` runs alone.
    assert batches == [[first, third]]
