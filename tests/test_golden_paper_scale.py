"""Paper-scale batch-engine bytes, pinned by digest.

``tests/test_golden_fast_engine.py`` checks batch sampling against the
reference only statistically, and the replica grid
(``tests/golden/replica_grid.json``) runs at 120 nodes and one or two
packets per tick, where rate-limited queues drain.  At the paper's
scale they do not: on the fig-4 scenario a backbone filter leaves
~150k packets waiting on its links.  This test pins the served bytes
(``result_payload``) of that regime: every fig-4 deployment on two
never-reused topology seeds (width-1 vector groups), plus one 4-wide
``fast-batched`` backbone group on a pinned topology.  The fixture was
generated by the engine that predates the array-native queues.

To bless an intentional behavior change:

    PYTHONPATH=src python -m pytest tests/test_golden_paper_scale.py --update-golden
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.runner import RunnerConfig, use_config
from repro.runner.api import run_ensemble
from repro.runner.spec import (
    DefenseSpec,
    EnsembleSpec,
    QuarantineSpec,
    RunSpec,
    TopologySpec,
    WormSpec,
)
from repro.service.protocol import result_payload

GOLDEN_PATH = Path(__file__).parent / "golden" / "paper_scale.json"

#: Topology seeds of the fig-4 columns (``topology.seed=None``: each run
#: samples its topology from its own seed).
COLUMN_SEEDS = (100_000, 100_001)

_BACKBONE = DefenseSpec(kind="backbone", rate=0.02)

#: The fig-4 scenario on the fast engine, one variant per deployment.
_TEMPLATE = RunSpec(
    topology=TopologySpec(num_nodes=1000),
    scan_rate=0.8,
    initial_infections=5,
    lan_delivery=True,
    max_ticks=400,
    engine="fast",
)
DEPLOYMENTS = {
    "none": _TEMPLATE,
    "hosts": dataclasses.replace(
        _TEMPLATE,
        defense=DefenseSpec(kind="hosts", rate=0.01, coverage=0.05, seed=42),
    ),
    "edge": dataclasses.replace(
        _TEMPLATE, defense=DefenseSpec(kind="edge", rate=0.02)
    ),
    "backbone": dataclasses.replace(_TEMPLATE, defense=_BACKBONE),
    # Fig 4's own quarantine never deploys here: with every scan hitting
    # a host, none goes dark, so its telescope sees nothing and the run
    # repeats "none".  Half the scans miss in this variant, and the
    # backbone filter goes up mid-epidemic (tick 28-31 on both seeds)
    # over a few hundred packets already waiting on its links.
    "quarantine": dataclasses.replace(
        _TEMPLATE,
        worm=WormSpec(hit_probability=0.5),
        quarantine=QuarantineSpec(
            response=_BACKBONE, telescope_coverage=1 / 64, reaction_delay=5
        ),
    ),
}


def ensembles() -> dict[str, EnsembleSpec]:
    """Every pinned ensemble, keyed by its fixture entry."""
    specs = {
        f"{label}@{seed}": EnsembleSpec(
            template=template, num_runs=1, base_seed=seed, label=label
        )
        for seed in COLUMN_SEEDS
        for label, template in DEPLOYMENTS.items()
    }
    # One shared topology, so the runner groups all four replicas.
    specs["backbone-batched-x4"] = EnsembleSpec(
        template=dataclasses.replace(
            DEPLOYMENTS["backbone"],
            topology=TopologySpec(num_nodes=1000, seed=100_000),
            engine="fast-batched",
        ),
        num_runs=4,
        base_seed=7,
        label="backbone-batched",
    )
    return specs


def digests() -> dict[str, str]:
    """sha256 of each ensemble's served bytes, run serially, uncached."""
    with use_config(RunnerConfig(jobs=1, cache_enabled=False)):
        return {
            name: hashlib.sha256(
                result_payload(run_ensemble(spec, use_cache=False))
            ).hexdigest()
            for name, spec in ensembles().items()
        }


def test_paper_scale_payload_bytes_are_pinned(request):
    fresh = digests()
    if request.config.getoption("--update-golden"):
        GOLDEN_PATH.write_text(
            json.dumps(fresh, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        pytest.skip("regenerated tests/golden/paper_scale.json")
    pinned = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(fresh) == sorted(pinned)
    changed = sorted(name for name in pinned if fresh[name] != pinned[name])
    assert not changed, (
        f"payload bytes changed for {changed}; if intended, regenerate "
        f"with 'pytest {__file__} --update-golden'"
    )
