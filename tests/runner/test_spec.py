"""Tests for declarative run specifications and seed derivation."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.runner import (
    DefenseSpec,
    EnsembleSpec,
    QuarantineSpec,
    RunSpec,
    SpecError,
    TopologySpec,
    WormSpec,
    derive_seed,
)
from repro.runner.api import run_ensemble
from repro.service.protocol import result_payload
from repro.simulator.immunization import ImmunizationPolicy


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)

    def test_distinct_per_index(self):
        seeds = [derive_seed(42, i) for i in range(10)]
        assert len(set(seeds)) == 10

    def test_preserves_historical_protocol(self):
        # The repo's curves were generated with base_seed + i; the
        # centralized derivation must keep them bit-identical.
        assert [derive_seed(7, i) for i in range(4)] == [7, 8, 9, 10]

    def test_negative_index_rejected(self):
        with pytest.raises(SpecError):
            derive_seed(42, -1)


class TestEnsembleExpansion:
    def test_expand_assigns_derived_seeds(self):
        template = RunSpec(topology=TopologySpec(num_nodes=50))
        ensemble = EnsembleSpec(template=template, num_runs=4, base_seed=100)
        seeds = [run.seed for run in ensemble.expand()]
        assert seeds == [100, 101, 102, 103]

    def test_expand_ignores_template_seed(self):
        template = RunSpec(topology=TopologySpec(num_nodes=50), seed=999)
        ensemble = EnsembleSpec(template=template, num_runs=2, base_seed=5)
        assert [run.seed for run in ensemble.expand()] == [5, 6]

    def test_expanded_runs_share_everything_else(self):
        template = RunSpec(
            topology=TopologySpec(num_nodes=64),
            scan_rate=1.5,
            max_ticks=77,
        )
        ensemble = EnsembleSpec(template=template, num_runs=3)
        for run in ensemble.expand():
            assert dataclasses.replace(run, seed=template.seed) == template

    def test_convenience_properties(self):
        template = RunSpec(scan_rate=1.6, max_ticks=250)
        ensemble = EnsembleSpec(template=template, num_runs=2, label="x")
        assert ensemble.scan_rate == 1.6
        assert ensemble.max_ticks == 250
        assert ensemble.label == "x"

    def test_num_runs_validated(self):
        with pytest.raises(SpecError):
            EnsembleSpec(template=RunSpec(), num_runs=0)


class TestValidation:
    def test_unknown_topology_kind(self):
        with pytest.raises(SpecError):
            TopologySpec(kind="torus")

    def test_unknown_worm_kind(self):
        with pytest.raises(SpecError):
            WormSpec(kind="psychic")

    def test_defense_needs_rate(self):
        with pytest.raises(SpecError):
            DefenseSpec(kind="backbone")

    def test_hub_needs_budget(self):
        with pytest.raises(SpecError):
            DefenseSpec(kind="hub", rate=10.0)

    def test_defense_rejects_zero_rate(self):
        with pytest.raises(SpecError, match="rate must be positive"):
            DefenseSpec(kind="edge", rate=0.0)

    def test_defense_rejects_coverage_above_one(self):
        with pytest.raises(SpecError, match="coverage"):
            DefenseSpec(kind="hosts", rate=0.01, coverage=1.5)

    def test_defense_rejects_zero_node_budget(self):
        with pytest.raises(SpecError, match="node_budget must be positive"):
            DefenseSpec(kind="hub", rate=1.0, node_budget=0.0)

    def test_quarantine_response_must_deploy(self):
        with pytest.raises(SpecError):
            QuarantineSpec(response=DefenseSpec(kind="none"))

    def test_run_spec_rejects_bad_observe(self):
        with pytest.raises(SpecError):
            RunSpec(observe="everything")

    def test_run_spec_rejects_nonpositive_scan_rate(self):
        with pytest.raises(SpecError):
            RunSpec(scan_rate=0.0)

    def test_run_spec_engine_defaults_to_reference(self):
        assert RunSpec().engine == "reference"
        assert RunSpec(engine="fast").engine == "fast"

    def test_run_spec_rejects_unknown_engine(self):
        with pytest.raises(SpecError):
            RunSpec(engine="warp")

    @pytest.mark.parametrize("kind", ["topological", "sequential"])
    def test_fast_batched_rejects_worms_without_batch_kernel(self, kind):
        with pytest.raises(SpecError, match="fast-batched"):
            RunSpec(engine="fast-batched", worm=WormSpec(kind=kind))
        # The other engines run every worm.
        assert RunSpec(engine="fast", worm=WormSpec(kind=kind))

    def test_seedless_host_deployment_is_refused(self):
        """``DefenseSpec`` takes ``seed=None`` (a study fills it in), but
        a run spec refuses it: its hosts would come from OS entropy."""
        seedless = DefenseSpec(kind="hosts", rate=0.01, coverage=0.3)
        with pytest.raises(SpecError, match="defense: .*needs a seed"):
            RunSpec(defense=seedless)
        with pytest.raises(SpecError, match="quarantine.response: "):
            RunSpec(quarantine=QuarantineSpec(response=seedless))
        seeded = dataclasses.replace(seedless, seed=3)
        assert RunSpec(defense=seeded, quarantine=QuarantineSpec(seeded))


#: One deployment of every defense kind, plus a quarantine, for the
#: run-twice property below.
_EVERY_DEPLOYMENT = {
    "none": {},
    "hosts": {
        "defense": DefenseSpec(kind="hosts", rate=0.1, coverage=0.3, seed=5)
    },
    "hub": {
        "topology": TopologySpec(kind="star", num_nodes=60),
        "defense": DefenseSpec(kind="hub", rate=2.0, node_budget=1.0),
    },
    "edge": {"defense": DefenseSpec(kind="edge", rate=0.5)},
    "backbone": {"defense": DefenseSpec(kind="backbone", rate=0.5)},
    "quarantine": {
        "quarantine": QuarantineSpec(
            response=DefenseSpec(kind="hosts", rate=0.1, coverage=0.5, seed=9),
            telescope_coverage=0.25,
        )
    },
}


@pytest.mark.parametrize("engine", ["reference", "fast-batched"])
@pytest.mark.parametrize("name", list(_EVERY_DEPLOYMENT))
def test_a_spec_determines_its_payload(name, engine):
    """Run twice in-process without the cache: the same bytes."""
    fields = {
        "topology": TopologySpec(num_nodes=120, seed=11),
        **_EVERY_DEPLOYMENT[name],
    }
    spec = EnsembleSpec(
        template=RunSpec(
            scan_rate=1.5,
            initial_infections=2,
            max_ticks=40,
            engine=engine,
            **fields,
        ),
        num_runs=2,
        base_seed=21,
    )
    first, second = (
        result_payload(run_ensemble(spec, use_cache=False)) for _ in range(2)
    )
    assert first == second


class TestDefenseLabels:
    def test_defaults(self):
        defense = DefenseSpec()
        assert defense.kind == "none"
        assert defense.rate is None
        assert defense.coverage == 1.0
        assert defense.node_budget is None
        assert defense.weighted
        assert defense.seed is None

    def test_labels_match_policy_conventions(self):
        assert DefenseSpec(kind="none").label == "no_rl"
        assert (
            DefenseSpec(kind="hosts", rate=0.01, coverage=0.3).label
            == "host_rl_30pct"
        )
        assert DefenseSpec(kind="edge", rate=0.02).label == "edge_rl"
        assert DefenseSpec(kind="backbone", rate=0.02).label == "backbone_rl"
        assert (
            DefenseSpec(kind="hub", rate=10.0, node_budget=4.0).label
            == "hub_rl"
        )


def full_spec() -> RunSpec:
    """A spec exercising every optional field."""
    return RunSpec(
        topology=TopologySpec(num_nodes=100, seed=3),
        worm=WormSpec(kind="local_preferential", local_preference=0.9),
        defense=DefenseSpec(kind="hosts", rate=0.01, coverage=0.5, seed=42),
        scan_rate=1.2,
        initial_infections=5,
        immunization=ImmunizationPolicy.at_tick(30, 0.05),
        quarantine=QuarantineSpec(
            response=DefenseSpec(kind="backbone", rate=0.02),
            telescope_coverage=0.1,
            detector_scans_per_infected=0.8,
            reaction_delay=4,
        ),
        lan_delivery=True,
        max_ticks=60,
        seed=11,
        observe="seed_subnets",
    )


class TestSerialization:
    def test_round_trip_minimal(self):
        spec = RunSpec()
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_full(self):
        spec = full_spec()
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_survives_json(self):
        import json

        spec = full_spec()
        rebuilt = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_specs_pickle(self):
        # The parallel executor's contract: specs cross process
        # boundaries intact.
        spec = full_spec()
        assert pickle.loads(pickle.dumps(spec)) == spec
