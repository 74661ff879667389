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


class TestDefenseLabels:
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
