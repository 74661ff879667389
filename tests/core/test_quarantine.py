"""Tests for the QuarantineStudy front door."""

from __future__ import annotations

import pytest

from repro.core.quarantine import QuarantineStudy
from repro.models.backbone import BackboneRateLimitModel
from repro.models.homogeneous import HomogeneousSIModel
from repro.models.hub import HubRateLimitModel
from repro.models.leaf import LeafRateLimitModel
from repro.runner import DefenseSpec, build_network, build_worm
from repro.runner.cache import spec_digest


@pytest.fixture()
def study() -> QuarantineStudy:
    return QuarantineStudy(
        num_nodes=120, scan_rate=0.8, initial_infections=3, seed=11
    )


class TestConstruction:
    def test_rejects_unknown_topology(self):
        with pytest.raises(ValueError, match="topology"):
            QuarantineStudy(100, topology="torus")

    def test_network_factory_matches_topology(self, study):
        network = build_network(study.topology_spec(), run_seed=1)
        assert network.topology.num_nodes == 120
        star_study = QuarantineStudy(50, topology="star")
        star = build_network(star_study.topology_spec(), run_seed=1)
        assert star.roles.edge_routers == (0,)

    def test_worm_factory(self, study):
        assert build_worm(study.worm_spec()).name == "random"
        local = QuarantineStudy(100, local_preference=0.8)
        assert build_worm(local.worm_spec()).name == "local_preferential"


class TestSimulation:
    def test_simulate_deployments_returns_labeled_curves(self, study):
        curves = study.simulate_deployments(
            [
                DefenseSpec(kind="none"),
                DefenseSpec(kind="backbone", rate=0.02),
            ],
            max_ticks=150,
            num_runs=2,
        )
        assert set(curves) == {"no_rl", "backbone_rl"}
        report = study.slowdown_report(curves, level=0.5)
        assert report.factors["backbone_rl"] > 1.2

    def test_host_strategy_threads_through(self, study):
        curves = study.simulate_deployments(
            [
                DefenseSpec(kind="none"),
                DefenseSpec(kind="hosts", coverage=0.05, rate=0.01),
            ],
            max_ticks=80,
            num_runs=2,
        )
        # 5% host coverage: minor slowdown (small-network seed effects
        # make this noisier than at the paper's 1,000-node scale, where
        # the benchmark asserts the tight band).
        report = study.slowdown_report(curves, level=0.5)
        assert report.factors["host_rl_5pct"] < 2.5

    def test_spec_for_carries_parameters(self, study):
        spec = study.spec_for(DefenseSpec(kind="none"), max_ticks=42, num_runs=3)
        assert spec.max_ticks == 42
        assert spec.num_runs == 3
        assert spec.scan_rate == 0.8
        assert spec.label == "no_rl"

    def test_host_deployment_takes_the_study_seed(self, study):
        hosts = DefenseSpec(kind="hosts", coverage=0.05, rate=0.01)
        assert study.spec_for(hosts).template.defense.seed == study.seed
        pinned = DefenseSpec(kind="hosts", coverage=0.05, rate=0.01, seed=3)
        assert study.spec_for(pinned).template.defense.seed == 3


#: ``spec_digest`` of run 0 of ``QuarantineStudy(seed=7).spec_for(d)``:
#: the cache keys every stored study result is filed under.
PINNED_DIGESTS = {
    "none": (
        DefenseSpec(kind="none"),
        "4d2b13f5936539825ba83302522249e2c8d0db583fd1ff469eed5c478d8e3bf5",
    ),
    "hosts": (
        DefenseSpec(kind="hosts", coverage=0.05, rate=0.01),
        "cf3f2c64aef2ab7db19765b9074be2be15d8a7462a4c39025d0cbccd18c68184",
    ),
    "hub": (
        DefenseSpec(kind="hub", rate=10, node_budget=4),
        "48c35d9f100bf706de45d21b6914000300cef24f0e8c2617516e13139664d213",
    ),
    "edge": (
        DefenseSpec(kind="edge", rate=0.02),
        "37f63cf67c1bc93721d7eec4db4478ff53435dfb0633eba04c351ce43f1ad776",
    ),
    "backbone": (
        DefenseSpec(kind="backbone", rate=0.02),
        "15bb8986a916653639806d323701226a6992299b79ffb73474ec9c7e03736bd3",
    ),
    "backbone_unweighted": (
        DefenseSpec(kind="backbone", rate=0.02, weighted=False),
        "a957d9e420fd4091b572de269341d6f58413b9c6b78b5c6d4e1eccf71827f29d",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_study_cache_keys_are_pinned(name):
    """A study's run specs, and so its cache keys, never drift."""
    defense, digest = PINNED_DIGESTS[name]
    run = QuarantineStudy(seed=7).spec_for(defense).expand()[0]
    assert spec_digest(run) == digest


class TestAnalyticalMapping:
    def test_none_maps_to_homogeneous(self, study):
        model = study.analytical_model(DefenseSpec(kind="none"))
        assert isinstance(model, HomogeneousSIModel)

    def test_hosts_map_to_leaf_model(self, study):
        model = study.analytical_model(
            DefenseSpec(kind="hosts", coverage=0.3, rate=0.01)
        )
        assert isinstance(model, LeafRateLimitModel)
        assert model.deployed_fraction == 0.3

    def test_hub_maps_to_hub_model(self, study):
        model = study.analytical_model(
            DefenseSpec(kind="hub", rate=10.0, node_budget=4.0)
        )
        assert isinstance(model, HubRateLimitModel)
        assert model.hub_rate == 4.0

    def test_backbone_maps_to_backbone_model(self, study):
        model = study.analytical_model(DefenseSpec(kind="backbone", rate=0.02))
        assert isinstance(model, BackboneRateLimitModel)

    def test_edge_has_no_single_curve_model(self, study):
        with pytest.raises(ValueError, match="two-level"):
            study.analytical_model(DefenseSpec(kind="edge", rate=0.02))
