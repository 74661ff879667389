"""Tests for the QuarantineStudy front door."""

from __future__ import annotations

import pytest

from repro.core.policy import DeploymentStrategy
from repro.core.quarantine import QuarantineStudy
from repro.models.backbone import BackboneRateLimitModel
from repro.models.homogeneous import HomogeneousSIModel
from repro.models.hub import HubRateLimitModel
from repro.models.leaf import LeafRateLimitModel
from repro.runner import build_network, build_worm


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
            [DeploymentStrategy.none(), DeploymentStrategy.backbone(0.02)],
            max_ticks=150,
            num_runs=2,
        )
        assert set(curves) == {"no_rl", "backbone_rl"}
        report = study.slowdown_report(curves, level=0.5)
        assert report.factors["backbone_rl"] > 1.2

    def test_host_strategy_threads_through(self, study):
        curves = study.simulate_deployments(
            [DeploymentStrategy.none(), DeploymentStrategy.hosts(0.05, 0.01)],
            max_ticks=80,
            num_runs=2,
        )
        # 5% host coverage: minor slowdown (small-network seed effects
        # make this noisier than at the paper's 1,000-node scale, where
        # the benchmark asserts the tight band).
        report = study.slowdown_report(curves, level=0.5)
        assert report.factors["host_rl_5pct"] < 2.5

    def test_spec_for_carries_parameters(self, study):
        spec = study.spec_for(
            DeploymentStrategy.none(), max_ticks=42, num_runs=3
        )
        assert spec.max_ticks == 42
        assert spec.num_runs == 3
        assert spec.scan_rate == 0.8
        assert spec.label == "no_rl"


class TestAnalyticalMapping:
    def test_none_maps_to_homogeneous(self, study):
        model = study.analytical_model(DeploymentStrategy.none())
        assert isinstance(model, HomogeneousSIModel)

    def test_hosts_map_to_leaf_model(self, study):
        model = study.analytical_model(DeploymentStrategy.hosts(0.3, 0.01))
        assert isinstance(model, LeafRateLimitModel)
        assert model.deployed_fraction == 0.3

    def test_hub_maps_to_hub_model(self, study):
        model = study.analytical_model(DeploymentStrategy.hub(10.0, 4.0))
        assert isinstance(model, HubRateLimitModel)
        assert model.hub_rate == 4.0

    def test_backbone_maps_to_backbone_model(self, study):
        model = study.analytical_model(DeploymentStrategy.backbone(0.02))
        assert isinstance(model, BackboneRateLimitModel)

    def test_edge_has_no_single_curve_model(self, study):
        with pytest.raises(ValueError, match="two-level"):
            study.analytical_model(DeploymentStrategy.edge(0.02))
