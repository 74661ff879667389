"""Tests for rate-limit deployments as DefenseSpec describes them."""

from __future__ import annotations

import pytest

from repro.runner import DefenseSpec, SpecError


class TestRateLimitPolicy:
    def test_defaults(self):
        defense = DefenseSpec(kind="edge", rate=0.5)
        assert defense.weighted
        assert defense.node_budget is None


class TestDeploymentStrategy:
    def test_none_needs_no_policy(self):
        defense = DefenseSpec()
        assert defense.kind == "none"
        assert defense.rate is None
        assert defense.label == "no_rl"

    def test_other_locations_need_policy(self):
        for kind in ("hosts", "edge", "backbone", "hub"):
            with pytest.raises(SpecError, match="needs a rate"):
                DefenseSpec(kind=kind)

    def test_labels(self):
        assert (
            DefenseSpec(kind="hosts", rate=0.01, coverage=0.30).label
            == "host_rl_30pct"
        )
        assert (
            DefenseSpec(kind="hub", rate=10.0, node_budget=4.0).label
            == "hub_rl"
        )
        assert DefenseSpec(kind="edge", rate=0.02).label == "edge_rl"
        assert DefenseSpec(kind="backbone", rate=0.02).label == "backbone_rl"

    def test_hub_carries_node_budget(self):
        defense = DefenseSpec(kind="hub", rate=10.0, node_budget=4.0)
        assert defense.rate == 10.0
        assert defense.node_budget == 4.0
