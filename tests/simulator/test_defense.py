"""Tests for rate-limiting deployment strategies."""

from __future__ import annotations

import pytest

from repro.simulator.defense import (
    deploy_backbone_rate_limit,
    deploy_edge_rate_limit,
    deploy_host_rate_limit,
    deploy_hub_rate_limit,
    no_defense,
)
from repro.simulator.network import Network
from repro.topology.subnets import NO_SUBNET

from ..oracle import rate_limited_links


class TestNoDefense:
    def test_leaves_network_untouched(self, small_network):
        descriptor = no_defense(small_network)
        assert descriptor.name == "no_rl"
        assert rate_limited_links(small_network) == []


class TestHostRateLimit:
    def test_throttles_requested_fraction(self, small_network):
        descriptor = deploy_host_rate_limit(small_network, 0.3, 0.01, seed=1)
        throttled = [
            n
            for n in small_network.infectable
            if small_network.host(n).scan_throttle is not None
        ]
        assert len(throttled) == round(0.3 * small_network.num_infectable)
        assert descriptor.throttled_hosts == len(throttled)
        assert descriptor.name == "host_rl_30pct"

    def test_no_links_touched(self, small_network):
        deploy_host_rate_limit(small_network, 0.5, 0.01, seed=1)
        assert rate_limited_links(small_network) == []

    def test_deterministic_selection(self):
        a = Network.from_powerlaw(120, seed=7)
        b = Network.from_powerlaw(120, seed=7)
        deploy_host_rate_limit(a, 0.2, 0.01, seed=9)
        deploy_host_rate_limit(b, 0.2, 0.01, seed=9)
        throttled = lambda net: [  # noqa: E731
            n for n in net.infectable if net.host(n).scan_throttle is not None
        ]
        assert throttled(a) == throttled(b)

    def test_zero_fraction(self, small_network):
        descriptor = deploy_host_rate_limit(small_network, 0.0, 0.01)
        assert descriptor.throttled_hosts == 0

    def test_validation(self, small_network):
        with pytest.raises(ValueError):
            deploy_host_rate_limit(small_network, 1.5, 0.01)
        with pytest.raises(ValueError):
            deploy_host_rate_limit(small_network, 0.5, 0.0)


class TestHubRateLimit:
    def test_limits_all_hub_links_and_budget(self, star_network):
        descriptor = deploy_hub_rate_limit(
            star_network, link_rate=10.0, hub_budget=2.0
        )
        assert descriptor.limited_links == 2 * 49
        assert 0 in star_network.forward_budgets
        for leaf in star_network.infectable:
            assert star_network.link(0, leaf).rate_limit == 10.0
            assert star_network.link(leaf, 0).rate_limit == 10.0

    def test_validation(self, star_network):
        with pytest.raises(ValueError):
            deploy_hub_rate_limit(star_network, link_rate=0, hub_budget=1)


class TestEdgeRateLimit:
    def test_limits_only_boundary_links(self, small_network):
        deploy_edge_rate_limit(small_network, 0.5)
        subnets = small_network.subnets
        for link in rate_limited_links(small_network):
            u, v = link.src, link.dst
            roles = small_network.roles
            router = u if u in roles.edge_routers else v
            other = v if router == u else u
            assert router in roles.edge_routers
            # The other endpoint is never in the router's own subnet.
            assert (
                subnets.subnet_of[other] != subnets.subnet_of[router]
                or subnets.subnet_of[other] == NO_SUBNET
            )

    def test_intra_subnet_links_untouched(self, small_network):
        deploy_edge_rate_limit(small_network, 0.5)
        subnets = small_network.subnets
        for router in small_network.roles.edge_routers:
            own = subnets.subnet_of[router]
            for neighbor in small_network.topology.neighbors(router):
                if subnets.subnet_of[neighbor] == own:
                    assert not small_network.link(router, neighbor).is_rate_limited

    def test_weighted_rates_scale_with_occupancy(self, small_network):
        deploy_edge_rate_limit(small_network, 1.0, weighted=True)
        limited = rate_limited_links(small_network)
        rates = {link.rate_limit for link in limited}
        assert len(rates) > 1  # not all the same: weights differ

    def test_unweighted_rates_uniform(self, small_network):
        deploy_edge_rate_limit(small_network, 1.0, weighted=False)
        rates = {l.rate_limit for l in rate_limited_links(small_network)}
        assert rates == {1.0}


class TestBackboneRateLimit:
    def test_limits_all_backbone_incident_links(self, small_network):
        descriptor = deploy_backbone_rate_limit(small_network, 0.5)
        backbone = set(small_network.roles.backbone)
        count = 0
        for (u, v), link in small_network.links.items():
            if u in backbone or v in backbone:
                assert link.is_rate_limited
                count += 1
            else:
                assert not link.is_rate_limited
        assert descriptor.limited_links == count

    def test_high_coverage_of_host_paths(self, small_network):
        """Most host-to-host shortest paths cross a filtered link."""
        deploy_backbone_rate_limit(small_network, 0.5)
        backbone = set(small_network.roles.backbone)
        hosts = small_network.infectable
        covered = 0
        pairs = 0
        for i in range(0, len(hosts), 7):
            for j in range(1, len(hosts), 11):
                if hosts[i] == hosts[j]:
                    continue
                path = small_network.routing.path(hosts[i], hosts[j])
                pairs += 1
                if any(n in backbone for n in path):
                    covered += 1
        assert covered / pairs > 0.7

    def test_validation(self, small_network):
        with pytest.raises(ValueError):
            deploy_backbone_rate_limit(small_network, 0.0)
