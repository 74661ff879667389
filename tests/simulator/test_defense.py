"""Tests for rate-limiting deployment strategies.

Every deployer returns a :class:`DefensePlan` and leaves the network as
built; the assertions below read the plan.
"""

from __future__ import annotations

import pytest

from repro.simulator.defense import (
    DefensePlan,
    deploy_backbone_rate_limit,
    deploy_edge_rate_limit,
    deploy_host_rate_limit,
    deploy_hub_rate_limit,
    no_defense,
)
from repro.simulator.network import Network
from repro.topology.subnets import NO_SUBNET

from ..oracle import as_built, link_keys
from ..test_engine_equivalence import _deploy_hub_budget_only


def limited(network: Network, plan: DefensePlan) -> dict:
    """The plan's link rates by ``(u, v)`` key."""
    src = network.routing.link_src
    dst = network.routing.link_dst
    return {
        (int(src[slot]), int(dst[slot])): rate for slot, rate, _ in plan.links
    }


#: Every deployer, on the kind of network it deploys on.
DEPLOYERS = {
    "none": ("powerlaw", no_defense),
    "hosts": (
        "powerlaw", lambda n: deploy_host_rate_limit(n, 0.3, 0.01, seed=1)
    ),
    "hub": (
        "star",
        lambda n: deploy_hub_rate_limit(n, link_rate=10.0, hub_budget=2.0),
    ),
    "edge": ("powerlaw", lambda n: deploy_edge_rate_limit(n, 0.5)),
    "edge-uniform": (
        "powerlaw", lambda n: deploy_edge_rate_limit(n, 0.5, weighted=False)
    ),
    "backbone": ("powerlaw", lambda n: deploy_backbone_rate_limit(n, 0.5)),
    "backbone-uniform": (
        "powerlaw",
        lambda n: deploy_backbone_rate_limit(n, 0.5, weighted=False),
    ),
    "hub-budget-only": ("star", _deploy_hub_budget_only),
}


def _build(kind: str) -> Network:
    if kind == "star":
        return Network.from_star(50)
    return Network.from_powerlaw(120, seed=7)


@pytest.mark.parametrize("name", list(DEPLOYERS))
def test_deployers_are_pure(name):
    """Equal plans from two calls, and the network stays as built."""
    kind, deploy = DEPLOYERS[name]
    network = _build(kind)
    built = as_built(network)
    first = deploy(network)
    second = deploy(network)
    assert first == second
    assert first.links == tuple(sorted(first.links))
    assert first.throttles == tuple(sorted(first.throttles))
    assert first.budgets == tuple(sorted(first.budgets))
    assert as_built(network) == built
    assert as_built(network) == as_built(_build(kind))


class TestNoDefense:
    def test_leaves_network_untouched(self, small_network):
        plan = no_defense(small_network)
        assert plan.name == "no_rl"
        assert plan == DefensePlan(name="no_rl")
        assert (plan.limited_links, plan.throttled_hosts) == (0, 0)


class TestHostRateLimit:
    def test_throttles_requested_fraction(self, small_network):
        plan = deploy_host_rate_limit(small_network, 0.3, 0.01, seed=1)
        throttled = [node for node, _, _ in plan.throttles]
        assert len(throttled) == round(0.3 * small_network.num_infectable)
        assert set(throttled) <= set(small_network.infectable)
        assert plan.throttled_hosts == len(throttled)
        assert {(rate, burst) for _, rate, burst in plan.throttles} == {
            (0.01, 1.01)
        }
        assert plan.name == "host_rl_30pct"

    def test_no_links_touched(self, small_network):
        plan = deploy_host_rate_limit(small_network, 0.5, 0.01, seed=1)
        assert plan.links == ()
        assert plan.budgets == ()

    def test_deterministic_selection(self):
        a = Network.from_powerlaw(120, seed=7)
        b = Network.from_powerlaw(120, seed=7)
        assert deploy_host_rate_limit(
            a, 0.2, 0.01, seed=9
        ) == deploy_host_rate_limit(b, 0.2, 0.01, seed=9)

    def test_zero_fraction(self, small_network):
        plan = deploy_host_rate_limit(small_network, 0.0, 0.01)
        assert plan.throttled_hosts == 0

    def test_validation(self, small_network):
        with pytest.raises(ValueError):
            deploy_host_rate_limit(small_network, 1.5, 0.01)
        with pytest.raises(ValueError):
            deploy_host_rate_limit(small_network, 0.5, 0.0)


class TestHubRateLimit:
    def test_limits_all_hub_links_and_budget(self, star_network):
        plan = deploy_hub_rate_limit(
            star_network, link_rate=10.0, hub_budget=2.0
        )
        assert plan.limited_links == 2 * 49
        assert plan.budgets == ((0, 2.0, 3.0),)
        rates = limited(star_network, plan)
        for leaf in star_network.infectable:
            assert rates[(0, leaf)] == 10.0
            assert rates[(leaf, 0)] == 10.0

    def test_validation(self, star_network):
        with pytest.raises(ValueError):
            deploy_hub_rate_limit(star_network, link_rate=0, hub_budget=1)


class TestEdgeRateLimit:
    def test_limits_only_boundary_links(self, small_network):
        plan = deploy_edge_rate_limit(small_network, 0.5)
        subnets = small_network.subnets
        assert plan.links
        for u, v in limited(small_network, plan):
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
        rates = limited(
            small_network, deploy_edge_rate_limit(small_network, 0.5)
        )
        subnets = small_network.subnets
        for router in small_network.roles.edge_routers:
            own = subnets.subnet_of[router]
            for neighbor in small_network.topology.neighbors(router):
                if subnets.subnet_of[neighbor] == own:
                    assert (router, neighbor) not in rates

    def test_weighted_rates_scale_with_occupancy(self, small_network):
        plan = deploy_edge_rate_limit(small_network, 1.0, weighted=True)
        rates = {rate for _, rate, _ in plan.links}
        assert len(rates) > 1  # not all the same: weights differ
        routing = small_network.routing
        for (u, v), rate in limited(small_network, plan).items():
            assert rate == max(routing.link_weight(u, v), 0.1)

    def test_unweighted_rates_uniform(self, small_network):
        plan = deploy_edge_rate_limit(small_network, 1.0, weighted=False)
        assert {(rate, burst) for _, rate, burst in plan.links} == {(1.0, 2.0)}


class TestBackboneRateLimit:
    def test_limits_all_backbone_incident_links(self, small_network):
        plan = deploy_backbone_rate_limit(small_network, 0.5)
        rates = limited(small_network, plan)
        backbone = set(small_network.roles.backbone)
        count = 0
        for u, v in link_keys(small_network):
            if u in backbone or v in backbone:
                assert (u, v) in rates
                count += 1
            else:
                assert (u, v) not in rates
        assert plan.limited_links == count

    def test_high_coverage_of_host_paths(self, small_network):
        """Most host-to-host shortest paths cross a filtered link."""
        rates = limited(
            small_network, deploy_backbone_rate_limit(small_network, 0.5)
        )
        hosts = small_network.infectable
        covered = 0
        pairs = 0
        for i in range(0, len(hosts), 7):
            for j in range(1, len(hosts), 11):
                if hosts[i] == hosts[j]:
                    continue
                path = small_network.routing.path(hosts[i], hosts[j])
                pairs += 1
                if any(hop in rates for hop in zip(path, path[1:])):
                    covered += 1
        assert covered / pairs > 0.7

    def test_validation(self, small_network):
        with pytest.raises(ValueError):
            deploy_backbone_rate_limit(small_network, 0.0)
