"""Rate-limiting deployment strategies (who gets the filters).

Each deployer reads a :class:`~repro.simulator.network.Network` for one
of the paper's deployment cases and returns a :class:`DefensePlan`: which
links, forwarding nodes and hosts get a filter, and at what rate.  A
deployer installs nothing; the engines take the plan as input next to
the network and apply it to their own arrays.  Strategies:

* :func:`no_defense` — baseline.
* :func:`deploy_host_rate_limit` — filters on a fraction ``q`` of end
  hosts, throttling their *outgoing scans* (Sections 4 leaf / 5.1 host).
* :func:`deploy_hub_rate_limit` — star topology: per-link limit ``gamma``
  plus a node-level forwarding budget ``beta`` at the hub (Section 4).
* :func:`deploy_edge_rate_limit` — limits on every link incident to an
  edge router (Section 5.2).
* :func:`deploy_backbone_rate_limit` — limits on every link incident to a
  backbone router, each sized as ``base_rate x link_weight`` where the
  weight is proportional to routing-table occupancy (Section 5.3/5.4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from ..topology.graphs import TopologyError
from .network import Network

__all__ = [
    "DefensePlan",
    "filter_columns",
    "no_defense",
    "deploy_host_rate_limit",
    "deploy_hub_rate_limit",
    "deploy_edge_rate_limit",
    "deploy_backbone_rate_limit",
]

#: One filter: ``(key, rate, burst)``, a token bucket's configuration.
Filter = tuple[int, float, float]


def _filter(key: int, rate: float) -> Filter:
    """A filter of ``rate`` per tick with a fresh bucket's default burst."""
    rate = float(rate)
    return (key, rate, rate + 1.0)


@dataclass(frozen=True)
class DefensePlan:
    """One deployment as data: which filters go where, at what rate.

    Every filter is a ``(key, rate, burst)`` token-bucket configuration,
    each starting empty where it is applied.
    """

    #: Label the run results report.
    name: str
    #: Rate-limited links, keyed by routing slot, ascending: the link
    #: order of :class:`~repro.simulator.routing.RoutingTables` and the
    #: engines' transport layout.
    links: tuple[Filter, ...] = ()
    #: Node forwarding budgets, keyed by node, ascending.
    budgets: tuple[Filter, ...] = ()
    #: Host scan throttles, keyed by node, ascending.
    throttles: tuple[Filter, ...] = ()

    @property
    def limited_links(self) -> int:
        """Directed links the plan rate-limits."""
        return len(self.links)

    @property
    def throttled_hosts(self) -> int:
        """Hosts whose outgoing scans the plan throttles."""
        return len(self.throttles)


def filter_columns(
    filters: tuple[Filter, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Filters as the engines index them: keys, rates and bursts."""
    keys = np.array([key for key, _, _ in filters], dtype=np.int64)
    rates = np.array([rate for _, rate, _ in filters], dtype=float)
    bursts = np.array([burst for _, _, burst in filters], dtype=float)
    return keys, rates, bursts


def no_defense(network: Network) -> DefensePlan:
    """Baseline: no filters anywhere."""
    return DefensePlan(name="no_rl")


def deploy_host_rate_limit(
    network: Network,
    fraction: float,
    rate: float,
    *,
    seed: int | None = None,
) -> DefensePlan:
    """Throttle the outgoing scans of a random ``fraction`` of hosts.

    The filtered hosts' worm scans are capped at ``rate`` per tick (a
    token bucket), matching the ``beta2`` of the analytical model; their
    inbound traffic and transit traffic are untouched, exactly like a
    host-resident filter.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    rng = random.Random(seed)
    population = list(network.infectable)
    count = round(fraction * len(population))
    chosen = rng.sample(population, count) if count else []
    return DefensePlan(
        name=f"host_rl_{int(round(fraction * 100))}pct",
        throttles=tuple(_filter(node, rate) for node in sorted(chosen)),
    )


def _link_plan(
    network: Network,
    name: str,
    pairs,
    base_rate: float,
    weighted: bool,
    budgets: tuple[Filter, ...] = (),
) -> DefensePlan:
    """Rate-limit the directed links ``(u, v)`` in ``pairs``.

    When ``weighted`` is true each direction's capacity is
    ``base_rate * link_weight`` — the paper's scheme: "compute a link
    weight that is proportional to the number of routing table entries the
    link occupies [and] multiply this weight to the base rate", so the
    most utilized links get the highest throughput and normal traffic is
    mostly unharmed.  A small floor of ``0.1 * base_rate`` keeps barely
    used links usable.  A link listed twice is limited once.
    """
    if base_rate <= 0:
        raise ValueError(f"base_rate must be positive, got {base_rate}")
    routing = network.routing
    # A neighbor's shortest path is the direct link, so u's next link
    # toward v is the slot of u→v.
    rows = routing.link_rows
    limits: dict[int, float] = {}
    for u, v in pairs:
        slot = rows[v][u]
        if slot in limits:
            continue
        if weighted:
            weight = routing.link_weight(u, v)
            limits[slot] = max(base_rate * weight, 0.1 * base_rate)
        else:
            limits[slot] = base_rate
    return DefensePlan(
        name=name,
        links=tuple(_filter(slot, limits[slot]) for slot in sorted(limits)),
        budgets=budgets,
    )


def _both_ways(router: int, neighbors):
    """Both directions of the links from ``router`` to ``neighbors``."""
    for neighbor in neighbors:
        yield router, neighbor
        yield neighbor, router


def deploy_hub_rate_limit(
    network: Network,
    *,
    link_rate: float,
    hub_budget: float,
) -> DefensePlan:
    """Star-topology hub filters: per-link ``gamma`` + node budget ``beta``.

    Mirrors the paper's star simulation ("we limited the links to 10
    packets per second with the hub rate limit beta = 0.01"): every link
    through the hub gets capacity ``link_rate``, and the hub's combined
    forwarding is capped at ``hub_budget`` packets per tick.
    """
    if link_rate <= 0 or hub_budget <= 0:
        raise ValueError(
            f"rates must be positive (link_rate={link_rate}, "
            f"hub_budget={hub_budget})"
        )
    if not network.roles.edge_routers:
        raise TopologyError("hub rate limiting needs a hub (edge router)")
    hub = network.roles.edge_routers[0]
    return _link_plan(
        network,
        "hub_rl",
        _both_ways(hub, network.topology.neighbors(hub)),
        link_rate,
        False,
        budgets=(_filter(hub, hub_budget),),
    )


def deploy_edge_rate_limit(
    network: Network,
    base_rate: float,
    *,
    weighted: bool = True,
) -> DefensePlan:
    """Rate-limit edge routers' subnet-boundary links (Section 5.2).

    An edge-router filter polices traffic *entering or leaving* the
    subnet; it never sees intra-subnet traffic.  So only links from an
    edge router to neighbors outside its own subnet are limited — which
    is exactly why the paper finds edge filters nearly useless against
    local-preferential worms: the intra-subnet spread bypasses them.
    """
    if not network.roles.edge_routers:
        raise TopologyError("network has no edge routers to deploy on")
    subnets = network.subnets
    pairs = []
    for router in network.roles.edge_routers:
        neighbors = network.topology.neighbors(router)
        if subnets is not None:
            # Intra-subnet links: the filter never sees them.
            own = subnets.subnet_of[router]
            neighbors = [n for n in neighbors if subnets.subnet_of[n] != own]
        pairs.extend(_both_ways(router, neighbors))
    return _link_plan(network, "edge_rl", pairs, base_rate, weighted)


def deploy_backbone_rate_limit(
    network: Network,
    base_rate: float,
    *,
    weighted: bool = True,
) -> DefensePlan:
    """Rate-limit all links incident to backbone routers (Section 5.3)."""
    if not network.roles.backbone:
        raise TopologyError("network has no backbone routers to deploy on")
    pairs = []
    for router in network.roles.backbone:
        pairs.extend(_both_ways(router, network.topology.neighbors(router)))
    return _link_plan(network, "backbone_rl", pairs, base_rate, weighted)
