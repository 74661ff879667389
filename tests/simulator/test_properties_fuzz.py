"""Hypothesis fuzzing of the transport/routing invariants both engines share.

Three families of properties:

* **rate-limit budgets** — a token bucket (and therefore a rate-limited
  link, on either engine) can never forward more than its refill budget,
  and its token level never goes meaningfully negative;
* **routing** — every next-hop chain terminates at its destination in
  exactly the BFS hop count, and the vectorized ``parent_matrix`` agrees
  with the scalar ``next_hop`` on every (destination, node) pair;
* **engine agreement** — on randomly drawn small scenarios the fast
  engine in mirror mode replays the reference bit-for-bit, and both
  engines keep host-throttle tokens non-negative throughout the run.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.defense import (
    deploy_backbone_rate_limit,
    deploy_edge_rate_limit,
    deploy_host_rate_limit,
)
from repro.simulator.fastpath import FastWormSimulation, VectorReplicaSimulation
from repro.simulator.immunization import ImmunizationPolicy
from repro.simulator.links import TokenBucket
from repro.simulator.network import Network
from repro.simulator.routing import RoutingTables
from repro.simulator.simulation import WormSimulation
from repro.simulator.worms import (
    LocalPreferentialWorm,
    RandomScanWorm,
    SequentialScanWorm,
)
from repro.topology.powerlaw import barabasi_albert

#: Tolerance for accumulated float error in token arithmetic; matches
#: the bucket's own consume epsilon scale.
TOKEN_EPSILON = 1e-9


# ----------------------------------------------------------------------
# Rate-limit budgets
# ----------------------------------------------------------------------

@given(
    rate=st.floats(min_value=0.05, max_value=20.0),
    burst=st.one_of(st.none(), st.floats(min_value=0.1, max_value=50.0)),
    demands=st.lists(
        st.integers(min_value=0, max_value=40), min_size=1, max_size=60
    ),
)
@settings(deadline=None)
def test_token_bucket_never_exceeds_budget(rate, burst, demands):
    """Total forwards <= total refill; tokens stay in [~0, burst]."""
    bucket = TokenBucket(rate, burst)
    forwarded = 0
    for tick, demand in enumerate(demands, start=1):
        bucket.refill()
        assert bucket.tokens <= bucket.burst + TOKEN_EPSILON
        granted = 0
        for _ in range(demand):
            if bucket.try_consume():
                granted += 1
            assert bucket.tokens >= -TOKEN_EPSILON
        # Per-tick bound: one tick can never grant more than a full
        # bucket's worth of packets.
        assert granted <= bucket.burst + TOKEN_EPSILON
        forwarded += granted
        # Cumulative bound: nothing is forwarded that was never refilled.
        assert forwarded <= rate * tick + TOKEN_EPSILON


@given(
    rate=st.floats(min_value=0.1, max_value=3.0),
    seed=st.integers(min_value=0, max_value=10_000),
    ticks=st.integers(min_value=10, max_value=60),
)
@settings(max_examples=15, deadline=None)
def test_limited_links_respect_budget_on_both_engines(rate, seed, ticks):
    """No rate-limited link forwards more than refill budget + burst."""
    for engine_cls, kwargs in (
        (WormSimulation, {"seed": seed}),
        (FastWormSimulation, {"seed": seed}),
        # Batch sampling: a width-1 vector group, written back in full.
        (VectorReplicaSimulation, {"seeds": [seed]}),
    ):
        network = Network.from_powerlaw(80, seed=3)
        deploy_backbone_rate_limit(network, rate)
        simulation = engine_cls(
            network,
            RandomScanWorm(),
            scan_rate=1.5,
            initial_infections=2,
            **kwargs,
        )
        if engine_cls is VectorReplicaSimulation:
            simulation.run(ticks, lambda _replica, _state: None)
        else:
            simulation.run(ticks)
        for link in network.links.values():
            if not link.is_rate_limited:
                continue
            budget = link.bucket.rate * ticks + link.bucket.burst
            assert link.stats.forwarded <= budget + TOKEN_EPSILON, (
                engine_cls.__name__,
                kwargs,
                (link.src, link.dst),
            )


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------

@given(
    num_nodes=st.integers(min_value=4, max_value=60),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=25, deadline=None)
def test_next_hop_chains_terminate_in_bfs_distance(num_nodes, seed):
    topology = barabasi_albert(num_nodes, 2, seed=seed)
    tables = RoutingTables(topology)
    # BFS distances from node 0 as the independent oracle.
    distance = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for node in frontier:
            for neighbor in topology.neighbors(node):
                if neighbor not in distance:
                    distance[neighbor] = distance[node] + 1
                    nxt.append(neighbor)
        frontier = nxt
    for src in range(num_nodes):
        hops = 0
        node = src
        while node != 0:
            node = tables.next_hop(node, 0)
            hops += 1
            assert hops <= num_nodes, "routing loop"
        assert hops == distance[src]


@given(
    num_nodes=st.integers(min_value=4, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=20, deadline=None)
def test_parent_matrix_agrees_with_scalar_next_hop(num_nodes, seed):
    topology = barabasi_albert(num_nodes, 2, seed=seed)
    tables = RoutingTables(topology)
    matrix = tables.parent_matrix
    for destination in range(num_nodes):
        row = np.asarray(tables.next_hop_table(destination))
        np.testing.assert_array_equal(matrix[destination], row)
        for node in range(num_nodes):
            if node == destination:
                continue
            assert matrix[destination, node] == tables.next_hop(
                node, destination
            )


# ----------------------------------------------------------------------
# Engine agreement on random scenarios
# ----------------------------------------------------------------------

@st.composite
def engine_scenarios(draw):
    """A random but valid small scenario both engines can run."""
    return {
        "seed": draw(st.integers(min_value=0, max_value=10_000)),
        "worm": draw(st.sampled_from(["random", "local", "sequential"])),
        "defense": draw(st.sampled_from(["none", "host", "edge", "backbone"])),
        "immunize": draw(st.booleans()),
        "lan": draw(st.booleans()),
        "scan_rate": draw(st.floats(min_value=0.3, max_value=2.0)),
    }


def _build_simulation(engine_cls, scenario, **kwargs):
    network = Network.from_powerlaw(90, seed=scenario["seed"] % 5)
    if scenario["defense"] == "host":
        deploy_host_rate_limit(network, 0.3, 0.5, seed=scenario["seed"])
    elif scenario["defense"] == "edge":
        deploy_edge_rate_limit(network, 1.0)
    elif scenario["defense"] == "backbone":
        deploy_backbone_rate_limit(network, 1.0)
    worm = {
        "random": RandomScanWorm,
        "local": lambda: LocalPreferentialWorm(0.8),
        "sequential": SequentialScanWorm,
    }[scenario["worm"]]()
    policy = (
        ImmunizationPolicy.at_fraction(0.3, 0.15)
        if scenario["immunize"]
        else None
    )
    simulation = engine_cls(
        network,
        worm,
        scan_rate=scenario["scan_rate"],
        initial_infections=2,
        immunization=policy,
        lan_delivery=scenario["lan"],
        seed=scenario["seed"],
        **kwargs,
    )
    return network, simulation


@given(scenario=engine_scenarios())
@settings(max_examples=12, deadline=None)
def test_mirror_mode_is_bit_identical_on_random_scenarios(scenario):
    net_r, sim_r = _build_simulation(WormSimulation, scenario)
    net_f, sim_f = _build_simulation(
        FastWormSimulation, scenario
    )
    traj_r = sim_r.run(50)
    traj_f = sim_f.run(50)
    np.testing.assert_array_equal(traj_r.infected, traj_f.infected)
    np.testing.assert_array_equal(traj_r.ever_infected, traj_f.ever_infected)
    assert net_r.count_states() == net_f.count_states()
    assert net_r.stats.packets_injected == net_f.stats.packets_injected
    assert net_r.stats.packets_delivered == net_f.stats.packets_delivered
    assert net_r.stats.packets_dropped == net_f.stats.packets_dropped


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    rate=st.floats(min_value=0.1, max_value=2.0),
)
@settings(max_examples=10, deadline=None)
def test_host_throttle_tokens_never_negative(seed, rate):
    """Both engines keep every host throttle's token level >= ~0."""
    # Reference engine: buckets live on the host objects.
    network = Network.from_powerlaw(80, seed=3)
    deploy_host_rate_limit(network, 0.5, rate, seed=seed)
    sim_r = WormSimulation(
        network, RandomScanWorm(), scan_rate=1.5,
        initial_infections=2, seed=seed,
    )

    def audit_reference(tick: int) -> bool:
        for host in network.hosts.values():
            if host.scan_throttle is not None:
                assert host.scan_throttle.tokens >= -TOKEN_EPSILON
        return False

    sim_r._sim.add_stop_condition(audit_reference)
    sim_r.run(40)

    # Fast engine: tokens live in HostArrays.throttle_tokens.
    network_f = Network.from_powerlaw(80, seed=3)
    deploy_host_rate_limit(network_f, 0.5, rate, seed=seed)
    sim_f = FastWormSimulation(
        network_f, RandomScanWorm(), scan_rate=1.5,
        initial_infections=2, seed=seed,
    )

    def audit_fast(tick: int) -> bool:
        tokens = sim_f.hosts.throttle_tokens
        if tokens.size:
            assert tokens.min() >= -TOKEN_EPSILON
        return False

    sim_f._sim.add_stop_condition(audit_fast)
    sim_f.run(40)

    # Same deployment, same seed: the two engines' final token vectors
    # must agree bucket for bucket.
    for node, host in network.hosts.items():
        if host.scan_throttle is None:
            continue
        position = sim_f.hosts.throttle_pos[node]
        assert abs(
            host.scan_throttle.tokens
            - sim_f.hosts.throttle_tokens[position]
        ) <= TOKEN_EPSILON
