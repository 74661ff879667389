"""Hypothesis fuzzing of the transport/routing invariants both engines share.

Three families of properties:

* **rate-limit budgets** — a token bucket (and therefore a rate-limited
  link, on either engine) can never forward more than its refill budget,
  and its token level never goes meaningfully negative;
* **routing** — every next-hop chain terminates at its destination in
  exactly the BFS hop count, and the next-link table the vectorized
  transport gathers from agrees with the scalar ``next_hop`` on every
  (destination, node) pair;
* **engine agreement** — on randomly drawn small scenarios the mirror
  engine replays the reference oracle (``tests/oracle.py``)
  bit-for-bit, ``execute_run`` of a random :class:`RunSpec` over every
  field equals the oracle's run of it, and both engines keep
  host-throttle tokens non-negative throughout the run;
* **determinism** — a random :class:`EnsembleSpec` on any engine,
  run twice in-process without the cache, serves the same payload
  bytes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import InstrumentationOptions
from repro.runner.api import run_ensemble
from repro.runner.build import BATCH_MIN_HOSTS, execute_run
from repro.runner.spec import (
    BATCH_WORM_KINDS,
    DEFENSE_KINDS,
    ENGINE_KINDS,
    OBSERVE_MODES,
    WORM_KINDS,
    DefenseSpec,
    EnsembleSpec,
    QuarantineSpec,
    RunSpec,
    TopologySpec,
    WormSpec,
)
from repro.service.protocol import (
    canonical_json,
    encode_run_result,
    result_payload,
)
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
from repro.simulator.worms import (
    LocalPreferentialWorm,
    RandomScanWorm,
    SequentialScanWorm,
)
from repro.topology.powerlaw import barabasi_albert

from ..oracle import WormSimulation, count_states, result_state, run_oracle
from .test_routing_differential import parent_matrix

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
        # Batch sampling: a width-1 vector group.
        (VectorReplicaSimulation, {"seeds": [seed]}),
    ):
        network = Network.from_powerlaw(80, seed=3)
        plan = deploy_backbone_rate_limit(network, rate)
        simulation = engine_cls(
            network,
            RandomScanWorm(),
            scan_rate=1.5,
            initial_infections=2,
            defense=plan,
            **kwargs,
        )
        links: dict = {}
        if engine_cls is VectorReplicaSimulation:
            simulation.run(
                ticks,
                lambda _replica, state: links.update(
                    result_state(network, state)["links"]
                ),
            )
        else:
            simulation.run(ticks)
            links = (
                result_state(network, simulation)
                if engine_cls is FastWormSimulation
                else result_state(simulation.network)
            )["links"]
        src = network.routing.link_src
        dst = network.routing.link_dst
        for slot, link_rate, burst in plan.links:
            key = (int(src[slot]), int(dst[slot]))
            budget = link_rate * ticks + burst
            assert links[key][0] <= budget + TOKEN_EPSILON, (
                engine_cls.__name__,
                kwargs,
                key,
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
    matrix = parent_matrix(tables)
    for destination in range(num_nodes):
        rows = tables.link_rows[destination]
        for node in range(num_nodes):
            slot = tables.next_link[destination, node]
            assert rows[node] == slot
            if node == destination:
                assert slot == -1
                continue
            assert tables.link_src[slot] == node
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
    plan = None
    if scenario["defense"] == "host":
        plan = deploy_host_rate_limit(network, 0.3, 0.5, seed=scenario["seed"])
    elif scenario["defense"] == "edge":
        plan = deploy_edge_rate_limit(network, 1.0)
    elif scenario["defense"] == "backbone":
        plan = deploy_backbone_rate_limit(network, 1.0)
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
        defense=plan,
        seed=scenario["seed"],
        **kwargs,
    )
    return simulation.network, simulation


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
    hosts_f = sim_f.hosts
    assert count_states(net_r) == (
        hosts_f.susceptible, hosts_f.infected, hosts_f.immune
    )
    assert result_state(net_r)["stats"] == result_state(net_f, sim_f)["stats"]


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    rate=st.floats(min_value=0.1, max_value=2.0),
)
@settings(max_examples=10, deadline=None)
def test_host_throttle_tokens_never_negative(seed, rate):
    """Both engines keep every host throttle's token level >= ~0."""
    # Reference engine: buckets live on the host objects.
    network = Network.from_powerlaw(80, seed=3)
    sim_r = WormSimulation(
        network, RandomScanWorm(), scan_rate=1.5,
        initial_infections=2, seed=seed,
        defense=deploy_host_rate_limit(network, 0.5, rate, seed=seed),
    )

    def audit_reference(tick: int) -> bool:
        for host in sim_r.network.hosts.values():
            if host.scan_throttle is not None:
                assert host.scan_throttle.tokens >= -TOKEN_EPSILON
        return False

    sim_r._sim.add_stop_condition(audit_reference)
    sim_r.run(40)

    # Fast engine: tokens live in HostArrays.throttle_tokens.
    network_f = Network.from_powerlaw(80, seed=3)
    sim_f = FastWormSimulation(
        network_f, RandomScanWorm(), scan_rate=1.5,
        initial_infections=2, seed=seed,
        defense=deploy_host_rate_limit(network_f, 0.5, rate, seed=seed),
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
    for node, host in sim_r.network.hosts.items():
        if host.scan_throttle is None:
            continue
        position = sim_f.hosts.throttle_pos[node]
        assert abs(
            host.scan_throttle.tokens
            - sim_f.hosts.throttle_tokens[position]
        ) <= TOKEN_EPSILON


# ----------------------------------------------------------------------
# execute_run against the oracle, over every RunSpec field
# ----------------------------------------------------------------------

@st.composite
def defense_specs(draw, kinds):
    """A valid deployment of one of ``kinds``."""
    kind = draw(st.sampled_from(kinds))
    if kind == "none":
        return DefenseSpec()
    return DefenseSpec(
        kind=kind,
        rate=draw(st.floats(min_value=0.005, max_value=3.0)),
        coverage=draw(st.floats(min_value=0.0, max_value=1.0)),
        node_budget=(
            draw(st.floats(min_value=0.05, max_value=5.0))
            if kind == "hub"
            else None
        ),
        weighted=draw(st.booleans()),
        seed=draw(st.integers(0, 1000)) if kind == "hosts" else None,
    )


@st.composite
def exact_run_specs(draw, engines=("reference", "fast")):
    """A random RunSpec below BATCH_MIN_HOSTS hosts.

    Every field is drawn: topology (star or power-law, every shape
    knob, pinned or per-run), worm, defense, scan rate, seeds,
    immunization, quarantine, LAN delivery, horizon, observable, and
    an engine label from ``engines``; the default two take the exact
    path at this size.  A ``"fast-batched"`` spec draws a worm with a
    batch kernel.
    """
    engine = draw(st.sampled_from(engines))
    if draw(st.booleans()):
        topology = TopologySpec(
            kind="star", num_nodes=draw(st.integers(8, 150))
        )
        defense_kinds = ("none", "hosts", "hub")
    else:
        topology = TopologySpec(
            num_nodes=draw(st.integers(40, 250)),
            edges_per_node=draw(st.integers(1, 3)),
            backbone_fraction=draw(st.sampled_from((0.05, 0.1))),
            edge_fraction=draw(st.sampled_from((0.1, 0.2))),
            infect_routers=draw(st.booleans()),
            seed=draw(st.one_of(st.none(), st.integers(0, 50))),
        )
        defense_kinds = DEFENSE_KINDS
    immunization = draw(
        st.one_of(
            st.none(),
            st.builds(
                ImmunizationPolicy,
                mu=st.floats(min_value=0.0, max_value=1.0),
                start_tick=st.integers(0, 30),
                patch_infected=st.booleans(),
            ),
            st.builds(
                ImmunizationPolicy,
                mu=st.floats(min_value=0.0, max_value=1.0),
                start_fraction=st.floats(min_value=0.05, max_value=0.9),
                patch_infected=st.booleans(),
            ),
        )
    )
    quarantine = None
    if draw(st.booleans()):
        quarantine = QuarantineSpec(
            response=draw(
                defense_specs([k for k in defense_kinds if k != "none"])
            ),
            telescope_coverage=draw(
                st.floats(min_value=0.01, max_value=1.0)
            ),
            detector_scans_per_infected=draw(
                st.floats(min_value=0.5, max_value=3.0)
            ),
            reaction_delay=draw(st.integers(0, 5)),
        )
    return RunSpec(
        topology=topology,
        worm=WormSpec(
            kind=draw(st.sampled_from(
                BATCH_WORM_KINDS if engine == "fast-batched" else WORM_KINDS
            )),
            local_preference=draw(st.floats(min_value=0.0, max_value=1.0)),
            hit_probability=draw(st.floats(min_value=0.05, max_value=1.0)),
            radius=draw(st.integers(1, 3)),
            exploration=draw(st.floats(min_value=0.0, max_value=0.5)),
        ),
        defense=draw(defense_specs(defense_kinds)),
        scan_rate=draw(st.floats(min_value=0.2, max_value=3.0)),
        initial_infections=draw(st.integers(1, 5)),
        immunization=immunization,
        quarantine=quarantine,
        lan_delivery=draw(st.booleans()),
        max_ticks=draw(st.integers(2, 60)),
        seed=draw(st.integers(0, 10**6)),
        observe=draw(st.sampled_from(OBSERVE_MODES)),
        engine=engine,
    )


def _outcome(run, spec, options):
    """A run's served bytes and trace, or the error it raised."""
    try:
        result = run(spec, options)
    except Exception as exc:  # both sides must fail alike
        return ("error", type(exc).__name__, str(exc))
    return canonical_json(encode_run_result(result)), result.trace


@given(
    spec=exact_run_specs(),
    options=st.sampled_from(
        (
            None,
            InstrumentationOptions(profile=True),
            InstrumentationOptions(trace=True),
            InstrumentationOptions(profile=True, trace=True),
        )
    ),
)
@settings(max_examples=150, deadline=None)
def test_execute_run_matches_the_oracle_on_random_specs(spec, options):
    """Metrics (minus wall-clock fields), curves and traces all agree."""
    assert spec.topology.num_nodes < BATCH_MIN_HOSTS
    assert _outcome(execute_run, spec, options) == _outcome(
        run_oracle, spec, options
    )


# ----------------------------------------------------------------------
# A spec determines its payload
# ----------------------------------------------------------------------

@st.composite
def ensemble_specs(draw):
    """A random EnsembleSpec on any engine, below BATCH_MIN_HOSTS hosts."""
    return EnsembleSpec(
        template=draw(exact_run_specs(ENGINE_KINDS)),
        num_runs=draw(st.integers(1, 3)),
        base_seed=draw(st.integers(0, 10**6)),
        label=draw(st.sampled_from(("experiment", "fuzz"))),
    )


def _served(spec):
    """The payload an ensemble serves, or the error it raised."""
    try:
        return result_payload(run_ensemble(spec, use_cache=False))
    except Exception as exc:  # both runs must fail alike
        return ("error", type(exc).__name__, str(exc))


@given(spec=ensemble_specs())
@settings(max_examples=100, deadline=None)
def test_an_ensemble_spec_determines_its_payload(spec):
    """Run twice in-process without the cache: the same bytes."""
    assert _served(spec) == _served(spec)
