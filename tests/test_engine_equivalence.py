"""Differential tests: the fast engines against the reference oracle.

Three tiers of equivalence:

* **mirror** — the mirror engine draws from the run RNG in exactly the
  reference order, so every observable must be *bit-identical*:
  trajectories, compartment counts, network/link packet statistics,
  per-host infection stamps, instrumentation counters, and full trace
  records.  The scenario grid below crosses topologies, worms, defenses,
  immunization, LAN delivery, and dynamic quarantine.
* **batch** — the vector engine's batch sampling uses a different
  random stream, so equivalence with the reference is *statistical*:
  over an ensemble of seeds the epidemic law must match (final sizes
  within sampling tolerance), and per-run conservation invariants
  (injected = delivered + dropped + in-flight) must hold exactly at
  every tick.
* **replica grid** — every batch-sampled run, at width 1 and grouped,
  must reproduce ``tests/golden/replica_grid.json`` bit for bit: the
  pinned results of the solo batch engine the vector loop replaced.
"""

from __future__ import annotations

import dataclasses
import json
import math
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from repro.observability.instrumentation import (
    Instrumentation,
    InstrumentationOptions,
)
from repro.simulator import (
    DefenseDescriptor,
    DynamicQuarantine,
    FastWormSimulation,
    ImmunizationPolicy,
    LocalPreferentialWorm,
    Network,
    RandomScanWorm,
    SequentialScanWorm,
    Telescope,
    TopologicalWorm,
    WormSimulation,
    deploy_backbone_rate_limit,
    deploy_edge_rate_limit,
    deploy_host_rate_limit,
    deploy_hub_rate_limit,
)
from repro.runner import build as build_module
from repro.runner import executors as executors_module
from repro.runner.api import run_ensemble
from repro.runner.build import (
    BATCH_MIN_HOSTS,
    execute_replica_batch,
    execute_run,
)
from repro.runner.cache import ResultCache
from repro.runner.executors import Executor
from repro.runner.spec import (
    DefenseSpec,
    EnsembleSpec,
    QuarantineSpec,
    RunSpec,
    TopologySpec,
    WormSpec,
)
from repro.simulator.fastpath import VectorReplicaSimulation
from repro.simulator.fastpath.state import (
    IMMUNE,
    INFECTED,
    SUSCEPTIBLE,
)
from repro.simulator.nodes import HostState

GRID_PATH = Path(__file__).parent / "golden" / "replica_grid.json"


def _build_network(kind: str) -> Network:
    if kind == "star":
        return Network.from_star(60)
    return Network.from_powerlaw(120, seed=7)


def _run(engine_cls, scenario, *, trace=True):
    """Build the scenario fresh and run it on one engine."""
    network = _build_network(scenario["kind"])
    defense = scenario.get("defense")
    if defense is not None:
        defense(network)
    quarantine_factory = scenario.get("quarantine")
    instrumentation = (
        Instrumentation.from_options(InstrumentationOptions(trace=True))
        if trace
        else None
    )
    simulation = engine_cls(
        network,
        scenario["worm"](),
        scan_rate=scenario.get("scan_rate", 1.6),
        initial_infections=2,
        seed=scenario["seed"],
        lan_delivery=scenario.get("lan", False),
        immunization=scenario.get("immunization"),
        quarantine=quarantine_factory(network) if quarantine_factory else None,
        instrumentation=instrumentation,
    )
    trajectory = simulation.run(scenario.get("max_ticks", 80))
    return network, simulation, trajectory, instrumentation


def _run_width1(network, worm, max_ticks, *, seed, instrumentation=None,
                **kwargs):
    """One batch-sampled run: a width-1 vector group's trajectory."""
    batch = VectorReplicaSimulation(
        network,
        worm,
        seeds=[seed],
        instrumentation=[instrumentation] if instrumentation else None,
        **kwargs,
    )
    trajectories = []
    batch.run(
        max_ticks,
        lambda _replica, state: trajectories.append(state.trajectory()),
    )
    return trajectories[0]


#: The mirror-mode differential grid: topology x worm x defense x
#: immunization/quarantine/LAN.  Each entry must replay bit-identically.
MIRROR_SCENARIOS = {
    "star-none-random": {
        "kind": "star",
        "worm": lambda: RandomScanWorm(hit_probability=0.5),
        "seed": 11,
    },
    "star-hub-random": {
        "kind": "star",
        "worm": lambda: RandomScanWorm(hit_probability=0.5),
        "defense": lambda n: deploy_hub_rate_limit(
            n, link_rate=10.0, hub_budget=5.0
        ),
        "seed": 12,
    },
    "powerlaw-none-random": {
        "kind": "powerlaw",
        "worm": lambda: RandomScanWorm(hit_probability=0.5),
        "seed": 13,
    },
    "powerlaw-backbone-random": {
        "kind": "powerlaw",
        "worm": lambda: RandomScanWorm(hit_probability=0.5),
        "defense": lambda n: deploy_backbone_rate_limit(n, 2.0),
        "seed": 14,
    },
    "powerlaw-edge-localpref-lan": {
        "kind": "powerlaw",
        "worm": lambda: LocalPreferentialWorm(local_preference=0.7),
        "defense": lambda n: deploy_edge_rate_limit(n, 2.0),
        "lan": True,
        "seed": 15,
    },
    "powerlaw-hosts-sequential": {
        "kind": "powerlaw",
        "worm": lambda: SequentialScanWorm(hit_probability=0.5),
        "defense": lambda n: deploy_host_rate_limit(n, 0.5, 1.0, seed=99),
        "seed": 16,
    },
    "powerlaw-topological": {
        "kind": "powerlaw",
        "worm": TopologicalWorm,
        "seed": 17,
    },
    "powerlaw-immunization": {
        "kind": "powerlaw",
        "worm": lambda: RandomScanWorm(hit_probability=0.5),
        "immunization": ImmunizationPolicy.at_fraction(0.2, 0.05),
        "seed": 18,
    },
    "powerlaw-quarantine": {
        "kind": "powerlaw",
        "worm": lambda: RandomScanWorm(hit_probability=0.3),
        "quarantine": lambda net: DynamicQuarantine(
            response=lambda n: deploy_backbone_rate_limit(n, 1.0),
            telescope=Telescope(coverage=0.25),
            reaction_delay=3,
        ),
        "seed": 19,
    },
    "star-quarantine-immunization": {
        "kind": "star",
        "worm": lambda: RandomScanWorm(hit_probability=0.4),
        "immunization": ImmunizationPolicy.at_tick(30, 0.03),
        "quarantine": lambda net: DynamicQuarantine(
            response=lambda n: deploy_hub_rate_limit(
                n, link_rate=5.0, hub_budget=2.0
            ),
            telescope=Telescope(coverage=0.25),
            reaction_delay=2,
        ),
        "seed": 20,
    },
}


@pytest.mark.parametrize(
    "scenario", MIRROR_SCENARIOS.values(), ids=MIRROR_SCENARIOS.keys()
)
class TestMirrorBitIdentical:
    """The mirror engine replays the reference draw-for-draw."""

    @pytest.fixture()
    def pair(self, scenario):
        reference = _run(WormSimulation, scenario)
        fast = _run(FastWormSimulation, scenario)
        return reference, fast

    def test_trajectories_identical(self, pair, scenario):
        (_, sim_r, ref, _), (_, sim_f, fast, _) = pair
        if "quarantine" in scenario:
            # The telescope is sized so the control loop really deploys.
            assert sim_r.quarantine.deployed_at is not None
            assert sim_f.quarantine.deployed_at == sim_r.quarantine.deployed_at
        np.testing.assert_array_equal(ref.times, fast.times)
        np.testing.assert_array_equal(ref.infected, fast.infected)
        np.testing.assert_array_equal(ref.susceptible, fast.susceptible)
        np.testing.assert_array_equal(ref.removed, fast.removed)
        np.testing.assert_array_equal(ref.ever_infected, fast.ever_infected)

    def test_network_state_identical(self, pair, scenario):
        (net_r, _, _, _), (net_f, _, _, _) = pair
        assert net_r.count_states() == net_f.count_states()
        assert net_r.total_queued() == net_f.total_queued()
        for node in net_r.infectable:
            host_r, host_f = net_r.hosts[node], net_f.hosts[node]
            assert host_r.state == host_f.state, node
            assert host_r.infected_at == host_f.infected_at, node
            assert host_r.immunized_at == host_f.immunized_at, node

    def test_packet_accounting_identical(self, pair, scenario):
        (net_r, _, _, _), (net_f, _, _, _) = pair
        stats_r, stats_f = net_r.stats, net_f.stats
        assert stats_r.packets_injected == stats_f.packets_injected
        assert stats_r.packets_delivered == stats_f.packets_delivered
        assert stats_r.packets_dropped == stats_f.packets_dropped
        for key in net_r.links:
            link_r, link_f = net_r.links[key].stats, net_f.links[key].stats
            assert (
                link_r.forwarded,
                link_r.dropped,
                link_r.enqueued,
                link_r.peak_queue,
                link_r.requeued,
            ) == (
                link_f.forwarded,
                link_f.dropped,
                link_f.enqueued,
                link_f.peak_queue,
                link_f.requeued,
            ), key

    def test_telemetry_identical(self, pair, scenario):
        (_, _, _, instr_r), (_, _, _, instr_f) = pair
        assert instr_r.counters == instr_f.counters
        records_r = list(instr_r.sink.records)
        records_f = list(instr_f.sink.records)
        assert records_r == records_f


class TestBatchStatistical:
    """Batch sampling preserves the epidemic law, not the bits."""

    NUM_SEEDS = 20
    MAX_TICKS = 150
    NODES = 300

    def _final_sizes(self, batch, *, defense, worm=RandomScanWorm):
        """Final sizes per seed: reference runs, or width-1 batch runs."""
        sizes = []
        for seed in range(100, 100 + self.NUM_SEEDS):
            network = Network.from_powerlaw(self.NODES, seed=7)
            if defense is not None:
                defense(network)
            kwargs = dict(scan_rate=0.8, initial_infections=2)
            if batch:
                trajectory = _run_width1(
                    network, worm(), self.MAX_TICKS, seed=seed, **kwargs
                )
            else:
                trajectory = WormSimulation(
                    network, worm(), seed=seed, **kwargs
                ).run(self.MAX_TICKS)
            sizes.append(trajectory.ever_infected[-1])
        return np.asarray(sizes, dtype=float)

    @pytest.mark.parametrize(
        "defense",
        [None, lambda n: deploy_backbone_rate_limit(n, 2.0)],
        ids=["undefended", "backbone-limited"],
    )
    def test_final_size_distribution_matches(self, defense):
        reference = self._final_sizes(False, defense=defense)
        fast = self._final_sizes(True, defense=defense)
        # Welch-style tolerance: the ensemble means must agree within
        # three standard errors (plus a small absolute floor so fully
        # saturating scenarios with zero variance still compare).
        stderr = math.sqrt(
            reference.var(ddof=1) / len(reference)
            + fast.var(ddof=1) / len(fast)
        )
        tolerance = 3.0 * stderr + 0.02 * self.NODES
        assert abs(reference.mean() - fast.mean()) <= tolerance, (
            reference.mean(),
            fast.mean(),
            tolerance,
        )

    @pytest.mark.parametrize(
        "defense",
        [None, lambda n: deploy_backbone_rate_limit(n, 2.0)],
        ids=["undefended", "backbone-limited"],
    )
    def test_packet_conservation_every_tick(self, defense):
        """injected = delivered + dropped + in-flight, tick by tick."""
        network = Network.from_powerlaw(self.NODES, seed=7)
        if defense is not None:
            defense(network)
        instrumentation = Instrumentation.from_options(
            InstrumentationOptions(trace=True)
        )
        _run_width1(
            network,
            RandomScanWorm(),
            self.MAX_TICKS,
            scan_rate=0.8,
            initial_infections=2,
            seed=123,
            instrumentation=instrumentation,
        )
        records = [
            r for r in instrumentation.sink.records if r["type"] == "tick"
        ]
        assert records
        previous = None
        for record in records:
            accounted = (
                record["packets_delivered"]
                + record["packets_dropped"]
                + record["in_flight"]
                + record["lan_queue"]
            )
            assert record["packets_injected"] == accounted, record
            if previous is not None:
                for key in (
                    "packets_injected",
                    "packets_delivered",
                    "packets_dropped",
                    "ever_infected",
                ):
                    assert record[key] >= previous[key], key
            assert (
                record["susceptible"]
                + record["infected"]
                + record["immune"]
                == network.num_infectable
            )
            previous = record

    def test_final_size_distribution_matches_local_pref(self):
        def worm():
            return LocalPreferentialWorm(local_preference=0.7)

        reference = self._final_sizes(False, defense=None, worm=worm)
        fast = self._final_sizes(True, defense=None, worm=worm)
        stderr = math.sqrt(
            reference.var(ddof=1) / len(reference)
            + fast.var(ddof=1) / len(fast)
        )
        tolerance = 3.0 * stderr + 0.02 * self.NODES
        assert abs(reference.mean() - fast.mean()) <= tolerance, (
            reference.mean(),
            fast.mean(),
            tolerance,
        )

    def test_batch_requires_batchable_worm(self):
        network = Network.from_powerlaw(60, seed=7)
        with pytest.raises(ValueError, match="RandomScanWorm"):
            VectorReplicaSimulation(
                network, TopologicalWorm(), scan_rate=0.8, seeds=[1]
            )
        with pytest.raises(ValueError, match="LocalPreferentialWorm"):
            VectorReplicaSimulation(
                network, SequentialScanWorm(), scan_rate=0.8, seeds=[1]
            )

    def test_batch_accepts_local_pref_worm(self):
        network = Network.from_powerlaw(60, seed=7)
        trajectory = _run_width1(
            network,
            LocalPreferentialWorm(local_preference=0.7),
            10,
            scan_rate=0.8,
            seed=1,
        )
        assert trajectory.times.size > 1

    def test_auto_mode_picks_by_population(self, monkeypatch):
        """``engine="fast"`` batch-samples large batchable runs only."""
        built = []

        class SpyVector(VectorReplicaSimulation):
            def __init__(self, *args, **kwargs):
                built.append("batch")
                super().__init__(*args, **kwargs)

        class SpyMirror(FastWormSimulation):
            def __init__(self, *args, **kwargs):
                built.append("mirror")
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(build_module, "VectorReplicaSimulation", SpyVector)
        monkeypatch.setattr(build_module, "FastWormSimulation", SpyMirror)

        def engine_for(num_nodes, worm, engine="fast"):
            built.clear()
            execute_run(
                RunSpec(
                    topology=TopologySpec(num_nodes=num_nodes, seed=7),
                    worm=worm,
                    max_ticks=3,
                    seed=1,
                    engine=engine,
                )
            )
            return built[0]

        assert Network.from_powerlaw(100, seed=7).num_infectable < (
            BATCH_MIN_HOSTS
        )
        assert engine_for(100, WormSpec()) == "mirror"
        assert Network.from_powerlaw(700, seed=7).num_infectable >= (
            BATCH_MIN_HOSTS
        )
        assert engine_for(700, WormSpec()) == "batch"
        assert engine_for(100, WormSpec(), engine="fast-batched") == "batch"
        local_pref = WormSpec(kind="local_preferential", local_preference=0.7)
        assert engine_for(700, local_pref) == "batch"
        assert engine_for(700, WormSpec(kind="sequential")) == "mirror"


class TestRecorderConsistency:
    """The running totals the stop condition reads stay truthful mid-run.

    ``_epidemic_over`` reads :meth:`CurveRecorder.last_sample` instead of
    rescanning every host, which is only sound if the observe-phase
    sample always reflects the *current* tick's post-immunization state.
    """

    def test_reference_sample_matches_recount_mid_run(self):
        network = Network.from_powerlaw(120, seed=7)
        simulation = WormSimulation(
            network,
            RandomScanWorm(hit_probability=0.5),
            scan_rate=1.6,
            initial_infections=2,
            immunization=ImmunizationPolicy.at_fraction(0.2, 0.05),
            seed=21,
        )
        checked = 0

        def audit(tick: int) -> bool:
            nonlocal checked
            sample = simulation.recorder.last_sample()
            assert sample is not None
            assert sample[0] == tick
            assert sample[1:4] == network.count_states()
            checked += 1
            return False

        simulation._sim.add_stop_condition(audit)
        simulation.run(60)
        assert checked >= 10

    def test_fast_running_counters_match_status_array_mid_run(self):
        network = Network.from_powerlaw(120, seed=7)
        simulation = FastWormSimulation(
            network,
            RandomScanWorm(hit_probability=0.5),
            scan_rate=1.6,
            initial_infections=2,
            immunization=ImmunizationPolicy.at_fraction(0.2, 0.05),
            seed=21,
        )
        checked = 0

        def audit(tick: int) -> bool:
            nonlocal checked
            hosts = simulation.hosts
            tallies = {SUSCEPTIBLE: 0, INFECTED: 0, IMMUNE: 0}
            for node in network.infectable:
                tallies[hosts.status_row[node]] += 1
            assert hosts.susceptible == tallies[SUSCEPTIBLE]
            assert hosts.infected == tallies[INFECTED]
            assert hosts.immune == tallies[IMMUNE]
            sample = simulation.recorder.last_sample()
            assert sample is not None
            assert sample[1:4] == (
                hosts.susceptible,
                hosts.infected,
                hosts.immune,
            )
            checked += 1
            return False

        simulation._sim.add_stop_condition(audit)
        simulation.run(60)
        assert checked >= 10


def _deploy_hub_budget_only(network: Network) -> DefenseDescriptor:
    """A response that installs a hub forwarding budget and nothing else.

    Every other link stays unlimited, so a budgeted replica's scans and
    residual queues must leave the vectorized transport entirely.
    """
    network.set_node_forward_budget(network.roles.edge_routers[0], 2.0)
    return DefenseDescriptor(name="hub_budget")


#: Scenario grids for the replica axis: every entry must reproduce, per
#: seed and bit for bit, the solo batch run pinned in ``GRID_PATH``.
#: ``quarantine`` entries are zero-argument factories (the
#: :class:`VectorReplicaSimulation` calling convention) whose telescope
#: is sized so the control loop really deploys.  This grid installs no
#: node forwarding budget, so its replicas move packets on the shared
#: vectorized transport and the global pending store.
REPLICA_SCENARIOS = {
    "random-none": {
        "worm": lambda: RandomScanWorm(hit_probability=0.5),
    },
    "random-backbone": {
        "worm": lambda: RandomScanWorm(hit_probability=0.5),
        "defense": lambda n: deploy_backbone_rate_limit(n, 2.0),
    },
    "localpref-hosts-lan": {
        "worm": lambda: LocalPreferentialWorm(local_preference=0.7),
        "defense": lambda n: deploy_host_rate_limit(n, 0.5, 1.0, seed=99),
        "lan": True,
    },
    "random-immunization": {
        "worm": lambda: RandomScanWorm(hit_probability=0.5),
        "immunization": ImmunizationPolicy.at_fraction(0.2, 0.05),
    },
    # Susceptible-only patching: infected hosts draw no uniforms.
    "random-immunization-susceptible-only": {
        "worm": lambda: RandomScanWorm(hit_probability=0.5),
        "immunization": ImmunizationPolicy(
            mu=0.05, start_tick=3, patch_infected=False
        ),
    },
    # Three-packet queues: the inject guard, drop-tail in the pending
    # store and on rate-cut links all discard packets.
    "random-backbone-tiny-queues": {
        "worm": lambda: RandomScanWorm(hit_probability=0.5),
        "defense": lambda n: deploy_backbone_rate_limit(n, 2.0),
        "scan_rate": 3.0,
        "max_queue": 3,
    },
    # Three-packet queues behind slow backbone filters: full rate-cut
    # queues take forwards from lower-indexed rate-cut links in the
    # trickle, so drop-tail must see each queue's depth before its own
    # drain.
    "random-backbone-slow-tiny-queues": {
        "worm": lambda: RandomScanWorm(hit_probability=0.5),
        "defense": lambda n: deploy_backbone_rate_limit(n, 0.5),
        "scan_rate": 3.0,
        "max_queue": 3,
    },
    "random-quarantine": {
        "worm": lambda: RandomScanWorm(hit_probability=0.4),
        "quarantine": lambda: DynamicQuarantine(
            response=lambda n: deploy_backbone_rate_limit(n, 1.0),
            telescope=Telescope(coverage=0.25),
            reaction_delay=3,
        ),
    },
    "random-quarantine-hosts-immunization": {
        "worm": lambda: RandomScanWorm(hit_probability=0.4),
        "immunization": ImmunizationPolicy.at_tick(30, 0.03),
        "quarantine": lambda: DynamicQuarantine(
            response=lambda n: deploy_host_rate_limit(n, 0.3, 0.5, seed=5),
            telescope=Telescope(coverage=0.25),
            reaction_delay=2,
        ),
    },
}

#: Replica grid whose entries install node forwarding budgets, statically
#: or through a quarantine response; each must requeue packets.  Budgeted
#: replicas leave the shared transport for their own exact scalar sweep.
BUDGET_REPLICA_SCENARIOS = {
    "star-hub": {
        "kind": "star",
        "worm": lambda: RandomScanWorm(hit_probability=0.5),
        "defense": lambda n: deploy_hub_rate_limit(
            n, link_rate=10.0, hub_budget=5.0
        ),
        "budget": True,
    },
    "star-quarantine-hub": {
        "kind": "star",
        "worm": lambda: RandomScanWorm(hit_probability=0.4),
        "quarantine": lambda: DynamicQuarantine(
            response=lambda n: deploy_hub_rate_limit(
                n, link_rate=5.0, hub_budget=2.0
            ),
            telescope=Telescope(coverage=0.25),
            reaction_delay=2,
        ),
        "budget": True,
    },
    "random-quarantine-hub": {
        "worm": lambda: RandomScanWorm(hit_probability=0.4),
        "quarantine": lambda: DynamicQuarantine(
            response=lambda n: deploy_hub_rate_limit(
                n, link_rate=5.0, hub_budget=2.0
            ),
            telescope=Telescope(coverage=0.25),
            reaction_delay=2,
        ),
        "budget": True,
    },
    "random-quarantine-budget-only": {
        "worm": lambda: RandomScanWorm(hit_probability=0.4),
        "quarantine": lambda: DynamicQuarantine(
            response=_deploy_hub_budget_only,
            telescope=Telescope(coverage=0.25),
            reaction_delay=2,
        ),
        "budget": True,
    },
}

_REPLICA_SEEDS = (201, 202, 203, 204)
_REPLICA_TICKS = 70


def _result_state(network: Network) -> dict:
    """Everything the results layer reads off a finished network."""
    return {
        "stats": (
            network.stats.packets_injected,
            network.stats.packets_delivered,
            network.stats.packets_dropped,
        ),
        "hosts": {
            node: (
                network.hosts[node].state,
                network.hosts[node].infected_at,
                network.hosts[node].immunized_at,
            )
            for node in network.infectable
        },
        "links": {
            key: (
                link.stats.forwarded,
                link.stats.dropped,
                link.stats.enqueued,
                link.stats.peak_queue,
                link.stats.requeued,
                link.queue_length,
            )
            for key, link in network.links.items()
        },
    }


def _trajectory_tuple(trajectory) -> tuple:
    return (
        tuple(trajectory.times),
        tuple(trajectory.infected),
        tuple(trajectory.susceptible),
        tuple(trajectory.removed),
        tuple(trajectory.ever_infected),
    )


def _replica_network(scenario) -> Network:
    network = _build_network(scenario.get("kind", "powerlaw"))
    if "max_queue" in scenario:
        # The same graph and routes with every link queue capped.
        network = Network(
            network.topology,
            network.roles,
            network.subnets,
            infectable=network.infectable,
            max_queue=scenario["max_queue"],
            routing=network.routing,
        )
    defense = scenario.get("defense")
    if defense is not None:
        defense(network)
    return network


def _deployed_at(quarantine) -> int | None:
    return quarantine.deployed_at if quarantine is not None else None


@cache
def _pinned_grid() -> dict:
    """The solo batch engine's pinned grid results (``GRID_PATH``)."""
    return json.loads(GRID_PATH.read_text(encoding="utf-8"))


def _encode(trajectory, state, deployed_at) -> dict:
    """A harvested replica in the fixture's form.

    Hosts still susceptible and never stamped, and links that never
    carried a packet, are left out; any other change to any field
    changes the encoding.
    """
    untouched = (HostState.SUSCEPTIBLE, None, None)
    return {
        "trajectory": [[float(x) for x in series] for series in trajectory],
        "stats": list(state["stats"]),
        "hosts": [
            [node, host[0].value, host[1], host[2]]
            for node, host in state["hosts"].items()
            if host != untouched
        ],
        "links": [
            [u, v, *row] for (u, v), row in state["links"].items() if any(row)
        ],
        "deployed_at": deployed_at,
    }


def _vector_batch(scenario, seeds, instrumentation=None):
    network = _replica_network(scenario)
    batch = VectorReplicaSimulation(
        network,
        scenario["worm"](),
        scan_rate=scenario.get("scan_rate", 1.2),
        seeds=list(seeds),
        initial_infections=2,
        immunization=scenario.get("immunization"),
        lan_delivery=scenario.get("lan", False),
        quarantine_factory=scenario.get("quarantine"),
        instrumentation=instrumentation,
    )
    harvested = {}

    def harvest(replica, sim):
        harvested[replica] = (
            _trajectory_tuple(sim.trajectory()),
            _result_state(network),
            _deployed_at(sim.quarantine),
        )

    batch.run(_REPLICA_TICKS, harvest)
    return [harvested[i] for i in range(len(seeds))]


def _assert_replicas_match_solo(name, scenario) -> None:
    pinned = _pinned_grid()["grid"][name]
    grouped = _vector_batch(scenario, _REPLICA_SEEDS)
    for seed, got in zip(_REPLICA_SEEDS, grouped):
        (alone,) = _vector_batch(scenario, [seed])
        assert _encode(*alone) == pinned[str(seed)], seed
        assert _encode(*got) == pinned[str(seed)], seed
    for _trajectory, state, deployed_at in grouped:
        if "quarantine" in scenario:
            assert deployed_at is not None
        if scenario.get("budget"):
            # The forwarding budget really pushed packets back.
            assert sum(v[4] for v in state["links"].values()) > 0


def _assert_width_and_order_invariant(scenario) -> None:
    """A replica's results do not depend on its batch neighbours."""
    wide = _vector_batch(scenario, _REPLICA_SEEDS)
    narrow = _vector_batch(scenario, _REPLICA_SEEDS[:2])
    pair = _vector_batch(scenario, _REPLICA_SEEDS[::-1])
    assert wide[0] == narrow[0]
    assert wide[1] == narrow[1]
    assert wide[0] == pair[3]
    assert wide[3] == pair[0]


@pytest.mark.parametrize("name", list(REPLICA_SCENARIOS))
class TestReplicaBatchBitIdentical:
    """Width-1 and grouped replicas on the shared transport replay the
    pinned solo batch runs.

    The replica engine advances *all* live replicas through each tick
    phase in single numpy passes (shared scan/transport/defense kernels
    with a global pending-packet store), yet per-replica RNG streams
    draw in a fixed per-replica order — so every scenario here asserts
    full bit-identity, at width 1 and grouped, against the solo batch
    engine's pinned results: trajectories, host stamps, per-link
    forwarded/dropped/enqueued/peak/requeued counters, residual queue
    depths and the quarantine deploy tick.
    """

    def test_each_replica_matches_its_solo_run(self, name):
        _assert_replicas_match_solo(name, REPLICA_SCENARIOS[name])

    def test_grouping_is_width_invariant(self, name):
        """Batch width and member order leave each replica unchanged."""
        _assert_width_and_order_invariant(REPLICA_SCENARIOS[name])


@pytest.mark.parametrize("name", list(BUDGET_REPLICA_SCENARIOS))
class TestVectorReplicaBitIdentical:
    """Budgeted replicas inside the vector loop replay the pinned runs.

    A replica with node forwarding budgets (from tick 0, or from the
    tick its quarantine deploys them) queues its scans for real, skips
    the shared refill and the pending store, and transmits on its own
    transport's exact sweep, while its neighbours stay vectorized.  The
    same bit-identity as :class:`TestReplicaBatchBitIdentical` holds,
    and every entry must requeue packets.
    """

    def test_each_replica_matches_its_solo_run(self, name):
        _assert_replicas_match_solo(name, BUDGET_REPLICA_SCENARIOS[name])

    def test_grouping_is_width_and_order_invariant(self, name):
        """A replica's results do not depend on its batch neighbours."""
        _assert_width_and_order_invariant(BUDGET_REPLICA_SCENARIOS[name])


_TRACED = {**REPLICA_SCENARIOS, **BUDGET_REPLICA_SCENARIOS}


@pytest.mark.parametrize("name", sorted(_pinned_grid()["traced"]))
class TestVectorInstrumentation:
    """Instrumented vector runs emit what the solo batch engine emitted.

    Counters (in first-use order), per-phase call counts and tick
    records match the pinned traced runs at width 1 and inside a group;
    phase timings are reported under the tick engine's phase names.
    """

    def _traced(self, name, seeds):
        instrumentation = [
            Instrumentation.from_options(
                InstrumentationOptions(profile=True, trace=True)
            )
            for _ in seeds
        ]
        _vector_batch(_TRACED[name], seeds, instrumentation)
        return instrumentation[0]

    @pytest.mark.parametrize("width", [1, len(_REPLICA_SEEDS)])
    def test_telemetry_matches_pinned_solo_run(self, name, width):
        pinned = _pinned_grid()["traced"][name]
        assert pinned["seed"] == _REPLICA_SEEDS[0]
        instr = self._traced(name, _REPLICA_SEEDS[:width])
        assert [list(item) for item in instr.counters.items()] == (
            pinned["counters"]
        )
        assert instr.phase_calls == pinned["phase_calls"]
        assert list(instr.trace_records) == pinned["trace"]
        assert set(instr.phase_seconds) == set(pinned["phase_calls"])
        assert all(seconds > 0 for seconds in instr.phase_seconds.values())


def _replica_ensemble(num_runs: int = 4, **template_overrides) -> EnsembleSpec:
    template_overrides.setdefault(
        "topology", TopologySpec(kind="powerlaw", num_nodes=120, seed=7)
    )
    template = RunSpec(
        worm=WormSpec(kind="random", hit_probability=0.5),
        scan_rate=1.2,
        initial_infections=2,
        max_ticks=_REPLICA_TICKS,
        engine="fast-batched",
        **template_overrides,
    )
    return EnsembleSpec(
        template=template, num_runs=num_runs, base_seed=300, label="replicas"
    )


def _normalized(result) -> dict:
    """RunResult as a dict, with wall time (timing noise) zeroed."""
    data = result.to_dict()
    data["metrics"]["wall_time"] = 0.0
    return data


class TestReplicaBatchRunner:
    """The runner layers split grouped results back out per run."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {
                "quarantine": QuarantineSpec(
                    response=DefenseSpec(kind="backbone", rate=1.0),
                    telescope_coverage=0.25,
                    reaction_delay=3,
                )
            },
            # Rate-cut links left holding packets: grouped and solo runs
            # must close out their lazy peak depth alike.
            {"defense": DefenseSpec(kind="backbone", rate=0.02)},
            {"defense": DefenseSpec(kind="edge", rate=0.02)},
            # Node forwarding budget: the exact-sweep transport.
            {
                "topology": TopologySpec(kind="star", num_nodes=60, seed=7),
                "defense": DefenseSpec(kind="hub", rate=10.0, node_budget=5.0),
            },
        ],
        ids=["plain", "quarantined", "backbone-0.02", "edge-0.02", "hub"],
    )
    def test_grouped_matches_per_run_execution(self, overrides, monkeypatch):
        """Byte-identical to solo runs, histogram key order included."""
        built = []
        build_quarantine = build_module.build_quarantine

        def recording_build_quarantine(spec):
            built.append(build_quarantine(spec))
            return built[-1]

        monkeypatch.setattr(
            build_module, "build_quarantine", recording_build_quarantine
        )
        spec = _replica_ensemble(**overrides)
        runs = spec.expand()
        grouped = execute_replica_batch(runs)
        built.clear()
        solo = [execute_run(run_spec) for run_spec in runs]
        assert [json.dumps(_normalized(r)) for r in grouped] == [
            json.dumps(_normalized(r)) for r in solo
        ]
        if "quarantine" in overrides:
            # The telescope is sized so every solo run's loop deploys;
            # byte identity then carries the deploy over to the group.
            assert len(built) == len(runs)
            assert all(q.deployed_at is not None for q in built)

    def test_executor_groups_and_restores_input_order(self):
        spec = _replica_ensemble(num_runs=5)
        runs = list(spec.expand())
        # Interleave a non-groupable spec (different engine) and shuffle.
        outlier = dataclasses.replace(runs[0], engine="fast", seed=999)
        shuffled = [runs[3], outlier, runs[0], runs[4], runs[1], runs[2]]
        results = Executor(1).run_specs(shuffled)
        assert [r.spec for r in results] == shuffled
        solo = {s.seed: _normalized(execute_run(s)) for s in shuffled}
        for result in results:
            assert _normalized(result) == solo[result.spec.seed]

    def test_executor_chunk_width_is_invariant(self, monkeypatch):
        """Results do not depend on how the executor slices the batch."""
        runs = list(_replica_ensemble(num_runs=9).expand())
        full = Executor(1).run_specs(runs)
        monkeypatch.setattr(executors_module, "REPLICA_CHUNK", 4)
        chunked = Executor(1).run_specs(runs)
        assert [_normalized(r) for r in full] == [
            _normalized(r) for r in chunked
        ]

    def test_unpinned_topology_passes_through(self):
        template = _replica_ensemble().template
        unpinned = dataclasses.replace(
            template, topology=dataclasses.replace(template.topology, seed=None)
        )
        spec = EnsembleSpec(template=unpinned, num_runs=3, base_seed=300)
        runs = list(spec.expand())
        results = Executor(1).run_specs(runs)
        solo = [execute_run(run_spec) for run_spec in runs]
        assert [_normalized(r) for r in results] == [
            _normalized(r) for r in solo
        ]

    def test_cache_round_trip_is_byte_identical(self, tmp_path):
        spec = _replica_ensemble()
        cache = ResultCache(tmp_path)
        executor = Executor(1)
        run_ensemble(spec, executor=executor, cache=cache, use_cache=True)
        second = run_ensemble(
            spec, executor=executor, cache=cache, use_cache=True
        )
        assert all(r.cached for r in second.runs)
        solo = [execute_run(run_spec) for run_spec in spec.expand()]
        for cached_run, solo_run in zip(second.runs, solo):
            cached_data = _normalized(cached_run)
            solo_data = _normalized(solo_run)
            cached_data.pop("cached", None)
            solo_data.pop("cached", None)
            assert cached_data == solo_data
