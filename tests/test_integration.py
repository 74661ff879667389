"""Cross-module integration tests: model-vs-simulation agreement and the
full trace-to-model pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.quarantine import QuarantineStudy
from repro.models.homogeneous import HomogeneousSIModel
from repro.models.immunization import DelayedImmunizationModel
from repro.models.leaf import LeafRateLimitModel
from repro.runner.spec import DefenseSpec
from repro.simulator.immunization import ImmunizationPolicy
from repro.models.base import Trajectory
from repro.simulator.network import Network
from repro.simulator.observers import average_trajectories
from repro.simulator.fastpath import FastWormSimulation
from repro.simulator.worms import RandomScanWorm
from repro.topology.graphs import Topology
from repro.traces.analysis import recommend_rate_limits
from repro.traces.records import HostClass
from repro.throttle.dns_throttle import DnsThrottle
from repro.throttle.replay import replay_class, worm_slowdown


def complete_graph_network(n: int) -> Network:
    """A clique network: zero routing latency beyond one hop, so the
    simulation should track the homogeneous ODE closely."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Network.from_topology(
        Topology(n, edges), infect_routers=True
    )


def clique_mean(
    n: int, *, num_runs: int, base_seed: int, max_ticks: int, **simulation
) -> Trajectory:
    """Mean curve of ``num_runs`` clique runs; run ``i`` is seeded
    ``base_seed + i``, like the paper's ten-run averages."""
    runs = [
        FastWormSimulation(
            complete_graph_network(n), RandomScanWorm(),
            seed=base_seed + i, **simulation,
        ).run(max_ticks)
        for i in range(num_runs)
    ]
    return average_trajectories(runs)


class TestModelSimulationAgreement:
    def test_clique_simulation_tracks_homogeneous_model(self):
        """On a complete graph with one-hop delivery, the simulated curve
        should match the logistic model within sampling noise."""
        n, beta = 150, 0.5
        mean = clique_mean(
            n, scan_rate=beta, initial_infections=3,
            max_ticks=60, num_runs=8, base_seed=3,
        )
        model = HomogeneousSIModel(n, beta, initial_infected=3)
        t_sim = mean.time_to_fraction(0.5)
        t_model = model.exact_time_to_fraction(0.5)
        # One hop of delivery latency and discrete ticks shift the
        # simulated curve by a tick or two; demand close agreement.
        assert abs(t_sim - t_model) < 6.0

    def test_host_rl_simulation_matches_leaf_model_trend(self):
        """Simulated slowdown from q=0.5 host coverage tracks Eq. (3)."""
        n, beta, beta2 = 150, 0.8, 0.01

        def run(q: float) -> float:
            study = QuarantineStudy(
                200, scan_rate=beta, initial_infections=3, seed=5
            )
            strategy = (
                DefenseSpec(kind="none")
                if q == 0
                else DefenseSpec(kind="hosts", coverage=q, rate=beta2)
            )
            curves = study.simulate_deployments(
                [strategy], max_ticks=200, num_runs=4
            )
            return curves[strategy.label].time_to_fraction(0.5)

        sim_ratio = run(0.5) / run(0.0)
        model_ratio = (
            LeafRateLimitModel(n, 0.5, beta, beta2).solve(200).time_to_fraction(0.5)
            / HomogeneousSIModel(n, beta).solve(200).time_to_fraction(0.5)
        )
        # Both should be close to the theoretical ~2x.
        assert sim_ratio == pytest.approx(model_ratio, rel=0.5)

    def test_immunization_sim_matches_model_plateau(self):
        """Ever-infected plateau: simulation vs Sec 6.1 model, same
        parameters, should land within a few points of each other."""
        n, beta, mu, level = 200, 0.8, 0.1, 0.2
        sim_final = clique_mean(
            n, scan_rate=beta, initial_infections=2,
            immunization=ImmunizationPolicy.at_fraction(level, mu),
            max_ticks=150, num_runs=6, base_seed=9,
        ).final_fraction_ever_infected()
        model = DelayedImmunizationModel.from_infection_level(
            n, beta, mu, level, initial_infected=2
        )
        model_final = model.solve(150).final_fraction_ever_infected()
        assert sim_final == pytest.approx(model_final, abs=0.15)


class TestTraceToModelPipeline:
    def test_trace_limits_feed_throttle_and_model(self, small_trace):
        """End to end: derive limits from the trace, build a throttle from
        them, and confirm the worm slowdown the model family predicts."""
        normal = small_trace.hosts_of_class(HostClass.NORMAL)
        table = recommend_rate_limits(small_trace, normal, group="normal")
        # Build a DNS throttle whose budget comes from the derived limit.
        budget = max(table.no_dns, 1)
        factory = lambda: DnsThrottle(budget=budget, window=5.0)  # noqa: E731

        normal_results = replay_class(
            small_trace, HostClass.NORMAL, factory, limit_hosts=15
        )
        active = [r for r in normal_results if r.contacts > 0]
        # The limit was chosen at 99.9% coverage: normal traffic unharmed.
        assert all(r.delayed_fraction < 0.2 for r in active)

        worm_results = replay_class(
            small_trace, HostClass.WORM_BLASTER, factory
        )
        assert worm_slowdown(worm_results) > 2.0


class TestDeterminismEndToEnd:
    def test_full_study_reproducible(self):
        def run() -> np.ndarray:
            study = QuarantineStudy(
                150, scan_rate=0.8, initial_infections=3, seed=21
            )
            curves = study.simulate_deployments(
                [DefenseSpec(kind="backbone", rate=0.05)],
                max_ticks=100,
                num_runs=2,
            )
            return curves["backbone_rl"].infected

        np.testing.assert_array_equal(run(), run())
