"""Tests for the dynamic quarantine control loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulator.defense import deploy_backbone_rate_limit
from repro.simulator.dynamic import DynamicQuarantine
from repro.simulator.fastpath import FastWormSimulation, VectorReplicaSimulation
from repro.simulator.network import Network
from repro.simulator.telescope import ScanDetector, Telescope
from repro.simulator.worms import RandomScanWorm
from repro.topology.graphs import TopologyError

from ..oracle import as_built


def build_quarantine(reaction_delay: int = 0) -> DynamicQuarantine:
    return DynamicQuarantine(
        lambda network: deploy_backbone_rate_limit(network, 0.02),
        telescope=Telescope(coverage=0.2),
        detector=ScanDetector(scans_per_infected=0.8),
        reaction_delay=reaction_delay,
    )


def run_outbreak(
    quarantine: DynamicQuarantine | None, *, seed: int = 5, max_ticks: int = 300
):
    network = Network.from_powerlaw(400, seed=seed)
    simulation = FastWormSimulation(
        network,
        RandomScanWorm(hit_probability=0.5),
        scan_rate=1.6,
        initial_infections=3,
        lan_delivery=True,
        quarantine=quarantine,
        seed=seed,
    )
    return simulation.run(max_ticks), simulation


class TestDynamicQuarantine:
    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicQuarantine(lambda n: None, reaction_delay=-1)

    def test_detects_and_deploys(self):
        quarantine = build_quarantine()
        run_outbreak(quarantine)
        assert quarantine.detected_at is not None
        assert quarantine.is_deployed
        assert quarantine.deployed_at == quarantine.detected_at

    def test_reaction_delay_postpones_deployment(self):
        quarantine = build_quarantine(reaction_delay=4)
        run_outbreak(quarantine)
        assert (
            quarantine.deployed_at == quarantine.detected_at + 4
        )

    def test_filters_actually_installed(self):
        """The response's plan is in force on the run's transport."""
        quarantine = build_quarantine()
        _, simulation = run_outbreak(quarantine)
        plan = quarantine.response(simulation.network)
        assert plan.name == "backbone_rl"
        assert plan.links
        limited = np.flatnonzero(simulation.transport.limited_arr)
        assert limited.tolist() == [slot for slot, _, _ in plan.links]
        # The network itself stays as built.
        assert as_built(simulation.network) == as_built(
            Network.from_powerlaw(400, seed=5)
        )

    def test_quarantine_slows_outbreak(self):
        undefended, _ = run_outbreak(None)
        defended, _ = run_outbreak(build_quarantine())
        assert (
            defended.time_to_fraction(0.5)
            > 1.5 * undefended.time_to_fraction(0.5)
        )

    def test_late_reaction_wastes_the_detection(self):
        """The Moore et al. lesson the paper cites: react in minutes or
        not at all — a long delay forfeits most of the benefit."""
        fast, _ = run_outbreak(build_quarantine(reaction_delay=0))
        slow, _ = run_outbreak(build_quarantine(reaction_delay=10))
        assert slow.time_to_fraction(0.5) < fast.time_to_fraction(0.5)

    def test_no_detection_without_missed_scans(self):
        """A worm with perfect targeting never touches dark space, so the
        telescope is blind — detection must not fire."""
        quarantine = build_quarantine()
        network = Network.from_powerlaw(400, seed=9)
        simulation = FastWormSimulation(
            network,
            RandomScanWorm(hit_probability=1.0),
            scan_rate=1.6,
            initial_infections=3,
            quarantine=quarantine,
            seed=9,
        )
        simulation.run(120)
        assert not quarantine.detector.has_detected
        assert not quarantine.is_deployed

    def test_step_idempotent_after_deploy(self):
        quarantine = build_quarantine()
        run_outbreak(quarantine)
        deployed_at = quarantine.deployed_at
        assert quarantine.step(999) is False
        assert quarantine.deployed_at == deployed_at


class TestResponseThatCannotDeploy:
    """A response the network cannot take raises where it is called."""

    @staticmethod
    def quarantine() -> DynamicQuarantine:
        # A star has no backbone routers to deploy on.
        return DynamicQuarantine(
            lambda network: deploy_backbone_rate_limit(network, 0.02),
            telescope=Telescope(coverage=0.25),
        )

    def test_mirror_raises_at_the_deploy_tick(self):
        quarantine = self.quarantine()
        simulation = FastWormSimulation(
            Network.from_star(60),
            RandomScanWorm(hit_probability=0.4),
            scan_rate=1.2,
            initial_infections=2,
            quarantine=quarantine,
            seed=3,
        )
        with pytest.raises(TopologyError, match="no backbone"):
            simulation.run(100)
        assert quarantine.deployed_at is not None
        # The deploy tick ran up to its immunize phase, unrecorded.
        assert simulation.ticks_executed == quarantine.deployed_at

    def test_vector_group_raises_at_build(self):
        with pytest.raises(TopologyError, match="no backbone"):
            VectorReplicaSimulation(
                Network.from_star(60),
                RandomScanWorm(hit_probability=0.4),
                scan_rate=1.2,
                seeds=[1, 2],
                quarantine_factory=self.quarantine,
            )
