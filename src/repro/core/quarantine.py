"""QuarantineStudy: one front door over the models and the simulator.

The paper's method is always the same two-step: write down the ODE model
for a deployment strategy, then check it against packet-level simulation.
``QuarantineStudy`` packages that workflow:

>>> from repro import DefenseSpec, QuarantineStudy
>>> study = QuarantineStudy(num_nodes=1000, scan_rate=0.8, seed=7)
>>> curves = study.simulate_deployments(
...     [DefenseSpec(kind="none"), DefenseSpec(kind="backbone", rate=0.02)],
...     max_ticks=300, num_runs=3)
>>> report = study.slowdown_report(curves, level=0.5)

A deployment is a :class:`~repro.runner.DefenseSpec`.  The study turns
it into a declarative runner spec via :meth:`QuarantineStudy.spec_for`
(executed by :func:`repro.runner.run_ensemble`), and into an analytical
model via :meth:`QuarantineStudy.analytical_model`.
"""

from __future__ import annotations

import dataclasses

from ..models.backbone import BackboneRateLimitModel
from ..models.base import EpidemicModel, Trajectory
from ..models.homogeneous import HomogeneousSIModel
from ..models.hub import HubRateLimitModel
from ..models.leaf import LeafRateLimitModel
from ..runner import (
    DefenseSpec,
    EnsembleResult,
    EnsembleSpec,
    RunSpec,
    TopologySpec,
    WormSpec,
    run_ensemble,
)
from ..simulator.immunization import ImmunizationPolicy
from .slowdown import SlowdownReport, compare_times

__all__ = ["QuarantineStudy"]


class QuarantineStudy:
    """Compare rate-limiting deployments on one scenario.

    Parameters
    ----------
    num_nodes:
        Topology size (1,000 in the paper's Internet experiments).
    scan_rate:
        Worm contact rate ``beta`` per infected host per tick.
    topology:
        ``"powerlaw"`` (default) or ``"star"``.
    local_preference:
        If set, the worm is local-preferential with this subnet bias;
        otherwise it scans uniformly at random.
    initial_infections:
        Hosts infected at tick 0 of each run.
    lan_delivery:
        Deliver same-subnet scans over the local LAN (broadcast domain)
        instead of through routed links.  Defaults to true on power-law
        topologies — a subnet is a LAN, so edge filters never see
        intra-subnet traffic — and false on the star, whose hub is the
        interconnect under test.
    seed:
        Base seed; run ``i`` of an experiment uses ``seed + i``.
    """

    def __init__(
        self,
        num_nodes: int = 1000,
        *,
        scan_rate: float = 0.8,
        topology: str = "powerlaw",
        local_preference: float | None = None,
        initial_infections: int = 5,
        lan_delivery: bool | None = None,
        seed: int = 42,
    ) -> None:
        if topology not in ("powerlaw", "star"):
            raise ValueError(
                f"topology must be 'powerlaw' or 'star', got {topology!r}"
            )
        self.num_nodes = num_nodes
        self.scan_rate = scan_rate
        self.topology = topology
        self.local_preference = local_preference
        self.initial_infections = initial_infections
        self.lan_delivery = (
            lan_delivery if lan_delivery is not None else topology == "powerlaw"
        )
        self.seed = seed

    # ------------------------------------------------------------------
    # Simulation side (declarative specs, executed by repro.runner)
    # ------------------------------------------------------------------

    def topology_spec(self) -> TopologySpec:
        """This study's topology, as runner data."""
        return TopologySpec(kind=self.topology, num_nodes=self.num_nodes)

    def worm_spec(self) -> WormSpec:
        """This study's worm strategy, as runner data."""
        if self.local_preference is None:
            return WormSpec(kind="random")
        return WormSpec(
            kind="local_preferential",
            local_preference=self.local_preference,
        )

    def spec_for(
        self,
        defense: DefenseSpec,
        *,
        max_ticks: int = 200,
        num_runs: int = 10,
        immunization: ImmunizationPolicy | None = None,
    ) -> EnsembleSpec:
        """Full :class:`EnsembleSpec` for one deployment.

        Host deployment without a placement seed takes the study seed,
        so every run of an ensemble throttles the same hosts (the fixed-
        deployment reading of the paper).
        """
        if defense.kind == "hosts" and defense.seed is None:
            defense = dataclasses.replace(defense, seed=self.seed)
        template = RunSpec(
            topology=self.topology_spec(),
            worm=self.worm_spec(),
            defense=defense,
            scan_rate=self.scan_rate,
            initial_infections=self.initial_infections,
            immunization=immunization,
            lan_delivery=self.lan_delivery,
            max_ticks=max_ticks,
        )
        return EnsembleSpec(
            template=template,
            num_runs=num_runs,
            base_seed=self.seed,
            label=defense.label,
        )

    def run_deployments(
        self,
        defenses: list[DefenseSpec],
        *,
        max_ticks: int = 200,
        num_runs: int = 10,
        immunization: ImmunizationPolicy | None = None,
    ) -> dict[str, EnsembleResult]:
        """Full :class:`EnsembleResult` per deployment, keyed by label."""
        results: dict[str, EnsembleResult] = {}
        for defense in defenses:
            results[defense.label] = run_ensemble(
                self.spec_for(
                    defense,
                    max_ticks=max_ticks,
                    num_runs=num_runs,
                    immunization=immunization,
                )
            )
        return results

    def simulate_deployments(
        self,
        defenses: list[DefenseSpec],
        *,
        max_ticks: int = 200,
        num_runs: int = 10,
        immunization: ImmunizationPolicy | None = None,
    ) -> dict[str, Trajectory]:
        """Averaged infection curve per deployment, keyed by label."""
        results = self.run_deployments(
            defenses,
            max_ticks=max_ticks,
            num_runs=num_runs,
            immunization=immunization,
        )
        return {label: result.mean for label, result in results.items()}

    # ------------------------------------------------------------------
    # Analytical side
    # ------------------------------------------------------------------

    def analytical_model(self, defense: DefenseSpec) -> EpidemicModel:
        """The paper's ODE model matching a deployment.

        Host/leaf deployment maps to Eq. (3); hub deployment to
        Eqs. (4)–(5); backbone deployment to Eq. (6) with the link base
        rate interpreted as residual coverage.  Edge-router deployment has
        no single-curve model (it is two-level); use
        :class:`repro.models.EdgeRouterModel` directly.
        """
        n = float(self.num_nodes)
        if defense.kind == "none":
            return HomogeneousSIModel(
                n, self.scan_rate, initial_infected=self.initial_infections
            )
        if defense.kind == "hosts":
            return LeafRateLimitModel(
                n,
                defense.coverage,
                self.scan_rate,
                defense.rate,
                initial_infected=self.initial_infections,
            )
        if defense.kind == "hub":
            return HubRateLimitModel(
                n,
                min(defense.rate, self.scan_rate),
                defense.node_budget,
                initial_infected=self.initial_infections,
            )
        if defense.kind == "backbone":
            # Backbone filters cover nearly all paths; the residual spread
            # comes from paths that dodge the backbone plus the leak.
            return BackboneRateLimitModel(
                n,
                self.scan_rate,
                path_coverage=0.95,
                residual_rate=defense.rate * n,
                initial_infected=self.initial_infections,
            )
        raise ValueError(
            "edge-router deployment is two-level; use "
            "repro.models.EdgeRouterModel directly"
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @staticmethod
    def slowdown_report(
        curves: dict[str, Trajectory],
        *,
        level: float = 0.5,
        baseline: str = "no_rl",
    ) -> SlowdownReport:
        """Times-to-level table across the compared strategies."""
        return compare_times(curves, baseline=baseline, level=level)
