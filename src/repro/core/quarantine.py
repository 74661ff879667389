"""QuarantineStudy: one front door over the models and the simulator.

The paper's method is always the same two-step: write down the ODE model
for a deployment strategy, then check it against packet-level simulation.
``QuarantineStudy`` packages that workflow:

>>> from repro import QuarantineStudy, DeploymentStrategy
>>> study = QuarantineStudy(num_nodes=1000, scan_rate=0.8, seed=7)
>>> curves = study.simulate_deployments(
...     [DeploymentStrategy.none(), DeploymentStrategy.backbone(0.02)],
...     max_ticks=300, num_runs=3)
>>> report = study.slowdown_report(curves, level=0.5)

Deployment strategies translate to declarative runner specs via
:meth:`QuarantineStudy.defense_spec_for` / :meth:`QuarantineStudy.spec_for`
(executed by :func:`repro.runner.run_ensemble`), and to analytical models
via :meth:`QuarantineStudy.analytical_model`.
"""

from __future__ import annotations

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
from .policy import DeploymentLocation, DeploymentStrategy
from .slowdown import SlowdownReport, compare_times

__all__ = ["QuarantineStudy"]


class QuarantineStudy:
    """Compare rate-limiting deployment strategies on one scenario.

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

    def defense_spec_for(self, strategy: DeploymentStrategy) -> DefenseSpec:
        """Translate a :class:`DeploymentStrategy` to a runner spec.

        Host deployment pins its filter-placement seed to the study seed
        so every run of an ensemble throttles the same hosts (the fixed-
        deployment reading of the paper).
        """
        if strategy.location is DeploymentLocation.NONE:
            return DefenseSpec(kind="none")
        policy = strategy.policy
        assert policy is not None  # enforced by DeploymentStrategy
        if strategy.location is DeploymentLocation.HOSTS:
            return DefenseSpec(
                kind="hosts",
                rate=policy.rate,
                coverage=strategy.coverage,
                seed=self.seed,
            )
        if strategy.location is DeploymentLocation.HUB:
            if policy.node_budget is None:
                raise ValueError("hub deployment needs a node_budget")
            return DefenseSpec(
                kind="hub", rate=policy.rate, node_budget=policy.node_budget
            )
        kind = (
            "edge"
            if strategy.location is DeploymentLocation.EDGE_ROUTERS
            else "backbone"
        )
        return DefenseSpec(
            kind=kind, rate=policy.rate, weighted=policy.weighted
        )

    def spec_for(
        self,
        strategy: DeploymentStrategy,
        *,
        max_ticks: int = 200,
        num_runs: int = 10,
        immunization: ImmunizationPolicy | None = None,
    ) -> EnsembleSpec:
        """Full :class:`EnsembleSpec` for one deployment strategy."""
        template = RunSpec(
            topology=self.topology_spec(),
            worm=self.worm_spec(),
            defense=self.defense_spec_for(strategy),
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
            label=strategy.label,
        )

    def run_deployments(
        self,
        strategies: list[DeploymentStrategy],
        *,
        max_ticks: int = 200,
        num_runs: int = 10,
        immunization: ImmunizationPolicy | None = None,
    ) -> dict[str, EnsembleResult]:
        """Full :class:`EnsembleResult` per strategy, keyed by label."""
        results: dict[str, EnsembleResult] = {}
        for strategy in strategies:
            results[strategy.label] = run_ensemble(
                self.spec_for(
                    strategy,
                    max_ticks=max_ticks,
                    num_runs=num_runs,
                    immunization=immunization,
                )
            )
        return results

    def simulate_deployments(
        self,
        strategies: list[DeploymentStrategy],
        *,
        max_ticks: int = 200,
        num_runs: int = 10,
        immunization: ImmunizationPolicy | None = None,
    ) -> dict[str, Trajectory]:
        """Averaged infection curve per strategy, keyed by label."""
        results = self.run_deployments(
            strategies,
            max_ticks=max_ticks,
            num_runs=num_runs,
            immunization=immunization,
        )
        return {label: result.mean for label, result in results.items()}

    # ------------------------------------------------------------------
    # Analytical side
    # ------------------------------------------------------------------

    def analytical_model(
        self, strategy: DeploymentStrategy
    ) -> EpidemicModel:
        """The paper's ODE model matching a deployment strategy.

        Host/leaf deployment maps to Eq. (3); hub deployment to
        Eqs. (4)–(5); backbone deployment to Eq. (6) with the link base
        rate interpreted as residual coverage.  Edge-router deployment has
        no single-curve model (it is two-level); use
        :class:`repro.models.EdgeRouterModel` directly.
        """
        n = float(self.num_nodes)
        if strategy.location is DeploymentLocation.NONE:
            return HomogeneousSIModel(
                n, self.scan_rate, initial_infected=self.initial_infections
            )
        policy = strategy.policy
        assert policy is not None
        if strategy.location is DeploymentLocation.HOSTS:
            return LeafRateLimitModel(
                n,
                strategy.coverage,
                self.scan_rate,
                policy.rate,
                initial_infected=self.initial_infections,
            )
        if strategy.location is DeploymentLocation.HUB:
            if policy.node_budget is None:
                raise ValueError("hub deployment needs a node_budget")
            return HubRateLimitModel(
                n,
                min(policy.rate, self.scan_rate),
                policy.node_budget,
                initial_infected=self.initial_infections,
            )
        if strategy.location is DeploymentLocation.BACKBONE_ROUTERS:
            # Backbone filters cover nearly all paths; the residual spread
            # comes from paths that dodge the backbone plus the leak.
            return BackboneRateLimitModel(
                n,
                self.scan_rate,
                path_coverage=0.95,
                residual_rate=policy.rate * n,
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
