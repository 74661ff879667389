"""Canned paper scenarios: one builder per figure / Section-7 statistic.

Every benchmark and example calls into this module, so the experiment
definitions live in exactly one place.  Each ``fig*`` function reproduces
the matching figure's curves; each ``sec7_*`` function reproduces one of
the trace study's in-text statistics.  Parameters default to values tuned
so the *shapes* (orderings, slowdown factors, crossovers) match the paper;
see EXPERIMENTS.md for the side-by-side numbers.

Simulation scenarios accept ``num_runs`` / ``max_ticks`` so the test suite
can run them small and the benchmark harness can run them at paper scale.
"""

from __future__ import annotations

import numpy as np

from ..models.backbone import BackboneRateLimitModel
from ..models.base import Trajectory
from ..models.combined import BackboneImmunizationModel
from ..models.edge import EdgeRouterModel, WormKind
from ..models.homogeneous import HomogeneousSIModel
from ..models.hub import HubRateLimitModel
from ..models.immunization import DelayedImmunizationModel
from ..models.leaf import LeafRateLimitModel
from ..runner import (
    DefenseSpec,
    EnsembleSpec,
    RunSpec,
    TopologySpec,
    WormSpec,
    run_ensemble,
)
from ..simulator.immunization import ImmunizationPolicy
from ..traces.analysis import (
    RateLimitTable,
    empirical_cdf,
    recommend_rate_limits,
    window_size_study,
)
from ..traces.classify import census, classify_hosts
from ..traces.records import HostClass, Trace
from ..traces.synth import TraceConfig, generate_trace
from ..traces.windows import Refinement, count_contacts, per_host_counts
from ..throttle.dns_throttle import DnsThrottle
from ..throttle.replay import ReplayResult, replay_hosts, worm_slowdown
from ..throttle.williamson import WilliamsonThrottle
from .quarantine import QuarantineStudy

__all__ = [
    "fig1a_star_analytical",
    "fig1b_star_simulation",
    "fig2_host_analytical",
    "fig3_edge_analytical",
    "fig4_powerlaw_simulation",
    "fig5_ensembles",
    "fig5_edge_localpref_simulation",
    "fig6_localpref_deployments",
    "fig7a_immunization_analytical",
    "fig7b_immunization_rl_analytical",
    "fig8a_immunization_simulation",
    "fig8b_immunization_rl_simulation",
    "fig9_contact_rate_cdfs",
    "fig10_trace_rate_models",
    "sec7_host_census",
    "sec7_rate_limit_tables",
    "sec7_window_size_study",
    "sec7_worm_peak_rates",
    "sec7_throttle_replay",
    "shared_trace",
]

# ---------------------------------------------------------------------------
# Star topology (Section 4, Figure 1)
# ---------------------------------------------------------------------------

#: Star size used throughout Section 4.
STAR_NODES = 200
#: Worm contact rate in the star experiments.
STAR_BETA1 = 0.8
#: Throttled host contact rate (beta2 << beta1).
STAR_BETA2 = 0.01
#: Hub node budget tuned so hub RL ~3x slower to 60% than 30% leaf RL.
STAR_HUB_BUDGET = 4.0
#: Per-link rate at the hub ("10 packets per second" in the paper).
STAR_LINK_RATE = 10.0


def fig1a_star_analytical(
    *, t_end: float = 50.0, num_points: int = 400
) -> dict[str, Trajectory]:
    """Figure 1(a): analytical star-graph curves.

    No RL and 10% / 30% leaf RL are Eq. (3) logistics; hub RL is the
    Eq. (4)/(5) piecewise model.
    """
    leaves = STAR_NODES - 1
    curves: dict[str, Trajectory] = {}
    cases = {
        "no_rl": LeafRateLimitModel(leaves, 0.0, STAR_BETA1, STAR_BETA2),
        "leaf_rl_10pct": LeafRateLimitModel(leaves, 0.10, STAR_BETA1, STAR_BETA2),
        "leaf_rl_30pct": LeafRateLimitModel(leaves, 0.30, STAR_BETA1, STAR_BETA2),
        "hub_rl": HubRateLimitModel(leaves, STAR_BETA1, STAR_HUB_BUDGET),
    }
    for label, model in cases.items():
        curves[label] = model.solve(t_end, num_points=num_points)
    return curves


def fig1b_star_simulation(
    *, num_runs: int = 10, max_ticks: int = 60
) -> dict[str, Trajectory]:
    """Figure 1(b): simulated star-graph curves (10-run averages)."""
    study = QuarantineStudy(
        STAR_NODES,
        scan_rate=STAR_BETA1,
        topology="star",
        initial_infections=2,
        seed=42,
    )
    strategies = [
        DefenseSpec(kind="none"),
        DefenseSpec(kind="hosts", coverage=0.10, rate=STAR_BETA2),
        DefenseSpec(kind="hosts", coverage=0.30, rate=STAR_BETA2),
        DefenseSpec(
            kind="hub", rate=STAR_LINK_RATE, node_budget=STAR_HUB_BUDGET
        ),
    ]
    curves = study.simulate_deployments(
        strategies, max_ticks=max_ticks, num_runs=num_runs
    )
    # Match Figure 1's legend wording for the leaf cases.
    return {
        "no_rl": curves["no_rl"],
        "leaf_rl_10pct": curves["host_rl_10pct"],
        "leaf_rl_30pct": curves["host_rl_30pct"],
        "hub_rl": curves["hub_rl"],
    }


# ---------------------------------------------------------------------------
# Host-based rate limiting (Section 5.1, Figure 2)
# ---------------------------------------------------------------------------


def fig2_host_analytical(
    *,
    population: int = 1000,
    beta1: float = 0.8,
    beta2: float = 0.01,
    t_end: float = 1000.0,
    num_points: int = 800,
) -> dict[str, Trajectory]:
    """Figure 2: Eq. (3) curves for q in {0, 5, 50, 80, 100}%."""
    curves: dict[str, Trajectory] = {}
    for q in (0.0, 0.05, 0.50, 0.80, 1.00):
        label = "no_rl" if q == 0.0 else f"host_rl_{int(q * 100)}pct"
        model = LeafRateLimitModel(population, q, beta1, beta2)
        curves[label] = model.solve(t_end, num_points=num_points)
    return curves


# ---------------------------------------------------------------------------
# Edge-router rate limiting, analytical (Section 5.2, Figure 3)
# ---------------------------------------------------------------------------


def fig3_edge_analytical(
    *,
    num_subnets: int = 100,
    hosts_per_subnet: int = 10,
    scan_rate: float = 0.8,
    cross_rate_limit: float = 0.01,
    t_end: float = 300.0,
) -> dict[str, dict[str, Trajectory]]:
    """Figure 3: two-level curves for three cases.

    Returns ``{"across": {...}, "within": {...}}``, each holding the
    curves for: local-preferential with no RL, local-preferential with
    edge RL, and random propagation with edge RL.
    """
    local = WormKind.local_preferential(0.8)
    rand = WormKind.random(num_subnets)
    cases = {
        "local_pref_no_rl": EdgeRouterModel(
            num_subnets, hosts_per_subnet, scan_rate, local
        ),
        "local_pref_rl": EdgeRouterModel(
            num_subnets,
            hosts_per_subnet,
            scan_rate,
            local,
            cross_rate_limit=cross_rate_limit,
        ),
        "random_rl": EdgeRouterModel(
            num_subnets,
            hosts_per_subnet,
            scan_rate,
            rand,
            cross_rate_limit=cross_rate_limit,
        ),
    }
    return {
        "across": {
            label: model.subnet_trajectory(t_end)
            for label, model in cases.items()
        },
        "within": {
            label: model.within_subnet_trajectory(t_end)
            for label, model in cases.items()
        },
    }


# ---------------------------------------------------------------------------
# Power-law deployments, simulated (Section 5.4, Figure 4)
# ---------------------------------------------------------------------------

#: Base link rate for router deployments, tuned so backbone RL lands near
#: the paper's ~5x slowdown to 50% infection.
ROUTER_BASE_RATE = 0.02
#: Throttled host scan rate for host deployments.
HOST_RL_RATE = 0.01


def fig4_powerlaw_simulation(
    *,
    num_nodes: int = 1000,
    num_runs: int = 10,
    max_ticks: int = 400,
) -> dict[str, Trajectory]:
    """Figure 4: random worm; none vs 5% hosts vs edge vs backbone."""
    study = QuarantineStudy(num_nodes, scan_rate=0.8, seed=42)
    strategies = [
        DefenseSpec(kind="none"),
        DefenseSpec(kind="hosts", coverage=0.05, rate=HOST_RL_RATE),
        DefenseSpec(kind="edge", rate=ROUTER_BASE_RATE),
        DefenseSpec(kind="backbone", rate=ROUTER_BASE_RATE),
    ]
    return study.simulate_deployments(
        strategies, max_ticks=max_ticks, num_runs=num_runs
    )


# ---------------------------------------------------------------------------
# Edge RL vs worm strategy, simulated (Figure 5)
# ---------------------------------------------------------------------------


def fig5_ensembles(
    *,
    num_nodes: int = 1000,
    num_runs: int = 10,
    max_ticks: int = 150,
    base_seed: int = 42,
) -> dict[str, EnsembleSpec]:
    """Figure 5's four ensembles (worm strategy x edge RL), as specs.

    The ``seed_subnets`` observation mode records each run's infected
    fraction *within the subnets holding the initial seeds* rather than
    network-wide — the paper's "within subnets" view.
    """
    specs: dict[str, EnsembleSpec] = {}
    worms = {
        "random": WormSpec(kind="random"),
        "local_pref": WormSpec(kind="local_preferential", local_preference=0.8),
    }
    defenses = {
        "no_rl": DefenseSpec(kind="none"),
        "edge_rl": DefenseSpec(kind="edge", rate=ROUTER_BASE_RATE),
    }
    for worm_name, worm in worms.items():
        for defense_name, defense in defenses.items():
            label = f"{worm_name}_{defense_name}"
            specs[label] = EnsembleSpec(
                template=RunSpec(
                    topology=TopologySpec(num_nodes=num_nodes),
                    worm=worm,
                    defense=defense,
                    scan_rate=0.8,
                    initial_infections=5,
                    lan_delivery=True,
                    max_ticks=max_ticks,
                    observe="seed_subnets",
                ),
                num_runs=num_runs,
                base_seed=base_seed,
                label=label,
            )
    return specs


def fig5_edge_localpref_simulation(
    *,
    num_nodes: int = 1000,
    num_runs: int = 10,
    max_ticks: int = 150,
) -> dict[str, Trajectory]:
    """Figure 5: edge RL vs worm strategy, measured *within subnets*.

    Per the paper's caption ("rate limiting within subnets at the edge
    router"), each curve tracks the infected fraction inside the subnets
    that held the initial seeds: the local-preferential worm saturates
    those from inside, untouched by the boundary filter, while the random
    worm must fill them through filtered links.
    """
    ensembles = fig5_ensembles(
        num_nodes=num_nodes, num_runs=num_runs, max_ticks=max_ticks
    )
    return {
        label: run_ensemble(spec).mean for label, spec in ensembles.items()
    }


# ---------------------------------------------------------------------------
# Local-preferential worm vs host/backbone RL (Figure 6)
# ---------------------------------------------------------------------------


def fig6_localpref_deployments(
    *,
    num_nodes: int = 1000,
    num_runs: int = 10,
    max_ticks: int = 400,
) -> dict[str, Trajectory]:
    """Figure 6: local-pref worm; 5%/30% host RL vs backbone RL."""
    study = QuarantineStudy(
        num_nodes, scan_rate=0.8, local_preference=0.8, seed=42
    )
    strategies = [
        DefenseSpec(kind="none"),
        DefenseSpec(kind="hosts", coverage=0.05, rate=HOST_RL_RATE),
        DefenseSpec(kind="hosts", coverage=0.30, rate=HOST_RL_RATE),
        DefenseSpec(kind="backbone", rate=ROUTER_BASE_RATE),
    ]
    return study.simulate_deployments(
        strategies, max_ticks=max_ticks, num_runs=num_runs
    )


# ---------------------------------------------------------------------------
# Delayed immunization (Section 6, Figures 7 and 8)
# ---------------------------------------------------------------------------

#: Parameters shared by every immunization experiment (paper values).
IMMUNIZATION_POPULATION = 1000
IMMUNIZATION_BETA = 0.8
IMMUNIZATION_MU = 0.1
IMMUNIZATION_LEVELS = (0.2, 0.5, 0.8)

#: Scan rate used by the *simulated* immunization experiments.  The
#: delayed-immunization outcome is a race between the worm's effective
#: growth rate and the patch rate ``mu``; our simulator discounts the
#: nominal scan rate through routing latency and wasted scans, so 2.4
#: scans/tick is what makes the simulated no-RL outbreak grow like the
#: paper's analytical beta = 0.8 model (t50 ~ 7-9 ticks) — the paper's
#: ns-2 setup had no such discount.
IMMUNIZATION_SCAN_RATE = 2.4

#: Backbone base rate for the Figure 8(b) experiment.  Much lighter than
#: Figure 4's filter: the figure isolates the *incremental* benefit of
#: rate limiting on top of patching (the paper's 80% -> 72% drop).  With
#: Figure 4's heavy filter the combination drives the worm extinct
#: (~3% ever infected) — a stronger outcome than the shape being
#: reproduced; the ablation benchmark covers that regime.
FIG8B_BACKBONE_RATE = 1.0


def fig7a_immunization_analytical(
    *, t_end: float = 80.0, num_points: int = 600
) -> dict[str, Trajectory]:
    """Figure 7(a): delayed immunization, no rate limiting."""
    curves: dict[str, Trajectory] = {
        "no_immunization": HomogeneousSIModel(
            IMMUNIZATION_POPULATION, IMMUNIZATION_BETA
        ).solve(t_end, num_points=num_points)
    }
    for level in IMMUNIZATION_LEVELS:
        model = DelayedImmunizationModel.from_infection_level(
            IMMUNIZATION_POPULATION,
            IMMUNIZATION_BETA,
            IMMUNIZATION_MU,
            level,
        )
        curves[f"immunize_at_{int(level * 100)}pct"] = model.solve(
            t_end, num_points=num_points
        )
    return curves


#: Path coverage used for the analytical backbone-RL immunization model.
FIG7B_PATH_COVERAGE = 0.5


def fig7b_immunization_rl_analytical(
    *, t_end: float = 50.0, num_points: int = 600
) -> dict[str, Trajectory]:
    """Figure 7(b): immunization + backbone RL, delays at ticks 6/8/10.

    The paper anchors the start ticks to where the *unlimited* worm hits
    20%/50%/80% (ticks ~6/8/10 for beta = 0.8, N = 1000).
    """
    curves: dict[str, Trajectory] = {
        "no_immunization": BackboneRateLimitModel(
            IMMUNIZATION_POPULATION,
            IMMUNIZATION_BETA,
            FIG7B_PATH_COVERAGE,
        ).solve(t_end, num_points=num_points)
    }
    baseline = HomogeneousSIModel(IMMUNIZATION_POPULATION, IMMUNIZATION_BETA)
    for level in IMMUNIZATION_LEVELS:
        start = round(baseline.exact_time_to_fraction(level))
        model = BackboneImmunizationModel(
            IMMUNIZATION_POPULATION,
            IMMUNIZATION_BETA,
            FIG7B_PATH_COVERAGE,
            IMMUNIZATION_MU,
            float(start),
        )
        curves[f"immunize_at_tick_{start}"] = model.solve(
            t_end, num_points=num_points
        )
    return curves


def fig8a_immunization_simulation(
    *,
    num_nodes: int = 1000,
    num_runs: int = 10,
    max_ticks: int = 100,
) -> dict[str, Trajectory]:
    """Figure 8(a): simulated ever-infected under delayed immunization.

    Paper bands: ever-infected plateaus near 80% / 90% / 98% for
    immunization starting at 20% / 50% / 80% infection (beta = 0.8,
    mu = 0.1).
    """
    study = QuarantineStudy(
        num_nodes, scan_rate=IMMUNIZATION_SCAN_RATE, seed=42
    )
    curves: dict[str, Trajectory] = {}
    base = study.simulate_deployments(
        [DefenseSpec(kind="none")], max_ticks=max_ticks, num_runs=num_runs
    )
    curves["no_immunization"] = base["no_rl"]
    for level in IMMUNIZATION_LEVELS:
        policy = ImmunizationPolicy.at_fraction(level, IMMUNIZATION_MU)
        result = run_ensemble(
            study.spec_for(
                DefenseSpec(kind="none"),
                max_ticks=max_ticks,
                num_runs=num_runs,
                immunization=policy,
            )
        )
        curves[f"immunize_at_{int(level * 100)}pct"] = result.mean
    return curves


def fig8b_immunization_rl_simulation(
    *,
    num_nodes: int = 1000,
    num_runs: int = 10,
    max_ticks: int = 400,
) -> dict[str, Trajectory]:
    """Figure 8(b): immunization + backbone RL, starts at fixed ticks.

    Per the paper, the start ticks are where the *un-rate-limited* worm
    crossed 20%/50%/80% — the comparison against Figure 8(a) holds the
    wall-clock response fixed while rate limiting slows the worm, and the
    ever-infected total drops (~80% -> ~72% in the paper).
    """
    study = QuarantineStudy(
        num_nodes, scan_rate=IMMUNIZATION_SCAN_RATE, seed=42
    )
    backbone = DefenseSpec(kind="backbone", rate=FIG8B_BACKBONE_RATE)
    curves: dict[str, Trajectory] = {}
    base = study.simulate_deployments(
        [backbone], max_ticks=max_ticks, num_runs=num_runs
    )
    curves["no_immunization"] = base["backbone_rl"]
    # Anchor start ticks to the simulated un-rate-limited baseline.
    unlimited = study.simulate_deployments(
        [DefenseSpec(kind="none")],
        max_ticks=max_ticks,
        num_runs=num_runs,
    )["no_rl"]
    for level in IMMUNIZATION_LEVELS:
        start = round(unlimited.time_to_fraction(level))
        policy = ImmunizationPolicy.at_tick(start, IMMUNIZATION_MU)
        result = run_ensemble(
            study.spec_for(
                backbone,
                max_ticks=max_ticks,
                num_runs=num_runs,
                immunization=policy,
            )
        )
        curves[f"immunize_at_tick_{start}"] = result.mean
    return curves


# ---------------------------------------------------------------------------
# Trace study (Section 7, Figures 9 and 10)
# ---------------------------------------------------------------------------

_TRACE_CACHE: dict[tuple, Trace] = {}


def shared_trace(
    *, duration: float = 600.0, seed: int = 0
) -> Trace:
    """The synthetic campus trace shared by the Section 7 experiments.

    Cached per (duration, seed): generating it is the expensive step and
    every Section 7 scenario reads from the same one, like the paper reads
    from one 23-day capture.
    """
    key = (duration, seed)
    if key not in _TRACE_CACHE:
        _TRACE_CACHE[key] = generate_trace(
            TraceConfig(duration=duration, seed=seed)
        )
    return _TRACE_CACHE[key]


def fig9_contact_rate_cdfs(
    trace: Trace | None = None,
    *,
    window: float = 5.0,
) -> dict[str, dict[Refinement, tuple[np.ndarray, np.ndarray]]]:
    """Figure 9: contact-rate CDFs for normal vs worm-infected hosts.

    Returns ``{"normal": {refinement: (values, fractions)}, "worms": ...}``.
    """
    trace = trace or shared_trace()
    normal = set(trace.hosts_of_class(HostClass.NORMAL))
    worms = set(
        trace.hosts_of_class(HostClass.WORM_BLASTER)
        + trace.hosts_of_class(HostClass.WORM_WELCHIA)
    )
    out: dict[str, dict[Refinement, tuple[np.ndarray, np.ndarray]]] = {}
    for label, hosts in (("normal", normal), ("worms", worms)):
        out[label] = {}
        for refinement in Refinement:
            counts = count_contacts(
                trace, hosts, window=window, refinement=refinement
            )
            out[label][refinement] = empirical_cdf(counts)
    return out


def fig10_trace_rate_models(
    *,
    population: int = 1128,
    beta: float = 0.8,
    per_host_rate: float = 0.05,
    t_end: float = 10_000.0,
    num_points: int = 2000,
) -> dict[str, Trajectory]:
    """Figure 10: worm propagation under trace-derived rate limits.

    Approximates edge-router aggregate limiting with the hub model
    (Eqs. 4/5), as the paper does: ``gamma`` is the per-host link rate and
    the hub budget is the aggregate limit.  The DNS-based scheme's
    aggregate limit is ~2x the per-host rate (gamma:beta = 1:2); the IP
    throttle needs ~6x (1:6).  Host-based RL throttles every host to
    ``gamma`` but stays exponential — the worst of the defended curves.
    """
    curves = {
        "no_rl": HomogeneousSIModel(population, beta).solve(
            t_end, num_points=num_points
        ),
        "dns_scheme_1_to_2": HubRateLimitModel(
            population, per_host_rate, 2 * per_host_rate
        ).solve(t_end, num_points=num_points),
        "ip_throttle_1_to_6": HubRateLimitModel(
            population, per_host_rate, 6 * per_host_rate
        ).solve(t_end, num_points=num_points),
        "host_based_rl": LeafRateLimitModel(
            population, 1.0, beta, per_host_rate
        ).solve(t_end, num_points=num_points),
    }
    return curves


def sec7_host_census(trace: Trace | None = None) -> dict[HostClass, int]:
    """The 999 / 17 / 33 / 79 host census, via the behavioural classifier."""
    trace = trace or shared_trace()
    return census(classify_hosts(trace))


def sec7_rate_limit_tables(
    trace: Trace | None = None,
) -> dict[str, RateLimitTable]:
    """99.9%-coverage rate limits for normal and P2P hosts."""
    trace = trace or shared_trace()
    return {
        "normal": recommend_rate_limits(
            trace, trace.hosts_of_class(HostClass.NORMAL), group="normal"
        ),
        "p2p": recommend_rate_limits(
            trace, trace.hosts_of_class(HostClass.P2P), group="p2p"
        ),
    }


def sec7_window_size_study(trace: Trace | None = None) -> dict[float, int]:
    """Aggregate non-DNS limits across 1 s / 5 s / 60 s windows."""
    trace = trace or shared_trace()
    return window_size_study(
        trace, trace.hosts_of_class(HostClass.NORMAL)
    )


def sec7_worm_peak_rates(trace: Trace | None = None) -> dict[str, int]:
    """Peak distinct-hosts-per-minute for Blaster and Welchia hosts."""
    trace = trace or shared_trace()
    classes = {
        "blaster": trace.hosts_of_class(HostClass.WORM_BLASTER),
        "welchia": trace.hosts_of_class(HostClass.WORM_WELCHIA),
    }
    counts = per_host_counts(
        trace, classes["blaster"] + classes["welchia"], window=60.0
    )
    return {
        label: max(counts[host].max() for host in hosts)
        for label, hosts in classes.items()
    }


def sec7_throttle_replay(
    trace: Trace | None = None,
    *,
    normal_hosts: int = 40,
) -> dict[str, dict[str, ReplayResult | float]]:
    """Replay the trace through both throttles; summarize the tradeoff.

    One pass over the trace per throttle replays the first
    ``normal_hosts`` normal hosts and every worm host together.
    """
    trace = trace or shared_trace()
    normal = trace.hosts_of_class(HostClass.NORMAL)[:normal_hosts]
    blaster = trace.hosts_of_class(HostClass.WORM_BLASTER)
    welchia = trace.hosts_of_class(HostClass.WORM_WELCHIA)
    out: dict[str, dict[str, ReplayResult | float]] = {}
    for factory in (WilliamsonThrottle, DnsThrottle):
        name = factory().name
        results = replay_hosts(
            trace, {host: factory() for host in normal + blaster + welchia}
        )
        with_contacts = [
            results[host] for host in normal if results[host].contacts
        ]
        mean_delay = (
            float(np.mean([r.mean_delay for r in with_contacts]))
            if with_contacts
            else 0.0
        )
        out[name] = {
            "normal_mean_delay": mean_delay,
            "blaster_slowdown": worm_slowdown([results[h] for h in blaster]),
            "welchia_slowdown": worm_slowdown([results[h] for h in welchia]),
        }
    return out
