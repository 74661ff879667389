"""repro — reproduction of "Dynamic Quarantine of Internet Worms" (DSN'04).

The library has four layers:

* :mod:`repro.models` — the paper's analytical epidemic models (ODE +
  closed forms) for every deployment strategy and for delayed
  immunization;
* :mod:`repro.simulator` — a discrete-event, packet-level worm simulator
  (the ns-2 substitute) with shortest-path routing, rate-limited links,
  random / local-preferential worms, and dynamic patching, on star and
  power-law topologies from :mod:`repro.topology`;
* :mod:`repro.traces` + :mod:`repro.throttle` — the Section 7 trace study:
  a calibrated synthetic campus trace, windowed contact-rate analysis with
  the no-prior-contact and DNS refinements, and working implementations of
  the Williamson and DNS-based throttles;
* :mod:`repro.core` — the front door: deployment policies,
  :class:`QuarantineStudy`, slowdown reports, and one canned scenario per
  figure in :mod:`repro.core.scenarios`.

Quickstart::

    from repro import QuarantineStudy, DeploymentStrategy

    study = QuarantineStudy(num_nodes=1000, scan_rate=0.8, seed=7)
    curves = study.simulate_deployments(
        [DeploymentStrategy.none(), DeploymentStrategy.backbone(0.02)],
        max_ticks=300, num_runs=3,
    )
    print(study.slowdown_report(curves, level=0.5).format_table())
"""

from .core import (
    DeploymentLocation,
    DeploymentStrategy,
    QuarantineStudy,
    RateLimitPolicy,
    SlowdownReport,
    compare_times,
    slowdown_factor,
)
from .models import Trajectory
from .runner import (
    EnsembleResult,
    EnsembleSpec,
    Executor,
    RunResult,
    RunSpec,
    run_ensemble,
)

__version__ = "1.0.0"

__all__ = [
    "DeploymentLocation",
    "DeploymentStrategy",
    "EnsembleResult",
    "EnsembleSpec",
    "Executor",
    "QuarantineStudy",
    "RateLimitPolicy",
    "RunResult",
    "RunSpec",
    "SlowdownReport",
    "compare_times",
    "slowdown_factor",
    "Trajectory",
    "run_ensemble",
    "__version__",
]
