"""repro — reproduction of "Dynamic Quarantine of Internet Worms" (DSN'04).

The library has four layers:

* :mod:`repro.models` — the paper's analytical epidemic models (ODE +
  closed forms) for every deployment strategy and for delayed
  immunization;
* :mod:`repro.simulator` — a tick-driven, packet-level worm simulator
  (the ns-2 substitute) with shortest-path routing, rate-limited links,
  random / local-preferential worms, and dynamic patching, on star and
  power-law topologies from :mod:`repro.topology`;
* :mod:`repro.traces` + :mod:`repro.throttle` — the Section 7 trace study:
  a calibrated synthetic campus trace, windowed contact-rate analysis with
  the no-prior-contact and DNS refinements, and working implementations of
  the Williamson and DNS-based throttles;
* :mod:`repro.core` — the front door: :class:`QuarantineStudy` over
  :class:`DefenseSpec` deployments, slowdown reports, and one canned
  scenario per figure in :mod:`repro.core.scenarios`.

Quickstart::

    from repro import DefenseSpec, QuarantineStudy

    study = QuarantineStudy(num_nodes=1000, scan_rate=0.8, seed=7)
    curves = study.simulate_deployments(
        [DefenseSpec(kind="none"), DefenseSpec(kind="backbone", rate=0.02)],
        max_ticks=300, num_runs=3,
    )
    print(study.slowdown_report(curves, level=0.5).format_table())
"""

from .core import QuarantineStudy, SlowdownReport, compare_times
from .models import Trajectory
from .runner import (
    DefenseSpec,
    EnsembleResult,
    EnsembleSpec,
    Executor,
    RunResult,
    RunSpec,
    run_ensemble,
)

__version__ = "1.0.0"

__all__ = [
    "DefenseSpec",
    "EnsembleResult",
    "EnsembleSpec",
    "Executor",
    "QuarantineStudy",
    "RunResult",
    "RunSpec",
    "SlowdownReport",
    "compare_times",
    "Trajectory",
    "run_ensemble",
    "__version__",
]
