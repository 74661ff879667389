"""Replay a fault plan locally: the back end of ``repro chaos``.

A chaos-test failure prints ``repro chaos --plan-seed N --replay``;
this module is what that command runs.  It executes one small canned
ensemble (30-host star, 4 seeded runs, a 2-worker process pool, a
throwaway result cache) twice — once clean, once under the plan — and
reports the faults that fired, the degradation warnings raised, and
whether the chaotic result still matched the clean one byte-for-byte.

The canned scenario touches every runner-side injection point (serial
and pooled execution, cache load and store); service-side sites only
fire under a running service, so the replay lists them as dormant
rather than silently dropping them.
"""

from __future__ import annotations

import sys
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from .controller import chaos_active
from .plan import FaultPlan

__all__ = ["ReplayReport", "replay_plan", "CANNED_SPEC"]

#: Sites the canned replay scenario can actually reach.
_RUNNER_SITES = (
    "runner.executor.run",
    "runner.executor.pool",
    "runner.executor.await",
    "runner.cache.load",
    "runner.cache.store",
)


def _canned_spec():
    from ..runner.spec import EnsembleSpec, RunSpec, TopologySpec

    return EnsembleSpec(
        template=RunSpec(
            topology=TopologySpec(kind="star", num_nodes=30),
            max_ticks=10,
        ),
        num_runs=4,
        base_seed=7,
        label="chaos-replay",
    )


#: The canned ensemble the replay executes (small enough to run in
#: well under a second per pass).
CANNED_SPEC = _canned_spec


@dataclass
class ReplayReport:
    """What one replay observed."""

    plan: FaultPlan
    fired: list[tuple[str, int, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    error: str | None = None
    identical: bool | None = None
    dormant_sites: list[str] = field(default_factory=list)

    @property
    def outcome(self) -> str:
        """One-word verdict for the CLI."""
        if self.error is not None:
            return "aborted"
        return "identical" if self.identical else "diverged"


def replay_plan(plan: FaultPlan, out=sys.stdout) -> ReplayReport:
    """Run the canned ensemble under ``plan`` and print what happened."""
    # Imported lazily so the chaos package stays importable from the
    # instrumented layers without a cycle.
    from ..runner.api import run_ensemble
    from ..runner.cache import ResultCache
    from ..runner.executors import Executor, ExecutorError
    from ..service.protocol import result_payload

    spec = CANNED_SPEC()
    report = ReplayReport(
        plan=plan,
        dormant_sites=[
            site for site in sorted(plan.events) if site not in _RUNNER_SITES
        ],
    )

    clean = run_ensemble(spec, executor=Executor(jobs=1), use_cache=False)
    clean_bytes = result_payload(clean)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        cache = ResultCache(Path(tmp))
        with Executor(jobs=2, timeout=30.0) as executor:
            with chaos_active(plan) as controller, warnings.catch_warnings(
                record=True
            ) as caught:
                warnings.simplefilter("always")
                try:
                    chaotic = run_ensemble(
                        spec, executor=executor, cache=cache, use_cache=True
                    )
                except ExecutorError as exc:
                    report.error = f"{type(exc).__name__}: {exc}"
                    chaotic = None
            report.fired = controller.fired_log()
            report.warnings = [str(item.message) for item in caught]

    if report.error is None and chaotic is not None:
        report.identical = result_payload(chaotic) == clean_bytes

    print(plan.describe(), file=out)
    print(file=out)
    if report.fired:
        for site, invocation, kind in report.fired:
            print(f"fired  {site} @{invocation}: {kind}", file=out)
    else:
        print("fired  (no scheduled fault was reached)", file=out)
    for message in report.warnings:
        print(f"warned {message}", file=out)
    if report.dormant_sites:
        print(
            "dormant (service-only sites; start `repro serve` to reach "
            "them): " + ", ".join(report.dormant_sites),
            file=out,
        )
    if report.error is not None:
        print(f"replay aborted by injected fault: {report.error}", file=out)
    else:
        print(
            "replay result "
            f"{'byte-identical to' if report.identical else 'DIVERGED from'}"
            " the clean run",
            file=out,
        )
    return report
