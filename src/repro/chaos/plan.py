"""Seeded fault plans: deterministic chaos as plain data.

A :class:`FaultPlan` is the chaos harness's unit of reproducibility — a
mapping ``site -> {invocation index -> Fault}`` that says *exactly*
which injection points misbehave, on which call, and how.  Plans are
plain frozen data (JSON round-trippable, printable), so a failing chaos
test can name the single integer seed that regenerates its entire fault
schedule: ``repro chaos --plan-seed N --replay``.

Derivation follows the runner's own seed discipline: site ``i`` of a
plan draws from ``random.Random`` keyed on
:func:`~repro.runner.spec.derive_seed` of ``(plan_seed, i)`` mixed with
the site name (string seeding is hash-randomization-proof), so the same
seed always yields the same plan on every platform and every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "FAULT_KINDS",
    "DELAY_CHOICES_S",
    "Fault",
    "SiteModel",
    "DEFAULT_SITES",
    "SOAK_SITES",
    "FaultPlan",
    "site_models",
]

#: Everything a fault point can be asked to do.
#:
#: ``delay``       — sleep ``delay_s`` at the site (slow run / deadline trip)
#: ``io_error``    — raise :class:`OSError` (unreadable/unwritable cache)
#: ``break_pool``  — raise :class:`concurrent.futures.BrokenExecutor`
#:                   (a worker process died mid-batch)
#: ``timeout``     — raise :class:`concurrent.futures.TimeoutError`
#:                   (a run overran the executor's per-run limit)
#: ``error``       — raise :class:`RuntimeError` (job blows up)
#: ``reject``      — site-interpreted: the scheduler refuses admission
#:                   as if the queue were saturated (a 429 burst)
#: ``truncate``    — site-interpreted: drop the last ``trim`` bytes of
#:                   an encoded HTTP response (a short frame, after
#:                   which the server closes the connection)
#: ``garble``      — site-interpreted: corrupt the first byte of an
#:                   encoded HTTP response (malformed status line)
FAULT_KINDS = (
    "delay",
    "io_error",
    "break_pool",
    "timeout",
    "error",
    "reject",
    "truncate",
    "garble",
)

#: Injected delays are drawn from these (seconds): long enough to trip
#: a sub-100ms request deadline deterministically, short enough that a
#: whole soak stays fast.
DELAY_CHOICES_S = (0.02, 0.05, 0.15)

#: Truncation lengths (bytes chopped off the end of a response frame).
_TRIM_CHOICES = (1, 16, 64)


@dataclass(frozen=True)
class Fault:
    """One scheduled misbehavior at one fault-point invocation."""

    kind: str
    delay_s: float = 0.0
    trim: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")
        if self.trim < 0:
            raise ValueError(f"trim must be >= 0, got {self.trim}")

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict."""
        return {"kind": self.kind, "delay_s": self.delay_s, "trim": self.trim}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Fault":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


@dataclass(frozen=True)
class SiteModel:
    """What faults a site may suffer when a plan is derived from a seed.

    Attributes
    ----------
    site:
        The injection point's name (see the module docstrings of the
        instrumented layers for where each fires).
    kinds:
        The fault repertoire the site understands.
    max_faults:
        Most faults a derived plan schedules at this site.
    horizon:
        Faults land on invocation indices ``0..horizon-1``.
    """

    site: str
    kinds: tuple[str, ...]
    max_faults: int = 2
    horizon: int = 12

    def __post_init__(self) -> None:
        for kind in self.kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        if self.max_faults < 0 or self.horizon < 1:
            raise ValueError("max_faults must be >= 0 and horizon >= 1")


#: The full site model: every injection point the stack exposes.
DEFAULT_SITES = (
    SiteModel("runner.executor.run", ("delay",)),
    SiteModel("runner.executor.pool", ("break_pool",), max_faults=1, horizon=2),
    SiteModel("runner.executor.await", ("timeout",), max_faults=1),
    SiteModel("runner.cache.load", ("io_error",)),
    SiteModel("runner.cache.store", ("io_error",)),
    SiteModel("service.worker.run", ("delay", "error")),
    SiteModel("service.scheduler.admit", ("reject",)),
    SiteModel("service.http.response", ("truncate", "garble")),
    # Streaming sites ride at the end: site RNG streams are keyed by
    # (index, name), so appending keeps every earlier site's schedule
    # for a given plan seed byte-identical to pre-streaming plans.
    SiteModel(
        "streaming.ingest.line", ("truncate", "garble"), horizon=64
    ),
    SiteModel("service.stream.chunk", ("delay", "error", "reject")),
    # Sharded-service sites (PR 10), appended for the same reason:
    # shard.kill SIGKILLs one worker shard from the router's health
    # tick (the supervisor restarts it the same tick), jobstore.truncate
    # tears the tail off one journal append (replay must skip exactly
    # that line), quota.clock skews the quota table's observed clock
    # backwards (buckets must never over-admit or go negative).
    SiteModel("service.shard.kill", ("error",), max_faults=1, horizon=8),
    SiteModel("service.jobstore.truncate", ("truncate",)),
    SiteModel("service.quota.clock", ("delay",)),
)

#: The soak's site model: every fault here degrades without failing a
#: job outright, so each accepted request still terminates in exactly
#: one of {result, 429, 504} — the invariant the soak asserts.
SOAK_SITES = (
    SiteModel("runner.executor.pool", ("break_pool",), max_faults=1, horizon=2),
    SiteModel("runner.cache.load", ("io_error",)),
    SiteModel("runner.cache.store", ("io_error",)),
    SiteModel("service.worker.run", ("delay",)),
    SiteModel("service.scheduler.admit", ("reject",)),
)


def site_models(names: list[str] | tuple[str, ...]) -> tuple[SiteModel, ...]:
    """The subset of :data:`DEFAULT_SITES` with the given names."""
    by_name = {model.site: model for model in DEFAULT_SITES}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        raise ValueError(
            f"unknown fault sites {unknown}; "
            f"known: {sorted(by_name)}"
        )
    return tuple(by_name[name] for name in names)


def _site_rng(plan_seed: int, index: int, site: str) -> random.Random:
    """The site's private RNG, per the runner's seed discipline.

    ``derive_seed`` keeps the (plan seed, site index) -> base-seed map
    centralized with the runner's; mixing in the site *name* decorrelates
    adjacent plan seeds (``derive_seed`` is additive).  String seeding
    goes through SHA-512 inside ``random.Random``, so the stream is
    stable across platforms and immune to hash randomization.
    """
    # Imported here, not at module level: the executors import the chaos
    # controller, so a module-level runner import would be circular.
    from ..runner.spec import derive_seed

    return random.Random(f"{derive_seed(plan_seed, index)}:{site}")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault schedule over the stack's injection points.

    ``events`` maps site name to ``{invocation index: Fault}``; the
    controller fires the fault whose index matches the site's running
    invocation count.  ``seed`` records the integer the plan was derived
    from (``None`` for hand-built plans) so failures can print a replay
    command.
    """

    events: dict[str, dict[int, Fault]] = field(default_factory=dict)
    seed: int | None = None

    @classmethod
    def from_seed(
        cls,
        seed: int,
        *,
        sites: tuple[SiteModel, ...] = DEFAULT_SITES,
    ) -> "FaultPlan":
        """Derive the full fault schedule from one integer seed."""
        if seed < 0:
            raise ValueError(f"plan seed must be non-negative, got {seed}")
        events: dict[str, dict[int, Fault]] = {}
        for index, model in enumerate(sites):
            rng = _site_rng(seed, index, model.site)
            count = rng.randint(0, model.max_faults)
            if count == 0:
                continue
            invocations = sorted(rng.sample(range(model.horizon), count))
            site_events: dict[int, Fault] = {}
            for invocation in invocations:
                kind = rng.choice(model.kinds)
                site_events[invocation] = Fault(
                    kind=kind,
                    delay_s=(
                        rng.choice(DELAY_CHOICES_S) if kind == "delay" else 0.0
                    ),
                    trim=(
                        rng.choice(_TRIM_CHOICES) if kind == "truncate" else 0
                    ),
                )
            events[model.site] = site_events
        return cls(events=events, seed=seed)

    @classmethod
    def single(
        cls, site: str, fault: Fault, *, at: int = 0
    ) -> "FaultPlan":
        """A hand-built plan with exactly one fault (scenario tests)."""
        return cls(events={site: {at: fault}})

    def faults_for(self, site: str) -> dict[int, Fault]:
        """The site's scheduled faults (empty for uninstrumented sites)."""
        return self.events.get(site, {})

    @property
    def total_faults(self) -> int:
        """How many faults the plan schedules across all sites."""
        return sum(len(faults) for faults in self.events.values())

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict (invocation keys become strings)."""
        return {
            "seed": self.seed,
            "events": {
                site: {
                    str(invocation): fault.to_dict()
                    for invocation, fault in sorted(faults.items())
                }
                for site, faults in sorted(self.events.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`to_dict`."""
        return cls(
            seed=data.get("seed"),
            events={
                site: {
                    int(invocation): Fault.from_dict(fault)
                    for invocation, fault in faults.items()
                }
                for site, faults in data.get("events", {}).items()
            },
        )

    def describe(self) -> str:
        """A human-readable schedule table (the CLI's output)."""
        header = (
            f"fault plan (seed={self.seed}, "
            f"{self.total_faults} faults)"
        )
        if not self.events:
            return header + "\n  (no faults scheduled)"
        lines = [header]
        for site in sorted(self.events):
            for invocation, fault in sorted(self.events[site].items()):
                detail = ""
                if fault.kind == "delay":
                    detail = f" delay_s={fault.delay_s}"
                elif fault.kind == "truncate":
                    detail = f" trim={fault.trim}"
                lines.append(
                    f"  {site:<28} @{invocation:<3} {fault.kind}{detail}"
                )
        return "\n".join(lines)
