"""Replay trace traffic through a throttle and measure who gets hurt.

This closes the loop of Section 7: take the synthetic campus trace, run
each host's outbound contacts through a candidate throttle, and compare
the damage — legitimate hosts should see (almost) no delay, worm hosts
should see their effective contact rate collapse to the throttle's service
rate.  Every replayed host shares one time-ordered pass over the trace;
:class:`HostThrottles` is the per-record step, shared with the online
``ThrottleDetector``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..traces.dns import DEFAULT_DNS_TTL, ContactClassifier
from ..traces.records import FlowRecord, HostClass, Trace
from .base import Decision, Throttle

__all__ = [
    "HostThrottles",
    "ReplayResult",
    "replay_hosts",
    "replay_host",
    "replay_class",
    "worm_slowdown",
]

ThrottleFactory = Callable[[], Throttle]


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying one host (or one class) through a throttle.

    Attributes
    ----------
    scheme:
        Throttle name.
    contacts:
        Outbound contact attempts replayed.
    delayed_fraction:
        Fraction of contacts that were held at all.
    mean_delay:
        Mean delay in seconds over all contacts.
    max_delay:
        Worst single-contact delay.
    natural_rate:
        Contacts per second the host attempted.
    effective_rate:
        Contacts per second actually released (after throttling).
    """

    scheme: str
    contacts: int
    delayed_fraction: float
    mean_delay: float
    max_delay: float
    natural_rate: float
    effective_rate: float

    @property
    def slowdown(self) -> float:
        """Natural over effective rate (1.0 = unaffected)."""
        if self.effective_rate <= 0:
            return float("inf")
        return self.natural_rate / self.effective_rate


class HostThrottles:
    """Per-host throttles fed one time-ordered stream, record by record.

    ``throttle_for(host)`` returns the host's throttle, or ``None`` for
    hosts that are not throttled.  Outbound contacts are offered with
    the classifier's DNS state; inbound initiations reach
    ``note_inbound`` when the target's throttle tracks prior contacts.
    """

    def __init__(
        self,
        internal: Callable[[int], bool],
        throttle_for: Callable[[int], Throttle | None],
        *,
        dns_ttl: float = DEFAULT_DNS_TTL,
    ) -> None:
        self.contacts = ContactClassifier(internal, dns_ttl=dns_ttl)
        self.throttle_for = throttle_for

    def offer(self, record: FlowRecord) -> Decision | None:
        """Step one record; the decision if it was offered to a throttle."""
        contacts = self.contacts
        if contacts.observe(record):
            note = getattr(self.throttle_for(record.dst), "note_inbound", None)
            if note is not None:
                note(record.src)
            return None
        if not contacts.outbound(record):
            return None
        throttle = self.throttle_for(record.src)
        if throttle is None:
            return None
        return throttle.offer(
            record.time, record.dst,
            dns_valid=contacts.dns.has_valid_translation(
                record.src, record.dst, record.time
            ),
        )


def replay_hosts(
    trace: Trace, throttles: dict[int, Throttle]
) -> dict[int, ReplayResult]:
    """Run each host's outbound initiated contacts through its throttle.

    One time-ordered pass over ``trace`` for every host in ``throttles``
    (fresh instances: the results read their stats).
    """
    hosts = HostThrottles(trace.is_internal, throttles.get)
    first_time: dict[int, float] = {}
    last_release = dict.fromkeys(throttles, 0.0)
    max_delay = dict.fromkeys(throttles, 0.0)
    for record in trace:
        decision = hosts.offer(record)
        if decision is None:
            continue
        # A release is never before its offer (see Decision).
        host, release = record.src, decision.release_time
        if host not in first_time:
            first_time[host] = record.time
        if release > last_release[host]:
            last_release[host] = release
        if release - record.time > max_delay[host]:
            max_delay[host] = release - record.time

    natural_span = max(trace.duration, 1e-9)
    results: dict[int, ReplayResult] = {}
    for host, throttle in throttles.items():
        stats = throttle.stats
        if host not in first_time:
            results[host] = ReplayResult(
                scheme=throttle.name,
                contacts=0,
                delayed_fraction=0.0,
                mean_delay=0.0,
                max_delay=0.0,
                natural_rate=0.0,
                effective_rate=0.0,
            )
            continue
        effective_span = max(
            last_release[host] - first_time[host], natural_span, 1e-9
        )
        results[host] = ReplayResult(
            scheme=throttle.name,
            contacts=stats.offered,
            delayed_fraction=stats.delay_fraction,
            mean_delay=stats.mean_delay,
            max_delay=max_delay[host],
            natural_rate=stats.offered / natural_span,
            effective_rate=stats.offered / effective_span,
        )
    return results


def replay_host(
    trace: Trace,
    host: int,
    throttle: Throttle,
) -> ReplayResult:
    """Run ``host``'s outbound initiated contacts through ``throttle``."""
    return replay_hosts(trace, {host: throttle})[host]


def replay_class(
    trace: Trace,
    host_class: HostClass,
    throttle_factory: ThrottleFactory,
    *,
    limit_hosts: int | None = None,
) -> list[ReplayResult]:
    """Replay every host of a class through a fresh throttle instance."""
    hosts = trace.hosts_of_class(host_class)[:limit_hosts]
    results = replay_hosts(trace, {host: throttle_factory() for host in hosts})
    return [results[host] for host in hosts]


def worm_slowdown(results: list[ReplayResult]) -> float:
    """Median slowdown across a class's replay results."""
    finite = sorted(
        r.slowdown for r in results if r.contacts > 0
    )
    if not finite:
        raise ValueError("no hosts with contacts to summarize")
    return finite[len(finite) // 2]
