"""Tests for trace replay through throttles (the Section 7 tradeoff)."""

from __future__ import annotations

import statistics

import pytest

from repro.throttle.base import Action, Throttle
from repro.throttle.dns_throttle import DnsThrottle
from repro.throttle.replay import (
    ReplayResult,
    replay_class,
    replay_host,
    worm_slowdown,
)
from repro.throttle.williamson import WilliamsonThrottle
from repro.traces.dns import DnsCache
from repro.traces.records import HostClass, Trace


def scan_one_host(trace: Trace, host: int, throttle: Throttle) -> ReplayResult:
    """Reference replay: one full scan of the trace for one host.

    The per-host loop the one-pass replay replaced, kept as its oracle.
    """
    dns = DnsCache()
    offered = 0
    max_delay = 0.0
    total_delay = 0.0
    delayed = 0
    first_time: float | None = None
    last_release = 0.0
    for record in trace:
        dns.observe(record)
        if (
            record.dst == host
            and not trace.is_internal(record.src)
            and record.initiates_contact
            and isinstance(throttle, DnsThrottle)
        ):
            throttle.note_inbound(record.src)
        if record.src != host or trace.is_internal(record.dst):
            continue
        if not record.initiates_contact:
            continue
        decision = throttle.offer(
            record.time,
            record.dst,
            dns_valid=dns.has_valid_translation(host, record.dst, record.time),
        )
        offered += 1
        if first_time is None:
            first_time = record.time
        last_release = max(last_release, decision.release_time, record.time)
        if decision.action is Action.DELAY:
            delayed += 1
            d = decision.delay(record.time)
            total_delay += d
            max_delay = max(max_delay, d)

    if offered == 0 or first_time is None:
        return ReplayResult(
            scheme=throttle.name,
            contacts=0,
            delayed_fraction=0.0,
            mean_delay=0.0,
            max_delay=0.0,
            natural_rate=0.0,
            effective_rate=0.0,
        )
    natural_span = max(trace.duration, 1e-9)
    effective_span = max(last_release - first_time, natural_span, 1e-9)
    return ReplayResult(
        scheme=throttle.name,
        contacts=offered,
        delayed_fraction=delayed / offered,
        mean_delay=total_delay / offered,
        max_delay=max_delay,
        natural_rate=offered / natural_span,
        effective_rate=offered / effective_span,
    )


class TestOnePassMatchesPerHostScan:
    @pytest.mark.parametrize("factory", [WilliamsonThrottle, DnsThrottle])
    @pytest.mark.parametrize(
        "host_class",
        [
            HostClass.NORMAL,
            HostClass.SERVER,
            # The only class here that contacts addresses which contacted
            # it first: without it, dropped inbound notes go unseen.
            HostClass.P2P,
            HostClass.WORM_BLASTER,
            HostClass.WORM_WELCHIA,
        ],
    )
    def test_results_equal_exactly(self, small_trace, factory, host_class):
        hosts = small_trace.hosts_of_class(host_class)
        assert hosts
        expected = [
            scan_one_host(small_trace, host, factory()) for host in hosts
        ]
        assert any(r.contacts for r in expected)
        assert replay_class(small_trace, host_class, factory) == expected


class TestReplayHost:
    def test_normal_host_unharmed_by_dns_throttle(self, small_trace):
        host = small_trace.hosts_of_class(HostClass.NORMAL)[0]
        result = replay_host(small_trace, host, DnsThrottle())
        assert result.delayed_fraction < 0.05
        assert result.mean_delay < 0.5

    def test_worm_host_squeezed_by_dns_throttle(self, small_trace):
        host = small_trace.hosts_of_class(HostClass.WORM_BLASTER)[0]
        result = replay_host(small_trace, host, DnsThrottle())
        assert result.slowdown > 5.0
        assert result.delayed_fraction > 0.5

    def test_host_with_no_traffic(self, small_trace):
        """A host that never initiates outbound yields a zero result, not
        an error (servers can look like this in short traces)."""
        # Use an address guaranteed quiet: craft via a server host and a
        # throttle; even if it has traffic the result must be well-formed.
        host = small_trace.hosts_of_class(HostClass.SERVER)[0]
        result = replay_host(small_trace, host, DnsThrottle())
        assert result.contacts >= 0
        assert result.natural_rate >= 0

    def test_scheme_name_recorded(self, small_trace):
        host = small_trace.hosts_of_class(HostClass.NORMAL)[0]
        result = replay_host(small_trace, host, WilliamsonThrottle())
        assert result.scheme == "williamson_ip_throttle"


class TestReplayClass:
    def test_normal_class_mostly_unaffected(self, small_trace):
        results = replay_class(
            small_trace, HostClass.NORMAL, WilliamsonThrottle,
            limit_hosts=25,
        )
        active = [r for r in results if r.contacts > 0]
        assert active
        mean_delay = statistics.mean(r.mean_delay for r in active)
        assert mean_delay < 0.5

    def test_worm_class_heavily_slowed(self, small_trace):
        blaster = replay_class(
            small_trace, HostClass.WORM_BLASTER, WilliamsonThrottle
        )
        assert worm_slowdown(blaster) > 1.5

    def test_dns_throttle_beats_ip_throttle_on_worms(self, small_trace):
        """The Figure 10 conclusion at host level: the DNS scheme slows
        worms harder for the same legitimate impact."""
        blaster_ip = worm_slowdown(
            replay_class(small_trace, HostClass.WORM_BLASTER,
                         WilliamsonThrottle)
        )
        blaster_dns = worm_slowdown(
            replay_class(small_trace, HostClass.WORM_BLASTER, DnsThrottle)
        )
        assert blaster_dns > blaster_ip

    def test_welchia_slowed_more_than_blaster(self, small_trace):
        """Welchia scans an order of magnitude faster, so a fixed-rate
        throttle slows it by a proportionally larger factor."""
        blaster = worm_slowdown(
            replay_class(small_trace, HostClass.WORM_BLASTER, DnsThrottle)
        )
        welchia = worm_slowdown(
            replay_class(small_trace, HostClass.WORM_WELCHIA, DnsThrottle)
        )
        assert welchia > 2 * blaster

    def test_worm_slowdown_needs_results(self):
        with pytest.raises(ValueError):
            worm_slowdown([])
