"""Tests for the synthetic campus-trace generator and its calibration."""

from __future__ import annotations

import pytest

from repro.traces.records import HostClass, Protocol, TraceError
from repro.traces.synth import INTERNAL_BASE, TraceConfig, generate_trace


def records_from(trace, host: int) -> list:
    """All records originated by ``host``."""
    return [r for r in trace if r.src == host]


def inbound_records(trace) -> list:
    """Records entering the network (external src, internal dst)."""
    return [
        r for r in trace
        if not trace.is_internal(r.src) and trace.is_internal(r.dst)
    ]


class TestConfig:
    def test_defaults_match_paper_census(self):
        config = TraceConfig()
        assert config.num_normal == 999
        assert config.num_servers == 17
        assert config.num_p2p == 33
        assert config.num_blaster + config.num_welchia == 79
        assert config.num_hosts == 1128

    def test_rejects_bad_duration(self):
        with pytest.raises(TraceError):
            TraceConfig(duration=0)

    def test_rejects_all_zero_hosts(self):
        with pytest.raises(TraceError):
            TraceConfig(num_normal=0, num_servers=0, num_p2p=0,
                        num_blaster=0, num_welchia=0)


class TestGeneration:
    def test_labels_cover_all_hosts(self, small_trace):
        assert len(small_trace.labels) == len(small_trace.internal_hosts)
        assert len(small_trace.hosts_of_class(HostClass.NORMAL)) == 80
        assert len(small_trace.hosts_of_class(HostClass.WORM_BLASTER)) == 4

    def test_deterministic_for_seed(self):
        config = TraceConfig(duration=30, seed=5, num_normal=10,
                             num_servers=1, num_p2p=1, num_blaster=1,
                             num_welchia=1)
        a = generate_trace(config)
        b = generate_trace(config)
        assert len(a) == len(b)
        assert all(x == y for x, y in zip(a, b))

    def test_different_seeds_differ(self):
        base = dict(duration=30, num_normal=10, num_servers=1, num_p2p=1,
                    num_blaster=1, num_welchia=1)
        a = generate_trace(TraceConfig(seed=1, **base))
        b = generate_trace(TraceConfig(seed=2, **base))
        assert any(x != y for x, y in zip(a, b)) or len(a) != len(b)

    def test_internal_addresses_in_plan(self, small_trace):
        for host in small_trace.internal_hosts:
            assert host >= INTERNAL_BASE

    def test_timestamps_within_duration(self, small_trace):
        # DNS answers may land just past the horizon (+30 ms); allow that.
        assert all(0 <= r.time <= 120.0 + 1.0 for r in small_trace)

    def test_blaster_hosts_scan_dcom_port(self, small_trace):
        for host in small_trace.hosts_of_class(HostClass.WORM_BLASTER):
            records = records_from(small_trace, host)
            dcom = [r for r in records if r.dst_port == 135 and r.tcp_syn]
            assert len(dcom) > 50
            # Sequential scanning: destinations mostly distinct.
            assert len({r.dst for r in dcom}) > 0.9 * len(dcom)

    def test_welchia_hosts_ping_sweep(self, small_trace):
        welchia = small_trace.hosts_of_class(HostClass.WORM_WELCHIA)
        echoes = {
            host: sum(
                1 for r in records_from(small_trace, host)
                if r.protocol is Protocol.ICMP and r.icmp_echo
            )
            for host in welchia
        }
        assert max(echoes.values()) > 200

    def test_normal_clients_mostly_resolve_names(self, small_trace):
        normal = small_trace.hosts_of_class(HostClass.NORMAL)
        lookups = 0
        syns = 0
        for host in normal:
            for r in records_from(small_trace, host):
                if r.protocol is Protocol.UDP and r.dst_port == 53:
                    lookups += 1
                elif r.tcp_syn:
                    syns += 1
        assert lookups > 0.3 * max(syns, 1)

    def test_servers_inbound_dominated(self, small_trace):
        for host in small_trace.hosts_of_class(HostClass.SERVER):
            inbound = sum(
                1 for r in inbound_records(small_trace) if r.dst == host
            )
            outbound_initiated = sum(
                1 for r in records_from(small_trace, host)
                if r.initiates_contact
            )
            assert inbound > outbound_initiated

    def test_worm_traffic_dwarfs_normal_per_host(self, small_trace):
        def initiated(host: int) -> int:
            return sum(
                1 for r in records_from(small_trace, host)
                if r.initiates_contact
            )

        worm_hosts = small_trace.hosts_of_class(HostClass.WORM_BLASTER)
        normal_hosts = small_trace.hosts_of_class(HostClass.NORMAL)
        worst_worm = min(initiated(h) for h in worm_hosts)
        busiest_normal = max(initiated(h) for h in normal_hosts)
        assert worst_worm > busiest_normal
