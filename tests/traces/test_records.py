"""Tests for flow records, addresses, and trace (de)serialization."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.records import (
    FlowRecord,
    HostClass,
    Protocol,
    Trace,
    TraceError,
    ip_to_str,
    str_to_ip,
)


class TestAddresses:
    def test_round_trip_known_value(self):
        assert ip_to_str(0x0A010001) == "10.1.0.1"
        assert str_to_ip("10.1.0.1") == 0x0A010001

    def test_rejects_bad_strings(self):
        for bad in ("1.2.3", "1.2.3.4.5", "a.b.c.d", "256.0.0.1", "-1.0.0.0"):
            with pytest.raises(TraceError):
                str_to_ip(bad)

    def test_rejects_out_of_range_int(self):
        with pytest.raises(TraceError):
            ip_to_str(1 << 32)

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, ip):
        assert str_to_ip(ip_to_str(ip)) == ip


def tcp_syn(t: float, src: int, dst: int, port: int = 80) -> FlowRecord:
    return FlowRecord(
        time=t, src=src, dst=dst, protocol=Protocol.TCP,
        src_port=40000, dst_port=port, tcp_syn=True,
    )


class TestFlowRecord:
    def test_validation(self):
        with pytest.raises(TraceError):
            FlowRecord(time=-1, src=1, dst=2, protocol=Protocol.TCP)
        with pytest.raises(TraceError):
            FlowRecord(time=0, src=1 << 33, dst=2, protocol=Protocol.TCP)
        with pytest.raises(TraceError):
            FlowRecord(time=0, src=1, dst=2, protocol=Protocol.TCP,
                       dst_port=70000)
        with pytest.raises(TraceError, match="dns_answer"):
            FlowRecord(time=0, src=1, dst=2, protocol=Protocol.TCP,
                       dns_answer=5)

    def test_initiates_contact_semantics(self):
        assert tcp_syn(0, 1, 2).initiates_contact
        ack = FlowRecord(time=0, src=1, dst=2, protocol=Protocol.TCP)
        assert not ack.initiates_contact
        echo = FlowRecord(time=0, src=1, dst=2, protocol=Protocol.ICMP,
                          icmp_echo=True)
        assert echo.initiates_contact
        dns_query = FlowRecord(time=0, src=1, dst=2, protocol=Protocol.UDP,
                               dst_port=53)
        assert not dns_query.initiates_contact
        udp_data = FlowRecord(time=0, src=1, dst=2, protocol=Protocol.UDP,
                              dst_port=6346)
        assert udp_data.initiates_contact

    def test_dns_answer_flag(self):
        answer = FlowRecord(time=0, src=1, dst=2, protocol=Protocol.UDP,
                            src_port=53, dns_answer=99)
        assert answer.is_dns_answer
        assert not answer.initiates_contact


class TestTrace:
    def make_trace(self) -> Trace:
        records = [tcp_syn(2.0, 10, 200), tcp_syn(1.0, 10, 300),
                   tcp_syn(3.0, 400, 10)]
        return Trace(records, internal_hosts=[10],
                     labels={10: HostClass.NORMAL})

    def test_records_sorted_by_time(self):
        trace = self.make_trace()
        times = [r.time for r in trace]
        assert times == sorted(times)

    def test_direction_helpers(self):
        trace = self.make_trace()
        assert len(list(trace.inbound_records())) == 1

    def test_duration(self):
        assert self.make_trace().duration == pytest.approx(2.0)

    def test_needs_internal_hosts(self):
        with pytest.raises(TraceError):
            Trace([], internal_hosts=[])

    def test_labels_must_be_internal(self):
        with pytest.raises(TraceError, match="non-internal"):
            Trace([tcp_syn(0, 10, 20)], internal_hosts=[10],
                  labels={99: HostClass.NORMAL})

    def test_hosts_of_class(self):
        trace = self.make_trace()
        assert trace.hosts_of_class(HostClass.NORMAL) == [10]
        assert trace.hosts_of_class(HostClass.P2P) == []

    def test_records_from(self):
        trace = self.make_trace()
        assert len(trace.records_from(10)) == 2


class TestCsvRoundTrip:
    def test_round_trip(self):
        records = [
            tcp_syn(1.5, 10, 200),
            FlowRecord(time=2.0, src=300, dst=10, protocol=Protocol.UDP,
                       src_port=53, dst_port=33000, dns_answer=424242),
            FlowRecord(time=2.5, src=10, dst=500, protocol=Protocol.ICMP,
                       icmp_echo=True),
        ]
        trace = Trace(records, internal_hosts=[10])
        restored = Trace.from_csv(trace.to_csv(), internal_hosts=[10])
        assert len(restored) == 3
        for a, b in zip(trace, restored):
            assert a == b

    def test_malformed_csv_rejected(self):
        good = Trace([tcp_syn(1.0, 10, 20)], internal_hosts=[10]).to_csv()
        corrupted = good.replace("tcp", "carrier-pigeon")
        with pytest.raises(TraceError, match="malformed"):
            Trace.from_csv(corrupted, internal_hosts=[10])
