"""Tests for windowed contact counting and its refinements."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.records import FlowRecord, Protocol, Trace, TraceError
from repro.traces.windows import (
    Refinement,
    WindowCounts,
    count_contacts,
    per_host_counts,
)

HOST = 10
OTHER = 11


def syn(t: float, src: int, dst: int) -> FlowRecord:
    return FlowRecord(time=t, src=src, dst=dst, protocol=Protocol.TCP,
                      src_port=40000, dst_port=80, tcp_syn=True)


def dns_pair(t: float, client: int, resolved: int) -> list[FlowRecord]:
    return [
        FlowRecord(time=t, src=client, dst=999, protocol=Protocol.UDP,
                   src_port=33000, dst_port=53),
        FlowRecord(time=t + 0.01, src=999, dst=client, protocol=Protocol.UDP,
                   src_port=53, dst_port=33000, dns_answer=resolved),
    ]


def make_trace(records, hosts=(HOST, OTHER)) -> Trace:
    return Trace(records, internal_hosts=hosts)


class TestWindowCounts:
    def test_percentile(self):
        counts = WindowCounts(5.0, Refinement.ALL, tuple(range(100)))
        assert counts.percentile(0.5) == 49
        assert counts.percentile(1.0) == 99
        with pytest.raises(TraceError):
            counts.percentile(0.0)

    def test_empty(self):
        counts = WindowCounts(5.0, Refinement.ALL, ())
        assert counts.max() == 0


class TestCountContacts:
    def test_basic_distinct_count(self):
        trace = make_trace([
            syn(1.0, HOST, 100), syn(2.0, HOST, 200), syn(3.0, HOST, 100),
        ])
        counts = count_contacts(trace, {HOST}, window=5.0)
        assert counts.counts == (2,)

    def test_windows_reset_counting(self):
        trace = make_trace([syn(1.0, HOST, 100), syn(6.0, HOST, 100)])
        counts = count_contacts(trace, {HOST}, window=5.0)
        assert counts.counts == (1, 1)

    def test_empty_windows_included(self):
        trace = make_trace([syn(0.5, HOST, 100), syn(21.0, HOST, 200)])
        counts = count_contacts(trace, {HOST}, window=5.0)
        assert counts.counts == (1, 0, 0, 0, 1)

    def test_aggregate_over_hosts_uses_pairs(self):
        trace = make_trace([syn(1.0, HOST, 100), syn(2.0, OTHER, 100)])
        counts = count_contacts(trace, {HOST, OTHER}, window=5.0)
        # Same destination from two hosts counts twice (per-host sets).
        assert counts.counts == (2,)

    def test_non_initiating_records_ignored(self):
        ack = FlowRecord(time=1.0, src=HOST, dst=100, protocol=Protocol.TCP)
        trace = make_trace([ack])
        counts = count_contacts(trace, {HOST})
        assert counts.counts == (1 * 0,)

    def test_internal_destinations_ignored(self):
        trace = make_trace([syn(1.0, HOST, OTHER)])
        counts = count_contacts(trace, {HOST})
        assert counts.counts == (0,)

    def test_no_prior_refinement_excludes_replies(self):
        trace = make_trace([
            syn(1.0, 500, HOST),     # remote initiates first
            syn(2.0, HOST, 500),     # reply: excluded
            syn(3.0, HOST, 600),     # fresh contact: counted
        ])
        all_counts = count_contacts(trace, {HOST}, refinement=Refinement.ALL)
        refined = count_contacts(trace, {HOST}, refinement=Refinement.NO_PRIOR)
        assert all_counts.counts == (2,)
        assert refined.counts == (1,)

    def test_prior_contact_is_causal(self):
        trace = make_trace([
            syn(1.0, HOST, 500),     # we contact them FIRST: counted
            syn(2.0, 500, HOST),     # their later contact doesn't absolve
            syn(3.0, HOST, 600),
        ])
        refined = count_contacts(trace, {HOST}, refinement=Refinement.NO_PRIOR)
        assert refined.counts == (2,)

    def test_no_dns_refinement_excludes_resolved(self):
        records = dns_pair(0.5, HOST, 700) + [
            syn(1.0, HOST, 700),     # resolved: excluded
            syn(2.0, HOST, 800),     # raw address: counted
        ]
        trace = make_trace(records)
        refined = count_contacts(trace, {HOST}, refinement=Refinement.NO_DNS)
        assert refined.counts == (1,)

    def test_dns_ttl_expiry_reexposes_contact(self):
        records = dns_pair(0.0, HOST, 700) + [syn(100.0, HOST, 700)]
        trace = make_trace(records)
        refined = count_contacts(
            trace, {HOST}, refinement=Refinement.NO_DNS, dns_ttl=10.0
        )
        assert sum(refined.counts) == 1

    def test_other_hosts_translations_dont_help(self):
        records = dns_pair(0.5, OTHER, 700) + [syn(1.0, HOST, 700)]
        trace = make_trace(records)
        refined = count_contacts(trace, {HOST}, refinement=Refinement.NO_DNS)
        assert sum(refined.counts) == 1

    def test_rejects_unknown_hosts(self):
        trace = make_trace([syn(1.0, HOST, 100)])
        with pytest.raises(TraceError):
            count_contacts(trace, {12345})

    def test_rejects_bad_window(self):
        trace = make_trace([syn(1.0, HOST, 100)])
        with pytest.raises(TraceError):
            count_contacts(trace, {HOST}, window=0)

    def test_refinements_are_nested(self, small_trace):
        """ALL >= NO_PRIOR >= NO_DNS pointwise on any real trace."""
        hosts = set(small_trace.internal_hosts)
        all_c = count_contacts(small_trace, hosts, refinement=Refinement.ALL)
        no_prior = count_contacts(small_trace, hosts,
                                  refinement=Refinement.NO_PRIOR)
        no_dns = count_contacts(small_trace, hosts,
                                refinement=Refinement.NO_DNS)
        for a, b, c in zip(all_c.counts, no_prior.counts, no_dns.counts):
            assert a >= b >= c


class TestPerHostCounts:
    def test_matches_single_host_aggregate(self, small_trace):
        hosts = sorted(small_trace.internal_hosts)[:5]
        per_host = per_host_counts(small_trace, hosts)
        for host in hosts:
            single = count_contacts(small_trace, {host})
            assert per_host[host].counts == single.counts

    def test_rejects_unknown_hosts(self, small_trace):
        with pytest.raises(TraceError):
            per_host_counts(small_trace, [1])


@st.composite
def synthetic_outbound(draw):
    times = draw(
        st.lists(st.floats(min_value=0, max_value=59), min_size=1,
                 max_size=60)
    )
    dsts = draw(
        st.lists(st.integers(min_value=100, max_value=115),
                 min_size=len(times), max_size=len(times))
    )
    return sorted(zip(times, dsts))


class TestBruteForceProperty:
    @given(synthetic_outbound())
    @settings(max_examples=50, deadline=None)
    def test_counts_match_brute_force(self, events):
        records = [syn(t, HOST, dst) for t, dst in events]
        trace = make_trace(records)
        window = 5.0
        counts = count_contacts(trace, {HOST}, window=window)
        # Brute force: bucket by floor(t / window), count distinct dsts.
        buckets: dict[int, set[int]] = {}
        for t, dst in events:
            buckets.setdefault(int(t // window), set()).add(dst)
        for index, count in enumerate(counts.counts):
            assert count == len(buckets.get(index, set()))
