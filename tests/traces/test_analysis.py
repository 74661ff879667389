"""Tests for CDFs, rate-limit derivation, and worm peak measurement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.traces.analysis import (
    empirical_cdf,
    peak_scan_rate,
    recommend_rate_limits,
    window_size_study,
)
from repro.traces.records import (
    FlowRecord,
    HostClass,
    Protocol,
    Trace,
    TraceError,
)
from repro.traces.windows import (
    Refinement,
    WindowCounts,
    count_contacts,
    per_host_counts,
)


class TestEmpiricalCdf:
    def test_shape_and_monotonicity(self):
        counts = WindowCounts(5.0, Refinement.ALL, (3, 1, 2, 0))
        values, fractions = empirical_cdf(counts)
        assert values.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert fractions.tolist() == [0.25, 0.5, 0.75, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            empirical_cdf(WindowCounts(5.0, Refinement.ALL, ()))


class TestRecommendRateLimits:
    def test_refinements_ordered(self, small_trace):
        table = recommend_rate_limits(
            small_trace,
            small_trace.hosts_of_class(HostClass.NORMAL),
            group="normal",
        )
        assert table.all_contacts >= table.no_prior_contact >= table.no_dns
        assert table.group == "normal"
        rows = table.as_rows()
        assert len(rows) == 3

    def test_p2p_limits_exceed_normal(self, small_trace):
        normal = recommend_rate_limits(
            small_trace, small_trace.hosts_of_class(HostClass.NORMAL),
            group="normal",
        )
        p2p = recommend_rate_limits(
            small_trace, small_trace.hosts_of_class(HostClass.P2P),
            group="p2p",
        )
        assert p2p.all_contacts > normal.all_contacts

    def test_empty_group_rejected(self, small_trace):
        with pytest.raises(TraceError):
            recommend_rate_limits(small_trace, [], group="empty")


class TestWindowSizeStudy:
    def test_longer_windows_sublinear(self, small_trace):
        """The Section 7 observation: 60x window << 60x limit."""
        hosts = small_trace.hosts_of_class(HostClass.NORMAL)
        study = window_size_study(small_trace, hosts)
        assert set(study) == {1.0, 5.0, 60.0}
        assert study[1.0] <= study[5.0] <= study[60.0]
        assert study[60.0] < 60 * max(study[1.0], 1)


class TestPeakScanRate:
    def test_worm_peaks_dwarf_normal(self, small_trace):
        worm = max(
            peak_scan_rate(small_trace, h)
            for h in small_trace.hosts_of_class(HostClass.WORM_WELCHIA)
        )
        normal = max(
            peak_scan_rate(small_trace, h)
            for h in small_trace.hosts_of_class(HostClass.NORMAL)[:20]
        )
        assert worm > 20 * max(normal, 1)

    def test_welchia_order_of_magnitude_over_blaster(self, small_trace):
        welchia = max(
            peak_scan_rate(small_trace, h)
            for h in small_trace.hosts_of_class(HostClass.WORM_WELCHIA)
        )
        blaster = max(
            peak_scan_rate(small_trace, h)
            for h in small_trace.hosts_of_class(HostClass.WORM_BLASTER)
        )
        assert welchia > 4 * blaster

    def test_unknown_host_rejected(self, small_trace):
        with pytest.raises(TraceError):
            peak_scan_rate(small_trace, 1)


class TestContactRateRatio:
    """The refined-over-unrefined limit ratios behind Figure 10's model
    (gamma:beta of 1:2 for the DNS scheme, 1:6 for the IP throttle)."""

    @staticmethod
    def ratios(trace) -> dict[str, float]:
        table = recommend_rate_limits(
            trace, trace.hosts_of_class(HostClass.NORMAL), group="ratio"
        )
        assert table.all_contacts > 0
        return {
            "no_prior_over_all": table.no_prior_contact / table.all_contacts,
            "no_dns_over_all": table.no_dns / table.all_contacts,
        }

    def test_ratios_at_most_one(self, small_trace):
        ratios = self.ratios(small_trace)
        assert 0 <= ratios["no_dns_over_all"] <= 1.0
        assert 0 <= ratios["no_prior_over_all"] <= 1.0
        assert ratios["no_dns_over_all"] <= ratios["no_prior_over_all"]

    def test_dns_refinement_reduces_worm_budget_need(self, small_trace):
        """For normal hosts the DNS refinement cuts the needed limit by
        a factor ~2-4 (the paper's basis for the 1:2 vs 1:6 ratios)."""
        assert self.ratios(small_trace)["no_dns_over_all"] < 0.8


class TestWindowEdge:
    def test_record_on_an_edge_opens_the_next_window(self):
        """A record at time t falls in window ``floor(t / window)``: one
        sitting exactly on an edge is the first of the next window, for
        the window counters and the peak scan rate alike."""
        host = 10
        trace = Trace(
            [
                FlowRecord(time=t, src=host, dst=dst, protocol=Protocol.TCP,
                           src_port=40000, dst_port=135, tcp_syn=True)
                for t, dst in ((0.0, 100), (30.0, 200), (60.0, 300))
            ],
            internal_hosts=[host],
        )
        counts = per_host_counts(trace, [host], window=60.0)[host]
        assert counts.counts == (2, 1)
        assert count_contacts(trace, {host}, window=60.0).counts == (2, 1)
        assert peak_scan_rate(trace, host, window=60.0) == 2


class TestFigure9Shape:
    def test_worm_cdfs_sit_far_right_of_normal(self, small_trace):
        """Figure 9's visual: worm 5 s contact rates are 1-2 orders of
        magnitude above normal clients'."""
        normal_hosts = set(small_trace.hosts_of_class(HostClass.NORMAL))
        worm_hosts = set(
            small_trace.hosts_of_class(HostClass.WORM_BLASTER)
            + small_trace.hosts_of_class(HostClass.WORM_WELCHIA)
        )
        normal = count_contacts(small_trace, normal_hosts)
        worm = count_contacts(small_trace, worm_hosts)
        assert np.median(worm.counts) > 10 * max(np.median(normal.counts), 1)

    def test_worm_refinement_lines_nearly_coincide(self, small_trace):
        """Worm traffic spikes all three metrics: the refined counts stay
        within a few percent of the raw distinct-IP counts."""
        worm_hosts = set(
            small_trace.hosts_of_class(HostClass.WORM_BLASTER)
            + small_trace.hosts_of_class(HostClass.WORM_WELCHIA)
        )
        all_counts = count_contacts(
            small_trace, worm_hosts, refinement=Refinement.ALL
        )
        no_dns = count_contacts(
            small_trace, worm_hosts, refinement=Refinement.NO_DNS
        )
        assert sum(no_dns.counts) > 0.95 * sum(all_counts.counts)
