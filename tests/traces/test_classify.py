"""Tests for behavioural host classification."""

from __future__ import annotations

from repro.traces.classify import census, classify_hosts, profile_hosts
from repro.traces.records import HostClass

#: The two worm infections among the ground-truth classes.
WORMS = (HostClass.WORM_BLASTER, HostClass.WORM_WELCHIA)


class TestProfiles:
    def test_profiles_cover_all_hosts(self, small_trace):
        profiles = profile_hosts(small_trace)
        assert set(profiles) == set(small_trace.internal_hosts)

    def test_worm_profiles_show_scanning(self, small_trace):
        profiles = profile_hosts(small_trace)
        for host in small_trace.hosts_of_class(HostClass.WORM_BLASTER):
            assert profiles[host].scans_dcom
            assert profiles[host].peak_per_minute > 20
        for host in small_trace.hosts_of_class(HostClass.WORM_WELCHIA):
            assert profiles[host].icmp_echoes > 100

    def test_server_profiles_inbound_heavy(self, small_trace):
        profiles = profile_hosts(small_trace)
        for host in small_trace.hosts_of_class(HostClass.SERVER):
            profile = profiles[host]
            assert profile.inbound_service_hits > 0
            assert profile.inbound_initiations > profile.outbound_initiations

    def test_normal_profiles_resolve_names(self, small_trace):
        profiles = profile_hosts(small_trace)
        ratios = [
            profiles[h].dns_ratio
            for h in small_trace.hosts_of_class(HostClass.NORMAL)
            if profiles[h].outbound_initiations > 3
        ]
        assert sum(ratios) / len(ratios) > 0.3


class TestClassification:
    def test_high_accuracy_against_ground_truth(self, small_trace):
        classes = classify_hosts(small_trace)
        errors = sum(
            1
            for host, truth in small_trace.labels.items()
            if classes[host] is not truth
        )
        assert errors <= 0.05 * len(small_trace.labels)

    def test_worms_never_classified_normal(self, small_trace):
        """Missing a worm is the costly error; require zero."""
        classes = classify_hosts(small_trace)
        for host, truth in small_trace.labels.items():
            if truth in WORMS:
                assert classes[host] in WORMS

    def test_census_counts(self, small_trace):
        counts = census(classify_hosts(small_trace))
        assert sum(counts.values()) == len(small_trace.internal_hosts)
        assert counts.get(HostClass.WORM_BLASTER, 0) >= 3
        assert counts.get(HostClass.WORM_WELCHIA, 0) >= 2

    def test_census_of_empty(self):
        assert census({}) == {}
