"""Tests for bucketed histograms and key-wise merges."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.stats import (
    HISTOGRAM_BUCKETS,
    bucket_label,
    histogram,
    merge_counts,
    merge_seconds,
)
from repro.simulator.fastpath import FastWormSimulation
from repro.simulator.network import Network
from repro.simulator.worms import RandomScanWorm

from ..oracle import ObjectNetwork, drop_histogram, link_keys, queue_histogram


class TestBucketLabel:
    def test_boundaries(self):
        assert bucket_label(0) == "0"
        assert bucket_label(1) == "1-9"
        assert bucket_label(9) == "1-9"
        assert bucket_label(10) == "10-99"
        assert bucket_label(999) == "100-999"
        assert bucket_label(1_000) == "1000-9999"
        assert bucket_label(10_000) == "10000+"
        assert bucket_label(10 ** 9) == "10000+"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bucket_label(-1)

    def test_buckets_are_decades(self):
        assert HISTOGRAM_BUCKETS == (1, 10, 100, 1_000, 10_000)


class TestHistogram:
    def test_counts_only_nonempty_buckets(self):
        assert histogram([0, 0, 3, 12, 20_000]) == {
            "0": 2,
            "1-9": 1,
            "10-99": 1,
            "10000+": 1,
        }

    def test_empty(self):
        assert histogram([]) == {}

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=-3, max_value=12),
                st.integers(min_value=-(10**6), max_value=10**6),
                st.sampled_from([0, 1, 9, 10, 99, 100, 999, 1_000, 10_000]),
            ),
            max_size=60,
        ),
        st.booleans(),
    )
    def test_matches_sequential_bucket_label_scan(self, values, as_array):
        """Same keys, key order, counts and error as a scalar scan."""
        expected: dict[str, int] = {}
        error = None
        try:
            for value in values:
                label = bucket_label(value)
                expected[label] = expected.get(label, 0) + 1
        except ValueError as exc:
            error = str(exc)
        data = np.asarray(values, dtype=np.int64) if as_array else values
        if error is not None:
            with pytest.raises(ValueError) as raised:
                histogram(data)
            assert str(raised.value) == error
        else:
            got = histogram(data)
            assert list(got.items()) == list(expected.items())


class TestMerges:
    def test_merge_counts_keywise(self):
        merged = merge_counts([{"a": 1, "b": 2}, {"b": 3, "c": 4}, {}])
        assert merged == {"a": 1, "b": 5, "c": 4}

    def test_merge_seconds_keywise(self):
        merged = merge_seconds([{"scan": 0.5}, {"scan": 0.25, "observe": 1.0}])
        assert merged == {"scan": 0.75, "observe": 1.0}

    def test_merge_empty_iterable(self):
        assert merge_counts([]) == {}
        assert merge_seconds([]) == {}


class TestNetworkHistograms:
    def test_fresh_network_all_zero_bucket(self, small_network):
        objects = ObjectNetwork(small_network)
        assert queue_histogram(objects) == {"0": len(objects.links)}
        assert drop_histogram(objects) == {"0": len(objects.links)}

    def test_histograms_cover_every_link_after_run(self):
        network = Network.from_powerlaw(120, seed=5)
        simulation = FastWormSimulation(
            network,
            RandomScanWorm(),
            scan_rate=0.8,
            initial_infections=2,
            seed=5,
        )
        simulation.run(40)
        links = simulation.transport.link_arrays()
        queues = histogram(links.peak)
        drops = histogram(links.dropped)
        assert sum(queues.values()) == len(link_keys(network))
        assert sum(drops.values()) == len(link_keys(network))
        # A worm outbreak queues packets somewhere.
        assert set(queues) != {"0"}
