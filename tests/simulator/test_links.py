"""Tests for token buckets and the oracle's rate-limited directed links."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.links import TokenBucket

from ..oracle import DirectedLink, Packet, PacketKind


def make_packet(i: int = 0) -> Packet:
    return Packet(src=0, dst=9, kind=PacketKind.INFECTION, created_tick=i)


class TestTokenBucket:
    def test_starts_empty(self):
        bucket = TokenBucket(0.5)
        assert bucket.tokens == 0.0
        bucket.refill()
        assert bucket.tokens == pytest.approx(0.5)

    def test_fractional_rate_accumulates(self):
        bucket = TokenBucket(0.25)
        # Four refills accrue exactly one token.
        assert not bucket.try_consume()
        for _ in range(4):
            bucket.refill()
        assert bucket.try_consume()
        assert not bucket.try_consume()

    def test_burst_cap(self):
        bucket = TokenBucket(2.0)
        for _ in range(10):
            bucket.refill()
        assert bucket.tokens == pytest.approx(3.0)  # rate + 1 cap

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(-1.0)

    def test_rejects_zero_burst(self):
        with pytest.raises(ValueError):
            TokenBucket(1.0, burst=0.0)

    @given(st.floats(min_value=0.01, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_long_run_throughput_matches_rate(self, rate):
        """Over many ticks, forwarded count ~= rate * ticks."""
        bucket = TokenBucket(rate)
        ticks = 400
        sent = 0
        for _ in range(ticks):
            bucket.refill()
            while bucket.try_consume():
                sent += 1
        assert sent <= rate * (ticks + 1) + 1
        assert sent >= rate * ticks - 1


class TestDirectedLink:
    def test_unlimited_link_forwards_everything(self):
        link = DirectedLink(0, 1)
        for i in range(50):
            link.offer(make_packet(i))
        assert len(link.drain()) == 50
        assert link.queue_length == 0

    def test_limited_link_queues_excess(self):
        link = DirectedLink(0, 1, rate_limit=2.0)
        for i in range(5):
            link.offer(make_packet(i))
        first = link.drain()
        assert len(first) == 2
        assert link.queue_length == 3
        second = link.drain()
        assert len(second) == 2

    def test_fifo_order_preserved(self):
        link = DirectedLink(0, 1, rate_limit=1.0)
        packets = [make_packet(i) for i in range(3)]
        for p in packets:
            link.offer(p)
        drained = []
        for _ in range(5):
            drained.extend(link.drain())
        assert drained == packets

    def test_drain_increments_hops(self):
        link = DirectedLink(0, 1)
        packet = make_packet()
        link.offer(packet)
        link.drain()
        assert packet.hops == 1

    def test_drop_tail_when_full(self):
        link = DirectedLink(0, 1, rate_limit=1.0, max_queue=3)
        results = [link.offer(make_packet(i)) for i in range(5)]
        assert results == [True, True, True, False, False]
        assert link.stats.dropped == 2
        assert link.stats.enqueued == 3

    def test_set_rate_limit_toggles(self):
        link = DirectedLink(0, 1)
        assert not link.is_rate_limited
        link.set_rate_limit(0.5)
        assert link.is_rate_limited
        assert link.rate_limit == 0.5
        link.set_rate_limit(None)
        assert not link.is_rate_limited

    def test_stats_track_peak_queue(self):
        link = DirectedLink(0, 1, rate_limit=1.0)
        for i in range(4):
            link.offer(make_packet(i))
        assert link.stats.peak_queue == 4

    def test_fractional_rate_long_run(self):
        link = DirectedLink(0, 1, rate_limit=0.1)
        for i in range(10):
            link.offer(make_packet(i))
        forwarded = sum(len(link.drain()) for _ in range(100))
        assert 9 <= forwarded <= 10

    def test_rejects_bad_queue_size(self):
        with pytest.raises(ValueError):
            DirectedLink(0, 1, max_queue=0)
