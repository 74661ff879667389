"""Tests for the Williamson working-set throttle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.throttle.base import Action
from repro.throttle.williamson import WilliamsonThrottle


class TestWorkingSet:
    def test_repeat_contacts_never_delayed(self):
        throttle = WilliamsonThrottle(working_set_size=5)
        throttle.offer(0.0, dst=100)
        for i in range(1, 50):
            decision = throttle.offer(float(i) * 0.01, dst=100)
            assert decision.action is Action.FORWARD

    def test_small_working_set_rotates_lru(self):
        throttle = WilliamsonThrottle(working_set_size=2, service_period=1.0)
        throttle.offer(0.0, dst=1)
        throttle.offer(10.0, dst=2)
        throttle.offer(20.0, dst=3)  # evicts 1; backlog until t=21
        # Residents pass despite the backlog ...
        assert throttle.offer(20.1, dst=2).action is Action.FORWARD
        assert throttle.offer(20.2, dst=3).action is Action.FORWARD
        # ... while re-contacting 1 is a "new" address again and queues.
        assert throttle.offer(20.3, dst=1).action is Action.DELAY

    def test_touch_refreshes_lru_order(self):
        throttle = WilliamsonThrottle(working_set_size=2)
        throttle.offer(0.0, dst=1)
        throttle.offer(10.0, dst=2)
        throttle.offer(20.0, dst=1)  # refresh 1
        throttle.offer(30.0, dst=3)  # evicts 2, not 1; backlog until t=31
        assert throttle.offer(30.1, dst=1).action is Action.FORWARD
        assert throttle.offer(30.2, dst=3).action is Action.FORWARD
        assert throttle.offer(30.3, dst=2).action is Action.DELAY


class TestDelayQueue:
    def test_idle_server_forwards_immediately(self):
        throttle = WilliamsonThrottle(service_period=1.0)
        assert throttle.offer(5.0, dst=1).action is Action.FORWARD

    def test_burst_of_new_addresses_queues_linearly(self):
        throttle = WilliamsonThrottle(service_period=1.0,
                                      working_set_size=1)
        decisions = [throttle.offer(0.0, dst=i) for i in range(5)]
        releases = [d.release_time for d in decisions]
        assert releases == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert decisions[0].action is Action.FORWARD
        assert all(d.action is Action.DELAY for d in decisions[1:])

    def test_backlog_drains_during_quiet_time(self):
        throttle = WilliamsonThrottle(service_period=1.0, working_set_size=1)
        for i in range(5):
            throttle.offer(0.0, dst=i)
        # Long quiet period: the next new contact goes out immediately.
        assert throttle.offer(100.0, dst=77).action is Action.FORWARD

    def test_worm_effective_rate_capped_at_service_rate(self):
        """A scanner offering 10 new addresses/second is squeezed to ~1/s."""
        throttle = WilliamsonThrottle(service_period=1.0, working_set_size=5)
        last_release = 0.0
        n = 200
        for i in range(n):
            decision = throttle.offer(i * 0.1, dst=1000 + i)
            last_release = max(last_release, decision.release_time)
        effective_rate = n / last_release
        assert effective_rate == pytest.approx(1.0, rel=0.1)

    def test_stats(self):
        throttle = WilliamsonThrottle(service_period=1.0, working_set_size=1)
        for i in range(3):
            throttle.offer(0.0, dst=i)
        assert throttle.stats.offered == 3
        assert throttle.stats.delayed == 2
        assert throttle.stats.mean_delay > 0
        assert throttle.stats.delay_fraction == pytest.approx(2 / 3)

    def test_out_of_order_offers_rejected(self):
        throttle = WilliamsonThrottle()
        throttle.offer(5.0, dst=1)
        with pytest.raises(ValueError, match="time-ordered"):
            throttle.offer(4.0, dst=2)

    def test_validation(self):
        with pytest.raises(ValueError):
            WilliamsonThrottle(working_set_size=0)
        with pytest.raises(ValueError):
            WilliamsonThrottle(service_period=0.0)


class TestProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100),
                st.integers(min_value=0, max_value=30),
            ),
            min_size=1,
            max_size=80,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_release_never_before_offer(self, events):
        throttle = WilliamsonThrottle()
        for t, dst in sorted(events):
            decision = throttle.offer(t, dst=dst)
            assert decision.release_time >= t

    @given(st.integers(min_value=1, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_delayed_releases_spaced_by_period(self, burst):
        throttle = WilliamsonThrottle(service_period=2.0, working_set_size=1)
        releases = sorted(
            throttle.offer(0.0, dst=i).release_time for i in range(burst)
        )
        for a, b in zip(releases, releases[1:]):
            assert b - a >= 2.0 - 1e-9
