"""Williamson's virus throttle [17]: working set + delay queue.

The throttle keeps a small *working set* of recently contacted addresses.
A contact to an address in the working set passes untouched.  A contact to
a *new* address joins a delay queue that is served at a fixed rate (the
original paper's default: one per second); when a queued contact is
served, it is forwarded and its address enters the working set, evicting
the least-recently-used entry.

Normal traffic revisits the same few addresses and almost never waits.  A
scanning worm contacts fresh addresses every time, so its queue — and its
per-contact delay — grows without bound, capping its effective contact
rate at the service rate.
"""

from __future__ import annotations

from collections import OrderedDict

from .base import Action, Decision, Throttle

__all__ = ["WilliamsonThrottle"]


class WilliamsonThrottle(Throttle):
    """IP contact-rate throttle with an LRU working set.

    Parameters
    ----------
    working_set_size:
        Addresses remembered as "recently contacted" (default 5, per the
        original proposal).
    service_period:
        Seconds between delay-queue services; one queued contact is
        released per period (default 1.0 — "five per second" variants use
        0.2).
    """

    def __init__(
        self,
        *,
        working_set_size: int = 5,
        service_period: float = 1.0,
    ) -> None:
        super().__init__()
        if working_set_size < 1:
            raise ValueError(
                f"working_set_size must be >= 1, got {working_set_size}"
            )
        if service_period <= 0:
            raise ValueError(
                f"service_period must be positive, got {service_period}"
            )
        self._capacity = working_set_size
        self._period = service_period
        # address -> last use time; ordered oldest-first (LRU).
        self._working_set: OrderedDict[int, float] = OrderedDict()
        # The time at which the *next* delayed contact could be released.
        self._next_release = 0.0

    @property
    def name(self) -> str:
        return "williamson_ip_throttle"

    def _touch(self, dst: int) -> None:
        self._working_set[dst] = self._last_offer
        self._working_set.move_to_end(dst)
        while len(self._working_set) > self._capacity:
            self._working_set.popitem(last=False)

    def _decide(self, t: float, dst: int, dns_valid: bool) -> Decision:
        if dst in self._working_set:
            self._touch(dst)
            return Decision(action=Action.FORWARD, release_time=t)
        # New address: serviced at rate 1/period.  If the server is idle
        # (no release pending), the contact passes immediately; otherwise
        # it queues behind the backlog.
        release = max(t, self._next_release)
        self._next_release = release + self._period
        self._touch(dst)
        if release <= t:
            return Decision(action=Action.FORWARD, release_time=t)
        return Decision(action=Action.DELAY, release_time=release)
