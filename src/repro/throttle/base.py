"""Throttle interface: stateful per-host rate-limiting filters.

A throttle sees a host's *outbound contact attempts* in time order and
decides, for each, whether it is forwarded immediately or held in a delay
queue until a budget frees up (the mechanism of Williamson's virus
throttle; the Ganger et al. NIC scheme behaves the same way for non-DNS
contacts).  Rate limiting never drops traffic — it reshapes it — so the
interesting outputs are *delays*: near zero for legitimate traffic, large
and growing for worm scans.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from enum import Enum

__all__ = ["Action", "Decision", "Throttle", "ThrottleStats"]


class Action(Enum):
    """What the throttle did with a contact attempt."""

    FORWARD = "forward"
    DELAY = "delay"


# Enum member lookups cost ~0.2 us each on Python 3.11; the per-offer
# paths (here and in the ``_decide`` implementations) compare against
# module-level bindings instead.
_FORWARD = Action.FORWARD


@dataclass(slots=True, frozen=True)
class Decision:
    """Outcome of offering one contact to a throttle.

    Attributes
    ----------
    action:
        Whether the contact passed immediately or was queued.
    release_time:
        When the contact actually leaves the host.  Equals the offer time
        for forwarded contacts; later for delayed ones.
    """

    action: Action
    release_time: float

    def delay(self, offered_at: float) -> float:
        """Seconds the contact was held."""
        return max(0.0, self.release_time - offered_at)


@dataclass
class ThrottleStats:
    """Aggregate counters kept by every throttle."""

    offered: int = 0
    forwarded: int = 0
    delayed: int = 0
    total_delay: float = 0.0

    @property
    def delay_fraction(self) -> float:
        """Fraction of contacts that were held."""
        return self.delayed / self.offered if self.offered else 0.0

    @property
    def mean_delay(self) -> float:
        """Mean delay over *all* offered contacts."""
        return self.total_delay / self.offered if self.offered else 0.0


class Throttle(abc.ABC):
    """Base class: per-host contact-rate filter with a delay queue.

    Offers must arrive in non-decreasing time order (they come from a
    time-sorted trace); implementations may raise ``ValueError`` on
    out-of-order input.
    """

    def __init__(self) -> None:
        self.stats = ThrottleStats()
        self._last_offer = float("-inf")

    def offer(
        self, t: float, dst: int, *, dns_valid: bool = False
    ) -> Decision:
        """Submit a contact attempt; returns the scheduling decision.

        Parameters
        ----------
        t:
            Offer time (seconds); non-decreasing across calls.
        dst:
            Destination address of the contact.
        dns_valid:
            Whether the host held a valid DNS translation for ``dst``
            (only the DNS-based throttle cares).
        """
        if t < self._last_offer:
            raise ValueError(
                f"offers must be time-ordered: {t} after {self._last_offer}"
            )
        self._last_offer = t
        decision = self._decide(t, dst, dns_valid)
        self.stats.offered += 1
        if decision.action is _FORWARD:
            self.stats.forwarded += 1
        else:
            self.stats.delayed += 1
            self.stats.total_delay += decision.delay(t)
        return decision

    @abc.abstractmethod
    def _decide(self, t: float, dst: int, dns_valid: bool) -> Decision:
        """Implementation hook for :meth:`offer`."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short scheme name for reports."""
