"""The Ganger et al. DNS-based throttle [5].

Self-securing network interfaces observe that legitimate software looks a
name up before connecting, while self-propagating worms synthesize raw
32-bit addresses.  The filter therefore passes, untouched:

* contacts to addresses with a valid DNS translation, and
* contacts back to addresses that initiated contact with us first;

and rate-limits only the remainder — *unknown* addresses — against a small
budget (the original default: six per minute).  Contacts beyond the budget
wait in a delay queue for budget to accrue.
"""

from __future__ import annotations

from collections import deque

from .base import Action, Decision, Throttle

__all__ = ["DnsThrottle"]

_FORWARD, _DELAY = Action.FORWARD, Action.DELAY  # see base.py


class DnsThrottle(Throttle):
    """Rate limiter for contacts to non-DNS-translated addresses.

    Parameters
    ----------
    budget:
        Unknown-address contacts allowed per ``window`` (default 6).
    window:
        Budget window in seconds (default 60).
    """

    def __init__(self, *, budget: int = 6, window: float = 60.0) -> None:
        super().__init__()
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self._budget = budget
        self._window = window
        #: Release times of recent unknown-address contacts (sliding log).
        self._recent: deque[float] = deque()
        #: Hosts that contacted us first; replies to them are exempt.
        self._prior_contacts: set[int] = set()

    @property
    def name(self) -> str:
        return "dns_based_throttle"

    def note_inbound(self, src: int) -> None:
        """Record that ``src`` initiated contact with this host."""
        self._prior_contacts.add(src)

    def _next_slot(self, t: float) -> float:
        """Earliest time a new unknown contact may be released."""
        # Drop log entries older than one window.
        while self._recent and self._recent[0] <= t - self._window:
            self._recent.popleft()
        if len(self._recent) < self._budget:
            return t
        # The slot frees when the oldest of the last `budget` releases
        # ages out of the window.
        index = len(self._recent) - self._budget
        return self._recent[index] + self._window

    def _decide(self, t: float, dst: int, dns_valid: bool) -> Decision:
        if dns_valid or dst in self._prior_contacts:
            return Decision(action=_FORWARD, release_time=t)
        release = self._next_slot(t)
        self._recent.append(release)
        if release <= t:
            return Decision(action=_FORWARD, release_time=t)
        return Decision(action=_DELAY, release_time=release)
