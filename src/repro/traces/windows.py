"""Tumbling-window contact counting with the paper's refinements.

Figure 9 plots, for a set of hosts and a 5-second window, the CDF of the
number of distinct foreign addresses contacted, under three progressively
tighter definitions of "contact":

* ``ALL`` — every distinct destination of an initiated outbound flow;
* ``NO_PRIOR`` — excluding destinations that had *initiated contact with
  us first* (responses to inbound connections are not suspicious);
* ``NO_DNS`` — additionally excluding destinations for which the source
  held a *valid DNS translation* (worms contact raw addresses).

Counts are produced for every window in the trace, including empty ones —
the CDF's y axis is "fraction of time", so quiet windows matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dns import DEFAULT_DNS_TTL, ContactClassifier, Refinement
from .records import Trace, TraceError

__all__ = [
    "Refinement",
    "WindowCounts",
    "count_contacts",
    "per_host_counts",
]


@dataclass(frozen=True)
class WindowCounts:
    """Distinct-contact counts for consecutive windows of one size.

    Attributes
    ----------
    window:
        Window length in seconds.
    refinement:
        Which contact classification produced the counts.
    counts:
        One integer per window covering the whole trace (zeros included).
    """

    window: float
    refinement: Refinement
    counts: tuple[int, ...]

    def fraction_of_time_at_or_below(self, limit: int) -> float:
        """Fraction of windows with count <= ``limit`` (Figure 9 y-axis)."""
        if not self.counts:
            return 1.0
        return sum(1 for c in self.counts if c <= limit) / len(self.counts)

    def percentile(self, q: float) -> int:
        """Smallest count covering fraction ``q`` of windows."""
        if not 0.0 < q <= 1.0:
            raise TraceError(f"q must be in (0, 1], got {q}")
        if not self.counts:
            return 0
        ordered = sorted(self.counts)
        index = min(math.ceil(q * len(ordered)) - 1, len(ordered) - 1)
        return ordered[max(index, 0)]

    def max(self) -> int:
        """Largest windowed count."""
        return max(self.counts) if self.counts else 0


def _num_windows(trace: Trace, window: float) -> int:
    """Windows needed so the trace's last record has a bucket.

    A record at t falls in window ``floor(t / window)``, so
    ``floor(end / window) + 1`` windows cover every record, including
    one sitting exactly on a window edge: it opens the next window.
    """
    end_time = trace.records[-1].time if len(trace) else 0.0
    if end_time <= 0:
        return 1
    return int(end_time // window) + 1


def count_contacts(
    trace: Trace,
    hosts: set[int] | frozenset[int],
    *,
    window: float = 5.0,
    refinement: Refinement = Refinement.ALL,
    dns_ttl: float = DEFAULT_DNS_TTL,
) -> WindowCounts:
    """Aggregate distinct-destination counts over ``hosts`` per window.

    The window-wise sum of :func:`per_host_counts`: distinctness is per
    (source, destination) within the window, matching an edge filter
    that tracks per-host contact sets.
    """
    per_host = per_host_counts(
        trace, sorted(hosts), window=window, refinement=refinement,
        dns_ttl=dns_ttl,
    )
    totals = [0] * _num_windows(trace, window)
    for host_counts in per_host.values():
        totals = [a + b for a, b in zip(totals, host_counts.counts)]
    return WindowCounts(
        window=window, refinement=refinement, counts=tuple(totals)
    )


def per_host_counts(
    trace: Trace,
    hosts: list[int],
    *,
    window: float = 5.0,
    refinement: Refinement = Refinement.ALL,
    dns_ttl: float = DEFAULT_DNS_TTL,
) -> dict[int, WindowCounts]:
    """Per-host windowed counts (the "individual host rates" analysis).

    One streaming pass through a :class:`ContactClassifier`: a record at
    time t falls in window ``floor(t / window)``, and each host's
    distinct destinations that ``refinement`` counts are tallied there.
    """
    if window <= 0:
        raise TraceError(f"window must be positive, got {window}")
    bad = set(hosts) - trace.internal_hosts
    if bad:
        raise TraceError(f"hosts not internal to the trace: {sorted(bad)[:5]}")

    num_windows = _num_windows(trace, window)
    counts: dict[int, list[int]] = {h: [0] * num_windows for h in hosts}
    classifier = ContactClassifier(trace.is_internal, dns_ttl=dns_ttl)
    seen_in_window: set[tuple[int, int]] = set()
    current_window = 0

    for record in trace:
        classifier.observe(record)
        if record.src not in counts or not classifier.counted(
            record, refinement
        ):
            continue
        index = int(record.time // window)
        if index != current_window:
            seen_in_window.clear()
            current_window = index
        key = (record.src, record.dst)
        if key not in seen_in_window:
            seen_in_window.add(key)
            counts[record.src][index] += 1

    return {
        host: WindowCounts(
            window=window, refinement=refinement, counts=tuple(counts[host])
        )
        for host in hosts
    }
