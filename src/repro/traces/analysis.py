"""Trace analysis: CDFs, percentile rate limits, and window-size studies.

These functions turn :class:`~repro.traces.windows.WindowCounts` into the
published artifacts: the contact-rate CDFs of Figure 9, the practical
rate-limit table ("16 / 14 / 9 per five seconds" etc.), the per-minute
worm scanning peaks, and the window-size tradeoff (5 / 12 / 50 across
1 s / 5 s / 60 s windows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .records import Trace, TraceError
from .windows import Refinement, WindowCounts, count_contacts, per_host_counts

__all__ = [
    "empirical_cdf",
    "RateLimitTable",
    "recommend_rate_limits",
    "window_size_study",
    "peak_scan_rate",
]


def empirical_cdf(counts: WindowCounts) -> tuple[np.ndarray, np.ndarray]:
    """(values, fraction_of_time) arrays for a Figure 9 style CDF."""
    data = np.asarray(sorted(counts.counts), dtype=float)
    if data.size == 0:
        raise TraceError("cannot build a CDF from zero windows")
    fractions = np.arange(1, data.size + 1) / data.size
    return data, fractions


@dataclass(frozen=True)
class RateLimitTable:
    """Recommended contact-rate limits for one host group.

    Each limit is the ``coverage`` quantile (paper: 99.9%) of the windowed
    contact counts under the matching refinement — the tightest limit that
    leaves legitimate traffic unaffected that fraction of the time.
    """

    group: str
    window: float
    coverage: float
    all_contacts: int
    no_prior_contact: int
    no_dns: int

    def as_rows(self) -> list[tuple[str, int]]:
        """(refinement, limit) rows for the report printers."""
        return [
            ("distinct IPs", self.all_contacts),
            ("distinct IPs (no prior contact)", self.no_prior_contact),
            ("distinct IPs (no prior contact, no DNS)", self.no_dns),
        ]


def recommend_rate_limits(
    trace: Trace,
    hosts: list[int],
    *,
    group: str,
    window: float = 5.0,
    coverage: float = 0.999,
) -> RateLimitTable:
    """Derive the paper's rate-limit table for one host group.

    For the 999 normal clients the paper reports 16 / 14 / 9 contacts per
    five seconds at 99.9% coverage; for the 33 P2P clients, 89 / 61 / 26.
    """
    if not hosts:
        raise TraceError(f"group {group!r} has no hosts")
    host_set = set(hosts)
    limits: dict[Refinement, int] = {}
    for refinement in Refinement:
        counts = count_contacts(
            trace, host_set, window=window, refinement=refinement
        )
        limits[refinement] = counts.percentile(coverage)
    return RateLimitTable(
        group=group,
        window=window,
        coverage=coverage,
        all_contacts=limits[Refinement.ALL],
        no_prior_contact=limits[Refinement.NO_PRIOR],
        no_dns=limits[Refinement.NO_DNS],
    )


def window_size_study(
    trace: Trace,
    hosts: list[int],
    *,
    windows: tuple[float, ...] = (1.0, 5.0, 60.0),
    refinement: Refinement = Refinement.NO_DNS,
    coverage: float = 0.999,
) -> dict[float, int]:
    """Quantile limits across window sizes (the 5 / 12 / 50 observation).

    Longer windows admit lower *per-second* limits because bursts average
    out: the paper reports aggregate non-DNS 99.9% values of five for one
    second, twelve for five seconds, and fifty for sixty seconds.
    """
    host_set = set(hosts)
    study: dict[float, int] = {}
    for window in windows:
        counts = count_contacts(
            trace, host_set, window=window, refinement=refinement
        )
        study[window] = counts.percentile(coverage)
    return study


def peak_scan_rate(
    trace: Trace, host: int, *, window: float = 60.0
) -> int:
    """Peak distinct hosts contacted by ``host`` in any single window.

    The paper's footnote: a Welchia instance scanned 7,068 hosts in a
    minute; Blaster peaked at 671.
    """
    return per_host_counts(trace, [host], window=window)[host].max()
