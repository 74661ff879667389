"""Bucketed histograms: the cache-survivable summary of link state.

Per-link peak-queue depths and drop counts are too bulky (and too
topology-specific) to persist per run, but their *distribution* is the
signal operators read — "how many links saturated?".  These helpers
bucket link statistics into decade bins with stable string labels, so
the histograms serialize as plain JSON dicts, sum across runs with
:func:`merge_counts`, and compare exactly between serial and parallel
executions.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

__all__ = [
    "HISTOGRAM_BUCKETS",
    "bucket_label",
    "histogram",
    "merge_counts",
    "merge_seconds",
]

#: Decade bucket lower bounds (0 gets its own bucket).
HISTOGRAM_BUCKETS = (1, 10, 100, 1_000, 10_000)


def bucket_label(value: int) -> str:
    """The stable label of the bucket ``value`` falls into.

    ``0`` → ``"0"``, ``1..9`` → ``"1-9"``, ..., ``>= 10000`` →
    ``"10000+"``.
    """
    if value < 0:
        raise ValueError(f"histogram values must be non-negative, got {value}")
    if value == 0:
        return "0"
    for low, high in zip(HISTOGRAM_BUCKETS, HISTOGRAM_BUCKETS[1:]):
        if value < high:
            return f"{low}-{high - 1}"
    return f"{HISTOGRAM_BUCKETS[-1]}+"


#: Label of every bucket code, indexed by ``searchsorted`` position.
_BUCKET_LABELS = (
    "0",
    *(
        f"{low}-{high - 1}"
        for low, high in zip(HISTOGRAM_BUCKETS, HISTOGRAM_BUCKETS[1:])
    ),
    f"{HISTOGRAM_BUCKETS[-1]}+",
)
_BUCKET_BOUNDS = np.asarray(HISTOGRAM_BUCKETS, dtype=np.int64)


def histogram(values: Iterable[int]) -> dict[str, int]:
    """Bucketed counts of ``values`` (only non-empty buckets appear).

    Vectorized, but byte-compatible with a sequential scan: keys appear
    in first-encounter order, and the first negative value (in input
    order) raises exactly as :func:`bucket_label` would.
    """
    if isinstance(values, np.ndarray):
        arr = values.astype(np.int64, copy=False)
    else:
        arr = np.fromiter(values, dtype=np.int64)
    if arr.size == 0:
        return {}
    negative = np.flatnonzero(arr < 0)
    if negative.size:
        bucket_label(int(arr[negative[0]]))  # raises with the bad value
    # Link statistics are mostly zeros, so only the nonzero values are
    # bucketed; zeros are counted (and first found) in bulk.
    zero = arr == 0
    nonzero = np.flatnonzero(~zero)
    codes = np.searchsorted(_BUCKET_BOUNDS, arr[nonzero], side="right")
    counts = np.bincount(codes, minlength=len(_BUCKET_LABELS))
    # First index of each bucket: a scatter-min of positions, so absent
    # buckets keep ``arr.size`` and sort last.
    first = np.full(len(_BUCKET_LABELS), arr.size, dtype=np.int64)
    np.minimum.at(first, codes, nonzero)
    if nonzero.size < arr.size:
        counts[0] = arr.size - nonzero.size
        first[0] = zero.argmax()
    return {
        _BUCKET_LABELS[code]: int(counts[code])
        for code in np.argsort(first, kind="stable").tolist()
        if counts[code]
    }


def merge_counts(
    counts: Iterable[Mapping[str, int]],
) -> dict[str, int]:
    """Key-wise sum of count dicts (histograms, counters, phase calls)."""
    merged: dict[str, int] = {}
    for mapping in counts:
        for key, value in mapping.items():
            merged[key] = merged.get(key, 0) + value
    return merged


def merge_seconds(
    timings: Iterable[Mapping[str, float]],
) -> dict[str, float]:
    """Key-wise sum of float-valued dicts (phase wall-time maps)."""
    merged: dict[str, float] = {}
    for mapping in timings:
        for key, value in mapping.items():
            merged[key] = merged.get(key, 0.0) + value
    return merged

