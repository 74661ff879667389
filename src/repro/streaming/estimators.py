"""Hyper-compact per-host estimators: shared-register sketches.

Per-host dicts and sets are what make online detection expensive at
millions-of-hosts scale.  Following the hyper-compact-estimator line of
work (PAPERS.md: Zhou/Zhou/Chen/Kreidl), per-host state here is a few
*shared* registers instead:

* :class:`VirtualHyperLogLog` — distinct-contact ("spread") estimation.
  One physical bank of ``m`` 1-byte HLL registers is shared by every
  host; a host's *virtual* sketch is ``s`` registers selected by hash.
  With the default geometry (8 bytes/host, s=64) the union estimate of a
  host's virtual registers measures its own spread plus the bank-wide
  noise floor, which the estimator subtracts using the bank's grand
  total — the standard virtual-sketch correction::

      n_hat(f) = (m*s / (m - s)) * (E_s / s  -  E_m / m)

  where ``E_s`` is the HLL estimate from f's s registers and ``E_m``
  from all m.  Accuracy: HLL's ~1.04/sqrt(s) (~13 % at s=64) plus a
  noise term that grows with bank load.  The documented contract,
  tested differentially against :class:`ExactDistinct`, holds at bank
  loads up to ~2 distinct items per register (per-window resets keep
  detectors in that regime): relative error within 65 % once a host's
  true spread clears ``s``, absolute error within 45 below that.
  Register updates are max-merges, so estimates are exactly independent
  of flow arrival order — the property the hypothesis suite exploits.

* :class:`CountMinSketch` — failure counting.  A conservative-update
  count-min sketch (the counting-Bloom family): ``rows`` hashed rows of
  ``width`` uint16 counters; estimate is the row minimum and *never
  underestimates* the true count.  Overestimate is bounded by collision
  load; the tested contract is exact agreement at light load and
  ``estimate >= exact`` always.  :meth:`decay` halves every counter —
  the standard sliding-exposure trick for long-lived streams.

Both sketches take a ``capacity`` (the host population they are sized
for) and report ``bytes_per_host`` so callers can assert the memory
budget.  The per-flow paths (``add`` on both, count-min's
``estimate``) are pure integer arithmetic: splitmix64 runs on Python
ints, and cells are read and written through a flat ``memoryview`` of
the numpy buffer, so a flow costs no numpy call.  The exact
references (:class:`ExactDistinct`, :class:`ExactCounter`) share the
same API for differential testing and for small-scale runs where
exactness matters more than memory.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "VirtualHyperLogLog",
    "CountMinSketch",
    "ExactDistinct",
    "ExactCounter",
]

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_C1 = np.uint64(0x9E3779B97F4A7C15)
_C2 = np.uint64(0xBF58476D1CE4E5B9)
_C3 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: uniform 64-bit mixing (vectorized)."""
    z = (x + _C1) & _MASK64
    z = ((z ^ (z >> np.uint64(30))) * _C2) & _MASK64
    z = ((z ^ (z >> np.uint64(27))) * _C3) & _MASK64
    return z ^ (z >> np.uint64(31))


def _mix64_scalar(x: int) -> int:
    """:func:`_mix64` on one Python int (wraps like ``uint64``)."""
    z = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _cells(array: np.ndarray) -> memoryview:
    """A flat view of ``array``'s buffer whose items are Python ints."""
    return memoryview(array).cast("B").cast(array.dtype.char)


def _hll_estimate(registers: np.ndarray) -> float:
    """Standard HLL estimate with linear-counting small-range correction."""
    n = registers.size
    alpha = 0.7213 / (1.0 + 1.079 / n)
    raw = alpha * n * n / float(
        np.sum(np.exp2(-registers.astype(np.float64)))
    )
    if raw <= 2.5 * n:
        zeros = int(np.count_nonzero(registers == 0))
        if zeros:
            return n * float(np.log(n / zeros))
    return raw


class VirtualHyperLogLog:
    """Register-sharing distinct estimator (virtual HLL).

    Parameters
    ----------
    capacity:
        Host population the bank is sized for.
    bytes_per_host:
        Physical registers allotted per host of capacity (bank size is
        ``capacity * bytes_per_host`` one-byte registers).
    virtual_registers:
        Registers per virtual sketch (``s``); must be a power of two
        smaller than the bank.
    """

    def __init__(
        self, capacity: int, *, bytes_per_host: int = 8,
        virtual_registers: int = 64,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if bytes_per_host < 1:
            raise ValueError(
                f"bytes_per_host must be >= 1, got {bytes_per_host}"
            )
        s = virtual_registers
        if s < 16 or s & (s - 1):
            raise ValueError(
                f"virtual_registers must be a power of two >= 16, got {s}"
            )
        m = capacity * bytes_per_host
        if m <= 2 * s:
            m = 4 * s  # floor so tiny capacities stay well-defined
        self._m = m
        self._s = s
        self._registers = np.zeros(m, dtype=np.uint8)
        self._cells = _cells(self._registers)
        self._capacity = capacity

    @property
    def bytes_per_host(self) -> float:
        """Shared-bank bytes amortized per host of capacity."""
        return self._registers.nbytes / self._capacity

    @property
    def memory_bytes(self) -> int:
        return int(self._registers.nbytes)

    def reset(self) -> None:
        """Clear the bank (used for per-window estimation)."""
        self._registers.fill(0)

    # -- updates ---------------------------------------------------------

    def _slot(self, host: int, item: int) -> tuple[int, int]:
        """(physical register, rank) that ``host`` contacting ``item`` hits."""
        he = _mix64_scalar(item)
        w = he >> 6
        rho = 59 if w == 0 else (w & -w).bit_length()  # tz + 1, <= 59
        j = he & (self._s - 1)
        return _mix64_scalar(_mix64_scalar(host) + j) % self._m, rho

    def add(self, host: int, item: int) -> None:
        """Record that ``host`` contacted ``item``."""
        phys, rho = self._slot(host, item)
        if rho > self._cells[phys]:
            self._cells[phys] = rho

    # -- estimates -------------------------------------------------------

    def _virtual_indices(self, host: int) -> np.ndarray:
        base = _mix64_scalar(host)
        j = np.arange(self._s, dtype=np.uint64)
        return (
            _mix64(np.uint64(base) + j) % np.uint64(self._m)
        ).astype(np.int64)

    def estimate(self, host: int) -> float:
        """Approximate distinct items recorded for ``host`` (>= 0)."""
        m, s = self._m, self._s
        virtual = self._registers[self._virtual_indices(host)]
        e_s = _hll_estimate(virtual)
        e_m = _hll_estimate(self._registers)
        n_hat = (m * s / (m - s)) * (e_s / s - e_m / m)
        return max(0.0, n_hat)

    def estimate_many(self, hosts: list[int]) -> dict[int, float]:
        """Estimates for several hosts, sharing the grand-total pass."""
        if not hosts:
            return {}
        m, s = self._m, self._s
        e_m = _hll_estimate(self._registers)
        scale = m * s / (m - s)
        out: dict[int, float] = {}
        for host in hosts:
            virtual = self._registers[self._virtual_indices(host)]
            e_s = _hll_estimate(virtual)
            out[host] = max(0.0, scale * (e_s / s - e_m / m))
        return out


class CountMinSketch:
    """Conservative-update count-min sketch (counting-Bloom counter).

    ``estimate`` never underestimates; conservative update (only raise
    the minimal cells) keeps overestimates near zero at light load.
    """

    def __init__(
        self, capacity: int, *, rows: int = 2, width: int | None = None,
        dtype: type = np.uint16,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        self._width = width if width is not None else max(capacity, 16)
        self._table = np.zeros((rows, self._width), dtype=dtype)
        self._cells = _cells(self._table)
        self._capacity = capacity
        self._max = int(np.iinfo(dtype).max)
        #: (flat offset of the row, the row's hash salt), per row.
        self._row_salts = [
            (r * self._width, _mix64_scalar(0xABCD + r)) for r in range(rows)
        ]

    @property
    def bytes_per_host(self) -> float:
        return self._table.nbytes / self._capacity

    @property
    def memory_bytes(self) -> int:
        return int(self._table.nbytes)

    def reset(self) -> None:
        self._table.fill(0)

    def index(self, key: int) -> list[int]:
        """Flat ``_table`` index of ``key``'s cell in every row."""
        width = self._width
        return [
            offset + _mix64_scalar((key + salt) & 0xFFFFFFFFFFFFFFFF) % width
            for offset, salt in self._row_salts
        ]

    def shares_cells(self, other: object) -> bool:
        """Whether ``other`` puts every key in the same cells as this one.

        Then one :meth:`index` serves both sketches, through
        :meth:`add_at` and :meth:`estimate_at`.
        """
        return (
            isinstance(other, CountMinSketch)
            and other._width == self._width
            and other._row_salts == self._row_salts
        )

    def add(self, key: int, count: int = 1) -> int:
        """Count ``count`` occurrences of ``key``; returns new estimate."""
        return self.add_at(self.index(key), count)

    def add_at(self, index: list[int], count: int = 1) -> int:
        """:meth:`add` for the key whose cells are ``index``."""
        cells = self._cells
        new = min(min([cells[i] for i in index]) + count, self._max)
        # Conservative update: only cells below the new floor move.
        for i in index:
            if cells[i] < new:
                cells[i] = new
        return new

    def estimate(self, key: int) -> int:
        """Estimated count for ``key`` (never below the true count)."""
        return self.estimate_at(self.index(key))

    def estimate_at(self, index: list[int]) -> int:
        """:meth:`estimate` for the key whose cells are ``index``."""
        cells = self._cells
        return min([cells[i] for i in index])

    def decay(self) -> None:
        """Halve every counter (sliding exposure for long streams)."""
        self._table >>= 1


class ExactDistinct:
    """Exact per-host distinct sets — the differential-test reference."""

    def __init__(self) -> None:
        self._sets: dict[int, set[int]] = {}

    @property
    def bytes_per_host(self) -> float:
        return float("nan")  # unbounded; that is the point

    def reset(self) -> None:
        self._sets.clear()

    def add(self, host: int, item: int) -> None:
        self._sets.setdefault(host, set()).add(item)

    def estimate(self, host: int) -> float:
        return float(len(self._sets.get(host, ())))

    def estimate_many(self, hosts: list[int]) -> dict[int, float]:
        return {h: self.estimate(h) for h in hosts}


class ExactCounter:
    """Exact per-key counters — the differential-test reference."""

    def __init__(self) -> None:
        self._counts: dict[int, int] = {}

    @property
    def bytes_per_host(self) -> float:
        return float("nan")

    def reset(self) -> None:
        self._counts.clear()

    def add(self, key: int, count: int = 1) -> int:
        new = self._counts.get(key, 0) + count
        self._counts[key] = new
        return new

    def estimate(self, key: int) -> int:
        return self._counts.get(key, 0)

    def decay(self) -> None:
        for key in list(self._counts):
            self._counts[key] >>= 1
            if not self._counts[key]:
                del self._counts[key]
