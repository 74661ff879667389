"""Differential + property suites for the hyper-compact estimators.

The compact sketches are only usable because their error behavior is a
*contract*: vHLL estimates stay inside documented relative/absolute
bounds at per-window bank loads, count-min never underestimates, and
both are exactly order-independent.  Every property here is checked
differentially against the exact references that share their API.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.estimators import (
    CountMinSketch,
    ExactCounter,
    ExactDistinct,
    VirtualHyperLogLog,
    _mix64,
)

pytestmark = pytest.mark.streaming

#: Documented vHLL accuracy contract at bank load <= ~2 items/register
#: (the regime per-window resets keep detectors in).
REL_BOUND = 0.65
ABS_BOUND = 45.0
REL_FLOOR = 64  # relative bound applies once true spread clears s

pairs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
    ),
    max_size=200,
)

#: 32-bit keys (host addresses), always with the edge values.
EDGES = [0, 1, 2**32 - 1]
keys32 = st.lists(
    st.integers(min_value=0, max_value=2**32 - 1), max_size=100
).map(lambda keys: keys + EDGES)
#: Table widths: powers of two and not.
WIDTHS = [16, 64, 1024, 17, 48, 1000, 2047]


def numpy_add_pairs(
    sketch: VirtualHyperLogLog, hosts: np.ndarray, items: np.ndarray
) -> None:
    """The vectorized vHLL update: the oracle for the integer ``add``."""
    he = _mix64(items.astype(np.uint64))
    j = he & np.uint64(sketch._s - 1)
    w = he >> np.uint64(6)
    lsb = w & (~w + np.uint64(1))
    # log2 of a power of two is exact in float64.
    rho = np.where(
        w == 0, 59, np.log2(lsb.astype(np.float64) + (w == 0)) + 1
    ).astype(np.uint8)
    phys = _mix64(_mix64(hosts.astype(np.uint64)) + j) % np.uint64(sketch._m)
    np.maximum.at(sketch._registers, phys.astype(np.int64), rho)


def numpy_cms_index(keys: np.ndarray, rows: int, width: int) -> np.ndarray:
    """(key, row) flat table indices, hashed with numpy ``uint64``."""
    row = np.arange(rows, dtype=np.uint64)
    salts = _mix64(row + np.uint64(0xABCD))
    columns = _mix64(keys[:, None] + salts[None, :]) % np.uint64(width)
    return (columns + row * np.uint64(width)).astype(np.int64)


class TestVirtualHyperLogLog:
    def test_geometry_and_budget(self):
        sketch = VirtualHyperLogLog(1024)
        assert sketch.bytes_per_host == 8.0
        assert sketch.memory_bytes == 1024 * 8

    def test_tiny_capacity_gets_a_floor(self):
        sketch = VirtualHyperLogLog(1)
        assert sketch.memory_bytes >= 4 * 64

    @pytest.mark.parametrize("kwargs", [
        {"capacity": 0},
        {"capacity": 16, "bytes_per_host": 0},
        {"capacity": 16, "virtual_registers": 48},  # not a power of two
        {"capacity": 16, "virtual_registers": 8},  # too small
    ])
    def test_rejects_bad_geometry(self, kwargs):
        with pytest.raises(ValueError):
            VirtualHyperLogLog(**kwargs)

    @given(pairs)
    @settings(max_examples=30, deadline=None)
    def test_scalar_and_vectorized_updates_agree(self, items):
        scalar = VirtualHyperLogLog(64)
        batched = VirtualHyperLogLog(64)
        for host, item in items:
            scalar.add(host, item)
        if items:
            hosts, values = zip(*items)
            numpy_add_pairs(
                batched,
                np.array(hosts, dtype=np.uint64),
                np.array(values, dtype=np.uint64),
            )
        assert np.array_equal(scalar._registers, batched._registers)

    @given(keys32)
    @settings(max_examples=30, deadline=None)
    @pytest.mark.parametrize("capacity,bytes_per_host", [
        (64, 8), (1024, 8), (100, 8), (37, 3),
    ])
    def test_integer_slot_matches_numpy_hash(
        self, capacity, bytes_per_host, keys
    ):
        sketch = VirtualHyperLogLog(capacity, bytes_per_host=bytes_per_host)
        hosts, items = keys, keys[::-1]
        he = _mix64(np.array(items, dtype=np.uint64))
        j = he & np.uint64(sketch._s - 1)
        phys = _mix64(
            _mix64(np.array(hosts, dtype=np.uint64)) + j
        ) % np.uint64(sketch._m)
        slots = [sketch._slot(h, i) for h, i in zip(hosts, items)]
        assert [p for p, _ in slots] == phys.tolist()

    @given(pairs, st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_order_and_duplication_invariance(self, items, rng):
        forward = VirtualHyperLogLog(64)
        shuffled = VirtualHyperLogLog(64)
        for host, item in items:
            forward.add(host, item)
        reordered = items + items[: len(items) // 2]  # duplicates too
        rng.shuffle(reordered)
        for host, item in reordered:
            shuffled.add(host, item)
        assert np.array_equal(forward._registers, shuffled._registers)

    def test_empty_bank_estimates_zero(self):
        sketch = VirtualHyperLogLog(256)
        assert sketch.estimate(12345) == 0.0

    def test_accuracy_contract_against_exact_reference(self):
        # 256-host bank => m=2048 registers; total distinct items kept
        # under ~2/register, the documented per-window regime.
        sketch = VirtualHyperLogLog(256)
        exact = ExactDistinct()
        rng = random.Random(42)
        spreads = {host: 1 << (4 + host % 6) for host in range(16)}
        for host, spread in spreads.items():
            for _ in range(spread):
                item = rng.randrange(2**32)
                sketch.add(host, item)
                exact.add(host, item)
        for host in spreads:
            truth = exact.estimate(host)
            approx = sketch.estimate(host)
            if truth >= REL_FLOOR:
                assert abs(approx - truth) <= REL_BOUND * truth, (
                    f"host {host}: {approx} vs true {truth}"
                )
            else:
                assert abs(approx - truth) <= ABS_BOUND, (
                    f"host {host}: {approx} vs true {truth}"
                )

    def test_estimate_many_matches_estimate(self):
        sketch = VirtualHyperLogLog(64)
        rng = random.Random(9)
        hosts = list(range(8))
        for host in hosts:
            for _ in range(50):
                sketch.add(host, rng.randrange(2**32))
        many = sketch.estimate_many(hosts)
        for host in hosts:
            assert many[host] == pytest.approx(sketch.estimate(host))
        assert sketch.estimate_many([]) == {}

    def test_reset_clears_the_bank(self):
        sketch = VirtualHyperLogLog(64)
        for i in range(100):
            sketch.add(1, i)
        sketch.reset()
        assert sketch.estimate(1) == 0.0


class TestCountMinSketch:
    def test_geometry_and_budget(self):
        sketch = CountMinSketch(1024)
        assert sketch.bytes_per_host == 4.0  # 2 rows x uint16
        assert sketch.memory_bytes == 1024 * 4

    @pytest.mark.parametrize("kwargs", [
        {"capacity": 0},
        {"capacity": 16, "rows": 0},
    ])
    def test_rejects_bad_geometry(self, kwargs):
        with pytest.raises(ValueError):
            CountMinSketch(**kwargs)

    @given(st.lists(st.integers(min_value=0, max_value=500), max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_never_underestimates(self, keys):
        sketch = CountMinSketch(64)
        exact = ExactCounter()
        for key in keys:
            sketch.add(key)
            exact.add(key)
        for key in set(keys):
            assert sketch.estimate(key) >= exact.estimate(key)

    @given(keys32)
    @settings(max_examples=30, deadline=None)
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_integer_index_matches_numpy_hash(self, rows, width, keys):
        sketch = CountMinSketch(64, rows=rows, width=width)
        expected = numpy_cms_index(
            np.array(keys, dtype=np.uint64), rows, width
        )
        assert [sketch.index(key) for key in keys] == expected.tolist()

    def test_exact_at_light_load(self):
        # Distinct keys far below width: conservative update is exact.
        sketch = CountMinSketch(4096)
        for key in range(10):
            for _ in range(key + 1):
                sketch.add(key)
        for key in range(10):
            assert sketch.estimate(key) == key + 1

    def test_add_returns_the_new_estimate(self):
        sketch = CountMinSketch(256)
        assert sketch.add(7) == 1
        assert sketch.add(7, count=4) == 5

    def test_decay_halves_counters(self):
        sketch = CountMinSketch(256)
        for _ in range(8):
            sketch.add(3)
        sketch.decay()
        assert sketch.estimate(3) == 4

    def test_counters_saturate_instead_of_wrapping(self):
        sketch = CountMinSketch(16)
        sketch.add(1, count=70000)
        assert sketch.estimate(1) == np.iinfo(np.uint16).max

    def test_reset(self):
        sketch = CountMinSketch(64)
        sketch.add(5, count=9)
        sketch.reset()
        assert sketch.estimate(5) == 0


class TestExactReferences:
    def test_exact_distinct_counts_sets(self):
        exact = ExactDistinct()
        exact.add(1, 10)
        exact.add(1, 10)
        exact.add(1, 11)
        exact.add(2, 5)
        exact.add(2, 6)
        assert exact.estimate(1) == 2.0
        assert exact.estimate(2) == 2.0
        assert exact.estimate(3) == 0.0
        exact.reset()
        assert exact.estimate(1) == 0.0

    def test_exact_counter_decay_drops_zeroes(self):
        exact = ExactCounter()
        exact.add(1)
        exact.add(2, count=4)
        exact.add(2)
        exact.add(2)
        exact.decay()
        assert exact.estimate(1) == 0
        assert exact.estimate(2) == 3
