"""Tests for the BRITE-substitute power-law generators."""

from __future__ import annotations

import math
from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.graphs import TopologyError
from repro.topology.powerlaw import barabasi_albert, powerlaw_configuration


def powerlaw_tail_exponent(
    degrees: Sequence[int], *, k_min: int = 3
) -> float:
    """Estimate the power-law exponent of a degree tail via Hill's MLE.

    Uses the discrete maximum-likelihood estimator
    ``alpha = 1 + n / sum(ln(k_i / (k_min - 0.5)))`` over degrees
    ``>= k_min``: the oracle for the BA generator's scale-free tail
    (alpha in roughly [2, 3.8]).
    """
    tail = [k for k in degrees if k >= k_min]
    if len(tail) < 10:
        raise ValueError(
            f"need at least 10 tail samples with degree >= {k_min}, "
            f"got {len(tail)}"
        )
    log_sum = sum(math.log(k / (k_min - 0.5)) for k in tail)
    return 1.0 + len(tail) / log_sum


class TestBarabasiAlbert:
    def test_node_and_edge_counts(self):
        graph = barabasi_albert(200, 2, seed=1)
        assert graph.num_nodes == 200
        # Core clique of 3 has 3 edges; each of the 197 later nodes adds 2.
        assert graph.num_edges == 3 + 197 * 2

    def test_connected(self):
        assert barabasi_albert(300, 2, seed=5).is_connected()

    def test_deterministic_for_seed(self):
        a = barabasi_albert(100, 2, seed=9)
        b = barabasi_albert(100, 2, seed=9)
        assert a.edges == b.edges

    def test_different_seeds_differ(self):
        a = barabasi_albert(100, 2, seed=1)
        b = barabasi_albert(100, 2, seed=2)
        assert a.edges != b.edges

    def test_has_hubs(self):
        """Scale-free graphs concentrate degree: max degree >> average."""
        graph = barabasi_albert(1000, 2, seed=3)
        degrees = graph.degrees()
        average = sum(degrees) / len(degrees)
        assert max(degrees) > 5 * average

    def test_tail_exponent_in_scale_free_band(self):
        graph = barabasi_albert(2000, 2, seed=4)
        alpha = powerlaw_tail_exponent(graph.degrees(), k_min=4)
        assert 1.8 < alpha < 4.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(TopologyError):
            barabasi_albert(2, 2)
        with pytest.raises(TopologyError):
            barabasi_albert(100, 0)

    @given(st.integers(min_value=4, max_value=120))
    @settings(max_examples=25, deadline=None)
    def test_always_connected_and_simple(self, n):
        graph = barabasi_albert(n, 2, seed=n)
        assert graph.is_connected()
        # Simplicity is enforced by the Topology constructor; the degree
        # sum identity double-checks nothing was silently dropped.
        assert sum(graph.degrees()) == 2 * graph.num_edges


class TestConfigurationModel:
    def test_connected_despite_fragmented_sampling(self):
        graph = powerlaw_configuration(300, 2.5, seed=1)
        assert graph.is_connected()

    def test_respects_exponent_direction(self):
        """A steeper exponent gives a thinner tail (lower top degrees)."""
        shallow = powerlaw_configuration(800, 2.0, min_degree=2, seed=2)
        steep = powerlaw_configuration(800, 3.5, min_degree=2, seed=2)
        top = lambda g: sum(sorted(g.degrees(), reverse=True)[:5])  # noqa: E731
        assert top(shallow) > top(steep)

    def test_rejects_bad_exponent(self):
        with pytest.raises(TopologyError):
            powerlaw_configuration(100, 1.0)

    def test_rejects_tiny_graph(self):
        with pytest.raises(TopologyError):
            powerlaw_configuration(1, 2.5)


class TestDegreeTools:
    def test_tail_exponent_needs_samples(self):
        with pytest.raises(ValueError, match="at least 10"):
            powerlaw_tail_exponent([1, 2, 3], k_min=3)

    def test_tail_exponent_known_distribution(self):
        """A synthetic pure power-law sample recovers its exponent."""
        # P(k) ∝ k^-3 sample via inverse transform on a dense grid.
        import random

        rng = random.Random(0)
        ks = []
        for _ in range(20000):
            u = rng.random()
            ks.append(max(3, int(3 * (1 - u) ** (-1 / 2.0))))
        alpha = powerlaw_tail_exponent(ks, k_min=3)
        assert 2.6 < alpha < 3.4
