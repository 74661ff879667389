"""Cross-cutting property-based tests and failure injection.

These complement the per-module suites with invariants that span
subsystems: conservation laws on arbitrary defended/immunized runs,
determinism of every seeded component, and robustness of the parsers
against corrupted input.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.defense import (
    deploy_backbone_rate_limit,
    deploy_edge_rate_limit,
    deploy_host_rate_limit,
)
from repro.simulator.immunization import ImmunizationPolicy
from repro.simulator.network import Network
from repro.simulator.fastpath import FastWormSimulation
from repro.simulator.worms import (
    LocalPreferentialWorm,
    RandomScanWorm,
    SequentialScanWorm,
)
from repro.traces.records import Trace, TraceError


@st.composite
def outbreak_configs(draw):
    """A random but valid small outbreak scenario."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    worm_kind = draw(st.sampled_from(["random", "local", "sequential"]))
    defense = draw(st.sampled_from(["none", "host", "edge", "backbone"]))
    immunize = draw(st.booleans())
    scan_rate = draw(st.floats(min_value=0.3, max_value=2.0))
    return seed, worm_kind, defense, immunize, scan_rate


def build_and_run(seed, worm_kind, defense, immunize, scan_rate):
    network = Network.from_powerlaw(100, seed=seed % 7)
    plan = None
    if defense == "host":
        plan = deploy_host_rate_limit(network, 0.3, 0.05, seed=seed)
    elif defense == "edge":
        plan = deploy_edge_rate_limit(network, 0.05)
    elif defense == "backbone":
        plan = deploy_backbone_rate_limit(network, 0.05)
    worm = {
        "random": RandomScanWorm,
        "local": lambda: LocalPreferentialWorm(0.8),
        "sequential": SequentialScanWorm,
    }[worm_kind]()
    policy = (
        ImmunizationPolicy.at_fraction(0.3, 0.15) if immunize else None
    )
    simulation = FastWormSimulation(
        network,
        worm,
        scan_rate=scan_rate,
        initial_infections=2,
        immunization=policy,
        lan_delivery=True,
        defense=plan,
        seed=seed,
    )
    return simulation.run(60), simulation


class TestOutbreakInvariants:
    @given(outbreak_configs())
    @settings(max_examples=25, deadline=None)
    def test_conservation_and_bounds(self, config):
        trajectory, simulation = build_and_run(*config)
        n = simulation.network.num_infectable
        # S + I + R == N at every sample.
        total = (
            trajectory.susceptible + trajectory.infected + trajectory.removed
        )
        np.testing.assert_allclose(total, n)
        # Ever-infected is monotone and bounds current infected.
        assert np.all(np.diff(trajectory.ever_infected) >= 0)
        assert np.all(trajectory.ever_infected <= n)
        assert np.all(
            trajectory.ever_infected >= trajectory.infected - 1e-9
        )
        # Fractions stay in [0, 1].
        assert np.all(trajectory.fraction_infected <= 1.0 + 1e-12)
        assert np.all(trajectory.fraction_infected >= 0.0)

    @given(outbreak_configs())
    @settings(max_examples=10, deadline=None)
    def test_seeded_determinism(self, config):
        a, _ = build_and_run(*config)
        b, _ = build_and_run(*config)
        np.testing.assert_array_equal(a.infected, b.infected)
        np.testing.assert_array_equal(a.ever_infected, b.ever_infected)

    @given(outbreak_configs())
    @settings(max_examples=15, deadline=None)
    def test_packet_accounting(self, config):
        _, simulation = build_and_run(*config)
        transport = simulation.transport
        assert transport.delivered <= transport.injected
        assert transport.dropped_total >= 0


class TestTraceCsvFuzz:
    @given(st.text(max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_from_csv_never_crashes_unexpectedly(self, text):
        """Arbitrary text either parses or raises TraceError — nothing
        else escapes (no IndexError/KeyError/ValueError leaks)."""
        try:
            Trace.from_csv(text, internal_hosts=[10])
        except TraceError:
            pass

    def test_truncated_rows_rejected(self, small_trace):
        csv_text = small_trace.to_csv()
        lines = csv_text.splitlines()
        # Chop a field off a data row.
        lines[5] = ",".join(lines[5].split(",")[:-3])
        with pytest.raises(TraceError):
            Trace.from_csv(
                "\n".join(lines), internal_hosts=small_trace.internal_hosts
            )
