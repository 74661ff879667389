"""Tests for the tick harness."""

from __future__ import annotations

import pytest

from repro.simulator.engine import Phase, SimulationError, TickSimulation


class TestTickSimulation:
    def test_phases_run_in_declared_order(self):
        sim = TickSimulation()
        log: list[str] = []
        sim.on(Phase.DELIVER, lambda t: log.append(f"deliver@{t}"))
        sim.on(Phase.SCAN, lambda t: log.append(f"scan@{t}"))
        sim.run(2)
        assert log == ["scan@0", "deliver@0", "scan@1", "deliver@1"]

    def test_handlers_within_phase_keep_registration_order(self):
        sim = TickSimulation()
        log: list[int] = []
        sim.on(Phase.SCAN, lambda t: log.append(1))
        sim.on(Phase.SCAN, lambda t: log.append(2))
        sim.run(1)
        assert log == [1, 2]

    def test_stop_condition_halts_after_tick(self):
        sim = TickSimulation()
        ticks: list[int] = []
        sim.on(Phase.OBSERVE, ticks.append)
        sim.add_stop_condition(lambda t: t >= 3)
        executed = sim.run(100)
        assert executed == 4
        assert ticks == [0, 1, 2, 3]

    def test_cannot_run_twice(self):
        sim = TickSimulation()
        sim.run(1)
        with pytest.raises(SimulationError, match="fresh"):
            sim.run(1)

    def test_rejects_nonpositive_ticks(self):
        with pytest.raises(SimulationError):
            TickSimulation().run(0)
