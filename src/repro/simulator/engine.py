"""Tick-synchronous simulation engine (the ns-2 substitute's core).

The paper runs its experiments on ns-2 in *simulation ticks*.
:class:`TickSimulation` is the harness the worm experiments use:
components register handlers on named phases, and every tick runs the
phases in a fixed order (scan → transmit → deliver → immunize →
observe), which makes runs reproducible for a given seed.
"""

from __future__ import annotations

from collections.abc import Callable
from enum import IntEnum
from time import perf_counter

from ..observability.instrumentation import Instrumentation

__all__ = ["Phase", "TickSimulation", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for invalid simulation usage."""


class Phase(IntEnum):
    """Fixed per-tick phase order of the worm simulation.

    The order encodes the paper's semantics: scans emitted this tick enter
    the network this tick, links forward under their rate limits, arrivals
    are delivered (possibly infecting), then patching happens, and finally
    observers sample the state — so a curve point at tick ``t`` reflects
    everything that happened up to and including ``t``.
    """

    SCAN = 0
    TRANSMIT = 1
    DELIVER = 2
    IMMUNIZE = 3
    OBSERVE = 4


TickHandler = Callable[[int], None]

#: Phase -> profile-table name, resolved once (not per tick).
PHASE_NAMES: dict[Phase, str] = {phase: phase.name.lower() for phase in Phase}


class TickSimulation:
    """Tick-synchronous simulation harness.

    Components register handlers on :class:`Phase` slots; :meth:`run`
    executes ticks ``0, 1, 2, ...`` until a stop condition fires or
    ``max_ticks`` elapses.  Handlers run in registration order within a
    phase, making the whole simulation a deterministic function of the
    registered components and their RNG seeds.
    """

    def __init__(
        self, *, instrumentation: Instrumentation | None = None
    ) -> None:
        self._handlers: dict[Phase, list[TickHandler]] = {
            phase: [] for phase in Phase
        }
        self._stop_conditions: list[Callable[[int], bool]] = []
        self._tick = 0
        self._stopped = False
        #: Optional profiling/trace collector; None keeps the tick loop
        #: on its original fast path (one attribute check per tick).
        self.instrumentation = instrumentation

    @property
    def current_tick(self) -> int:
        """The tick currently executing (or about to execute)."""
        return self._tick

    def on(self, phase: Phase, handler: TickHandler) -> None:
        """Register ``handler(tick)`` to run during ``phase`` each tick."""
        self._handlers[phase].append(handler)

    def add_stop_condition(self, predicate: Callable[[int], bool]) -> None:
        """Stop after any tick for which ``predicate(tick)`` is true."""
        self._stop_conditions.append(predicate)

    def _run_tick(self, tick: int) -> None:
        instr = self.instrumentation
        if instr is None or not instr.profile:
            for phase in Phase:
                for handler in self._handlers[phase]:
                    handler(tick)
            return
        for phase in Phase:
            start = perf_counter()
            for handler in self._handlers[phase]:
                handler(tick)
            instr.record_phase(PHASE_NAMES[phase], perf_counter() - start)

    def run(self, max_ticks: int) -> int:
        """Run up to ``max_ticks`` ticks; returns the number executed."""
        if max_ticks <= 0:
            raise SimulationError(f"max_ticks must be positive, got {max_ticks}")
        if self._stopped:
            raise SimulationError("simulation already ran; build a fresh one")
        executed = 0
        for tick in range(max_ticks):
            self._tick = tick
            self._run_tick(tick)
            executed += 1
            if any(predicate(tick) for predicate in self._stop_conditions):
                break
        self._stopped = True
        instr = self.instrumentation
        if instr is not None and instr.profile:
            instr.count("ticks", executed)
        return executed
