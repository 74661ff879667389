"""Per-run instrumentation: phase timings, counters, and a trace sink.

A simulation run optionally carries one :class:`Instrumentation`
object.  The tick engine times each phase into it, the simulation phases
count events on it (scans emitted/blocked/dark, LAN deliveries,
infections), and the observe phase emits a structured per-tick record to
its sink.  With no instrumentation installed (the default), the only
residue on the hot path is a ``None`` check — measured well under the 5%
overhead budget.

:class:`InstrumentationOptions` is the picklable *request* for
instrumentation: the parallel executor ships it to worker processes,
which build a live :class:`Instrumentation` from it per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .trace import TraceSink

__all__ = ["Instrumentation", "InstrumentationOptions"]


@dataclass(frozen=True)
class InstrumentationOptions:
    """What a caller wants measured — plain data, safe to pickle.

    Attributes
    ----------
    profile:
        Collect per-phase wall time and event counters.
    trace:
        Record a per-tick trace (kept in memory on the
        :class:`~repro.runner.results.RunResult`; the hub or caller
        decides where it lands).
    trace_capacity:
        Ring-buffer capacity for the in-memory trace; ``None`` keeps
        every tick.
    """

    profile: bool = False
    trace: bool = False
    trace_capacity: int | None = None

    def __post_init__(self) -> None:
        if self.trace_capacity is not None and self.trace_capacity < 1:
            raise ValueError(
                f"trace_capacity must be >= 1, got {self.trace_capacity}"
            )

    @property
    def active(self) -> bool:
        """Whether any instrumentation is requested at all."""
        return self.profile or self.trace


class Instrumentation:
    """Mutable per-run measurement state.

    Parameters
    ----------
    profile:
        Enable per-phase wall-time collection in the tick engine.
    sink:
        Optional :class:`~repro.observability.trace.TraceSink` receiving
        one record per tick from the observe phase.
    """

    __slots__ = ("profile", "sink", "phase_seconds", "phase_calls", "counters")

    def __init__(
        self, *, profile: bool = False, sink: "TraceSink | None" = None
    ) -> None:
        self.profile = profile
        self.sink = sink
        self.phase_seconds: dict[str, float] = {}
        self.phase_calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}

    @classmethod
    def from_options(
        cls, options: InstrumentationOptions | None
    ) -> "Instrumentation | None":
        """A live instrumentation for ``options`` (None when inactive)."""
        if options is None or not options.active:
            return None
        sink = None
        if options.trace:
            from .trace import MemoryTraceSink

            sink = MemoryTraceSink(capacity=options.trace_capacity)
        return cls(profile=options.profile, sink=sink)

    # ------------------------------------------------------------------
    # Collection (called from the simulator hot path)
    # ------------------------------------------------------------------

    def record_phase(self, name: str, seconds: float) -> None:
        """Credit one execution of phase ``name`` taking ``seconds``."""
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds
        self.phase_calls[name] = self.phase_calls.get(name, 0) + 1

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the named counter."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def emit(self, record: dict[str, Any]) -> None:
        """Forward a per-tick record to the sink, if one is attached."""
        if self.sink is not None:
            self.sink.emit(record)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def trace_records(self) -> tuple[dict[str, Any], ...]:
        """The sink's records, when the sink retains them in memory."""
        records = getattr(self.sink, "records", None)
        return tuple(records) if records is not None else ()

    def format_table(self) -> str:
        """Fixed-width per-phase timing table plus counters."""
        return format_profile_table(
            self.phase_seconds, self.phase_calls, self.counters
        )


def format_profile_table(
    phase_seconds: dict[str, float],
    phase_calls: dict[str, int],
    counters: dict[str, int],
) -> str:
    """Render profile data as the CLI's per-phase timing table."""
    lines = [f"{'phase':<12} {'calls':>10} {'seconds':>10} {'share':>7}"]
    total = sum(phase_seconds.values())
    if not phase_seconds:
        lines.append("(no phase timings collected)")
    for name, seconds in sorted(
        phase_seconds.items(), key=lambda item: item[1], reverse=True
    ):
        share = seconds / total if total > 0 else 0.0
        lines.append(
            f"{name:<12} {phase_calls.get(name, 0):>10} "
            f"{seconds:>10.4f} {share:>6.1%}"
        )
    if counters:
        lines.append("")
        lines.append(f"{'counter':<24} {'value':>12}")
        for name in sorted(counters):
            lines.append(f"{name:<24} {counters[name]:>12}")
    return "\n".join(lines)
