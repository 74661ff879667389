"""Delayed dynamic immunization for the simulator (Section 6).

Patching starts at an absolute tick, or when the infection first
reaches a trigger fraction (the paper parameterizes both ways).  Once
active, every non-immune host — susceptible or infected — is patched with
probability ``mu`` each tick.  :class:`ImmunizationPolicy` describes
when and how fast; the engines execute it
(``fastpath.engine.FastImmunization`` draw for draw, the vector engine
in bulk).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ImmunizationPolicy"]


@dataclass(frozen=True)
class ImmunizationPolicy:
    """When and how fast patching happens.

    Exactly one of ``start_tick`` / ``start_fraction`` must be set.

    Attributes
    ----------
    mu:
        Per-tick patch probability for each unpatched host.
    start_tick:
        Absolute tick at which patching begins.
    start_fraction:
        Begin patching the first tick the *ever-infected* fraction reaches
        this level (the paper's "immunization at 20%").
    patch_infected:
        Whether infected hosts are patched too (the paper's model patches
        both; disable for a susceptible-only ablation).
    """

    mu: float
    start_tick: int | None = None
    start_fraction: float | None = None
    patch_infected: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must be in [0, 1], got {self.mu}")
        has_tick = self.start_tick is not None
        has_fraction = self.start_fraction is not None
        if has_tick == has_fraction:
            raise ValueError(
                "exactly one of start_tick / start_fraction must be set"
            )
        if has_tick and self.start_tick < 0:
            raise ValueError(
                f"start_tick must be non-negative, got {self.start_tick}"
            )
        if has_fraction and not 0.0 < self.start_fraction < 1.0:
            raise ValueError(
                f"start_fraction must be in (0, 1), got {self.start_fraction}"
            )

    @classmethod
    def at_tick(cls, start_tick: int, mu: float) -> "ImmunizationPolicy":
        """Patching begins at an absolute tick."""
        return cls(mu=mu, start_tick=start_tick)

    @classmethod
    def at_fraction(cls, start_fraction: float, mu: float) -> "ImmunizationPolicy":
        """Patching begins when infection reaches a fraction of hosts."""
        return cls(mu=mu, start_fraction=start_fraction)

