"""Host records for the worm simulation.

Each infectable node is a :class:`Host` in one of three states, following
the SIR-with-delayed-patching dynamics of the paper: susceptible hosts can
be infected; infected hosts scan; immunized hosts (patched susceptible
*or* patched infected) are permanently out of the game.  The engines run
these transitions on arrays of their own; the host objects serve the
test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .links import TokenBucket

__all__ = ["HostState", "Host"]


class HostState(Enum):
    """Epidemiological state of a host."""

    SUSCEPTIBLE = "susceptible"
    INFECTED = "infected"
    IMMUNE = "immune"


@dataclass
class Host:
    """One infectable end system.

    Attributes
    ----------
    node:
        Node id in the topology.
    subnet:
        Subnet id (``-1`` for hosts outside any subnet).
    state:
        Current :class:`HostState`.
    infected_at:
        Tick of infection, or ``None``.
    immunized_at:
        Tick of patching, or ``None``.
    scan_throttle:
        Optional host-level rate-limiting filter (Williamson-style): a
        token bucket capping how many scans this host may emit per tick
        (see :meth:`Network.install_plan`).  ``None`` means unthrottled.
    """

    node: int
    subnet: int = -1
    state: HostState = HostState.SUSCEPTIBLE
    infected_at: int | None = None
    immunized_at: int | None = None
    scan_throttle: TokenBucket | None = field(default=None, repr=False)
