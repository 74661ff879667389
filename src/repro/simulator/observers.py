"""Measurement: infection curves sampled once per tick.

The recorder produces :class:`~repro.models.base.Trajectory` objects — the
same container the analytical models emit — so every downstream tool
(time-to-fraction, slowdown factors, benchmark printers) works identically
on modeled and simulated data, and averaging across seeded runs is a plain
array mean.
"""

from __future__ import annotations

import numpy as np

from ..models.base import ModelError, Trajectory
from .network import Network

__all__ = ["CurveRecorder", "average_trajectories"]


class CurveRecorder:
    """Samples (susceptible, infected, immune, ever-infected) every tick."""

    def __init__(self, network: Network) -> None:
        self._network = network
        self._ticks: list[int] = []
        self._infected: list[int] = []
        self._immune: list[int] = []
        self._susceptible: list[int] = []
        self._ever_infected: list[int] = []
        self.ever_infected = 0

    def note_infection(self, count: int = 1) -> None:
        """Credit ``count`` new infections to the ever-infected tally."""
        self.ever_infected += count

    def record_counts(
        self, tick: int, susceptible: int, infected: int, immune: int
    ) -> None:
        """Record the compartment counts at the end of ``tick``.

        The engine maintains running S/I/R totals and feeds them here
        directly, so sampling never walks the hosts.
        """
        self._ticks.append(tick)
        self._susceptible.append(susceptible)
        self._infected.append(infected)
        self._immune.append(immune)
        self._ever_infected.append(self.ever_infected)

    @property
    def num_samples(self) -> int:
        """Ticks recorded so far."""
        return len(self._ticks)

    def trajectory(self) -> Trajectory:
        """Package the samples as a :class:`Trajectory`."""
        if len(self._ticks) < 2:
            raise ModelError(
                "need at least two sampled ticks to build a trajectory"
            )
        return Trajectory(
            times=np.asarray(self._ticks, dtype=float),
            infected=np.asarray(self._infected, dtype=float),
            population=float(self._network.num_infectable),
            susceptible=np.asarray(self._susceptible, dtype=float),
            removed=np.asarray(self._immune, dtype=float),
            ever_infected=np.asarray(self._ever_infected, dtype=float),
        )


def subset_fraction_curve(
    network: Network,
    infected_at: np.ndarray,
    nodes: set[int],
    ticks: np.ndarray,
) -> np.ndarray:
    """Infected fraction over time within a node subset, post hoc.

    Rebuilt from a run's infection tick per node (``infected_at``,
    negative for never) — used for the paper's *within-subnet* views
    (Figures 3(b) and 5), where the population of interest is the subnet
    of an initial seed rather than the whole network.  Nodes that are
    not infectable hosts of ``network`` are left out.
    """
    members = [n for n in nodes if n in network.infectable_set]
    if not members:
        raise ModelError("subset contains no infectable hosts")
    stamps = np.asarray(infected_at)[members]
    infection_ticks = np.where(stamps >= 0, stamps, np.inf)
    ticks = np.asarray(ticks, dtype=float)
    counts = (infection_ticks[None, :] <= ticks[:, None]).sum(axis=1)
    return counts / len(members)


def average_trajectories(trajectories: list[Trajectory]) -> Trajectory:
    """Pointwise mean of same-population trajectories (the 10-run average).

    Runs may stop at different ticks (stop conditions fire early); shorter
    runs are extended by holding their final value, which is the correct
    continuation for a saturated or extinguished epidemic.
    """
    if not trajectories:
        raise ModelError("cannot average zero trajectories")
    populations = {t.population for t in trajectories}
    if len(populations) != 1:
        raise ModelError(
            f"trajectories disagree on population: {sorted(populations)}"
        )
    length = max(t.times.size for t in trajectories)
    longest = max(trajectories, key=lambda t: t.times.size)

    def _padded(series: np.ndarray | None) -> np.ndarray | None:
        if series is None:
            return None
        if series.size == length:
            return series
        pad = np.full(length - series.size, series[-1])
        return np.concatenate([series, pad])

    def _mean(attr: str) -> np.ndarray | None:
        columns = [_padded(getattr(t, attr)) for t in trajectories]
        if any(c is None for c in columns):
            return None
        return np.mean(np.stack(columns), axis=0)

    return Trajectory(
        times=longest.times,
        infected=_mean("infected"),
        population=longest.population,
        susceptible=_mean("susceptible"),
        removed=_mean("removed"),
        ever_infected=_mean("ever_infected"),
    )
