"""Shared machinery for the analytical epidemic models.

Every model in the paper is a small system of ordinary differential
equations derived from the homogeneous (uniform-mixing) epidemic model of
Section 3.  This module provides:

* :class:`Trajectory` — an immutable time series of the epidemic state with
  the accessors the experiments need (fraction infected, time to reach a
  level, ever-infected totals).
* :class:`EpidemicModel` — the abstract base class; subclasses implement
  :meth:`EpidemicModel.derivatives` and inherit a ``solve`` method backed by
  ``scipy.integrate.solve_ivp``.

Models that also have closed-form solutions (most of them do — the paper
derives logistic forms for each) expose them as ``closed_form_*`` methods so
the test suite can cross-check the numeric integrator against the algebra.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

__all__ = ["ModelError", "Trajectory", "EpidemicModel", "logistic_fraction"]


class ModelError(ValueError):
    """Raised for invalid model parameters or unusable trajectories."""


def logistic_fraction(
    t: np.ndarray | float, rate: float, initial_fraction: float
) -> np.ndarray | float:
    """The paper's ubiquitous logistic solution ``I/N = e^{λt} / (c + e^{λt})``.

    ``c`` is fixed by the initial infection level: ``c = 1/f0 - 1`` where
    ``f0`` is the fraction infected at ``t = 0``.  For small ``f0`` this
    approaches the paper's ``c → N - 1`` (with ``f0 = 1/N``).
    """
    if not 0.0 < initial_fraction < 1.0:
        raise ModelError(
            f"initial fraction must be in (0, 1), got {initial_fraction}"
        )
    c = 1.0 / initial_fraction - 1.0
    growth = np.exp(np.asarray(t, dtype=float) * rate)
    return growth / (c + growth)


@dataclass(frozen=True)
class Trajectory:
    """A solved epidemic trajectory.

    Attributes
    ----------
    times:
        Strictly increasing sample times.
    infected:
        Currently infected population ``I(t)`` (absolute count).
    population:
        Initial susceptible population ``N0`` the fractions are relative to.
    susceptible:
        Remaining susceptible population ``S(t)``, when the model tracks it.
    removed:
        Immunized/removed population ``R(t)``, when the model tracks it.
    ever_infected:
        Cumulative count of hosts that were ever infected, when tracked.
        This is what the paper's Figure 8 plots ("total percentage of nodes
        ever infected").
    """

    times: np.ndarray
    infected: np.ndarray
    population: float
    susceptible: np.ndarray | None = None
    removed: np.ndarray | None = None
    ever_infected: np.ndarray | None = None
    labels: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        infected = np.asarray(self.infected, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ModelError("a trajectory needs at least two time samples")
        if infected.shape != times.shape:
            raise ModelError(
                f"infected shape {infected.shape} does not match times "
                f"shape {times.shape}"
            )
        if np.any(np.diff(times) <= 0):
            raise ModelError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "infected", infected)

    @property
    def fraction_infected(self) -> np.ndarray:
        """``I(t) / N0`` — the y-axis of nearly every figure in the paper."""
        return self.infected / self.population

    @property
    def fraction_ever_infected(self) -> np.ndarray:
        """``C(t) / N0``; requires the model to track ever-infected."""
        if self.ever_infected is None:
            raise ModelError("this trajectory does not track ever-infected")
        return self.ever_infected / self.population

    def final_fraction_ever_infected(self) -> float:
        """Ever-infected fraction at the last sample."""
        return float(self.fraction_ever_infected[-1])

    def time_to_fraction(self, level: float, *, of_ever: bool = False) -> float:
        """First time the (ever-)infected fraction reaches ``level``.

        Linearly interpolates between samples.  Returns ``math.inf`` if the
        level is never reached within the solved horizon — callers comparing
        deployment strategies treat that as "the worm was contained".
        """
        if not 0.0 < level < 1.0:
            raise ModelError(f"level must be in (0, 1), got {level}")
        series = (
            self.fraction_ever_infected if of_ever else self.fraction_infected
        )
        above = np.nonzero(series >= level)[0]
        if above.size == 0:
            return float("inf")
        idx = int(above[0])
        if idx == 0:
            return float(self.times[0])
        t0, t1 = self.times[idx - 1], self.times[idx]
        y0, y1 = series[idx - 1], series[idx]
        if y1 == y0:
            return float(t1)
        return float(t0 + (level - y0) * (t1 - t0) / (y1 - y0))

    # -- Export -----------------------------------------------------------

    def to_csv(self) -> str:
        """Serialize the trajectory as CSV (for plotting tools).

        Columns: ``time``, ``infected``, plus whichever of
        ``susceptible`` / ``removed`` / ``ever_infected`` the model
        tracked.  The population is recorded in a leading comment line so
        fractions can be recomputed.
        """
        columns: dict[str, np.ndarray] = {
            "time": self.times,
            "infected": self.infected,
        }
        for name in ("susceptible", "removed", "ever_infected"):
            series = getattr(self, name)
            if series is not None:
                columns[name] = series
        lines = [f"# population={self.population!r}"]
        lines.append(",".join(columns))
        for row in zip(*columns.values()):
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "Trajectory":
        """Parse a trajectory written by :meth:`to_csv`."""
        lines = [line for line in text.splitlines() if line.strip()]
        if len(lines) < 4 or not lines[0].startswith("# population="):
            raise ModelError("not a Trajectory CSV (missing header)")
        population = float(lines[0].split("=", 1)[1])
        header = lines[1].split(",")
        rows = [
            [float(cell) for cell in line.split(",")] for line in lines[2:]
        ]
        data = {name: np.array(col) for name, col in zip(header, zip(*rows))}
        if "time" not in data or "infected" not in data:
            raise ModelError("Trajectory CSV needs time and infected columns")
        return cls(
            times=data["time"],
            infected=data["infected"],
            population=population,
            susceptible=data.get("susceptible"),
            removed=data.get("removed"),
            ever_infected=data.get("ever_infected"),
        )


class EpidemicModel(abc.ABC):
    """Base class for the paper's deterministic epidemic models.

    Subclasses define the ODE right-hand side over a model-specific state
    vector and name its components via :meth:`state_labels`; ``solve``
    integrates it and converts the result into a :class:`Trajectory`.
    """

    #: Relative/absolute tolerances for the stiff-ish logistic systems.
    _RTOL = 1e-8
    _ATOL = 1e-10

    @abc.abstractmethod
    def initial_state(self) -> np.ndarray:
        """State vector at ``t = 0``."""

    @abc.abstractmethod
    def derivatives(self, t: float, state: np.ndarray) -> np.ndarray:
        """Right-hand side of the ODE system."""

    @abc.abstractmethod
    def state_labels(self) -> tuple[str, ...]:
        """Names of the state components, e.g. ``('infected', 'population')``.

        Recognized names: ``infected``, ``susceptible``, ``population``,
        ``removed``, ``ever_infected``.  ``infected`` is mandatory.
        """

    @property
    @abc.abstractmethod
    def population(self) -> float:
        """Initial susceptible population ``N0``."""

    def solve(
        self,
        t_end: float,
        *,
        num_points: int = 500,
        method: str = "RK45",
    ) -> Trajectory:
        """Integrate the model over ``[0, t_end]``.

        Parameters
        ----------
        t_end:
            Horizon in the paper's abstract time units ("simulation ticks").
        num_points:
            Number of evenly spaced output samples.
        method:
            Any ``solve_ivp`` method; the default RK45 handles every model
            here comfortably.
        """
        if t_end <= 0:
            raise ModelError(f"t_end must be positive, got {t_end}")
        if num_points < 2:
            raise ModelError(f"num_points must be >= 2, got {num_points}")
        times = np.linspace(0.0, t_end, num_points)
        solution = solve_ivp(
            self.derivatives,
            (0.0, float(t_end)),
            self.initial_state(),
            t_eval=times,
            method=method,
            rtol=self._RTOL,
            atol=self._ATOL,
        )
        if not solution.success:  # pragma: no cover - scipy rarely fails here
            raise ModelError(f"ODE integration failed: {solution.message}")
        return self._to_trajectory(times, solution.y)

    def _to_trajectory(
        self, times: np.ndarray, states: np.ndarray
    ) -> Trajectory:
        labels = self.state_labels()
        if len(labels) != states.shape[0]:
            raise ModelError(
                f"state_labels() returned {len(labels)} names for a "
                f"{states.shape[0]}-component state"
            )
        series = {label: states[i] for i, label in enumerate(labels)}
        if "infected" not in series:
            raise ModelError("state_labels() must include 'infected'")
        return Trajectory(
            times=times,
            infected=np.clip(series["infected"], 0.0, None),
            population=self.population,
            susceptible=series.get("susceptible"),
            removed=series.get("removed"),
            ever_infected=series.get("ever_infected"),
        )
