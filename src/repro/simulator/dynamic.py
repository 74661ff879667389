"""Dynamic quarantine: detect the worm, then deploy the filters.

The paper's deployment analysis assumes filters are in place before the
outbreak.  Its title promises more: *dynamic* quarantine.  This module
supplies the missing control loop —

    telescope observations → scan detector → (reaction delay) → deploy

— so experiments can measure what detection latency costs: every tick
between first infection and filter deployment is a tick of unthrottled
exponential growth, which is exactly why the paper's Section 6 found
early response so decisive.

Usage::

    quarantine = DynamicQuarantine(
        response=lambda net: deploy_backbone_rate_limit(net, 0.02),
        reaction_delay=2,
    )
    sim = FastWormSimulation(network, RandomScanWorm(hit_probability=0.5),
                             scan_rate=1.6, quarantine=quarantine, seed=1)
    curve = sim.run(300)
    print(quarantine.deployed_at)

The loop only decides *when* to deploy.  The response is a deployer
that returns a :class:`~repro.simulator.defense.DefensePlan`; the engine
that runs the loop computes the plan and applies it to its own state,
so the network stays as built.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from .defense import DefensePlan
from .network import Network
from .telescope import ScanDetector, Telescope

__all__ = ["DynamicQuarantine"]

Response = Callable[[Network], DefensePlan]


class DynamicQuarantine:
    """Deploys a rate-limiting response once a worm is detected.

    Parameters
    ----------
    response:
        The deployment to engage when the quarantine triggers: any of
        the :mod:`repro.simulator.defense` deployers, partially applied.
    telescope:
        Dark-space monitor; defaults to a /8-equivalent telescope.
    detector:
        Anomaly detector over the telescope's per-tick counts.
    reaction_delay:
        Ticks between detection and the filters actually engaging
        (signature distribution, operator reaction, BGP convergence...).
    """

    def __init__(
        self,
        response: Response,
        *,
        telescope: Telescope | None = None,
        detector: ScanDetector | None = None,
        reaction_delay: int = 0,
    ) -> None:
        if reaction_delay < 0:
            raise ValueError(
                f"reaction_delay must be non-negative, got {reaction_delay}"
            )
        self._response = response
        self.telescope = telescope if telescope is not None else Telescope()
        self.detector = detector if detector is not None else ScanDetector()
        self.reaction_delay = reaction_delay
        self.deployed_at: int | None = None

    @property
    def response(self) -> Response:
        """The deployer whose plan engages when the loop triggers."""
        return self._response

    @property
    def detected_at(self) -> int | None:
        """Tick the detector fired, or ``None``."""
        report = self.detector.report
        return report.detected_at if report else None

    @property
    def is_deployed(self) -> bool:
        """Whether the response has engaged."""
        return self.deployed_at is not None

    def note_missed_scan(self, rng: random.Random) -> None:
        """Called by the simulation for every scan that hit dark space."""
        self.telescope.observe_missed_scan(rng)

    def step(self, tick: int) -> bool:
        """Run one tick of the control loop; True if the response engages now."""
        self.telescope.end_tick()
        self.detector.update(tick, self.telescope)
        if self.is_deployed or not self.detector.has_detected:
            return False
        if tick < self.detector.report.detected_at + self.reaction_delay:
            return False
        self.deployed_at = tick
        return True
