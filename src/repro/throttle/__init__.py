"""Working host-level rate limiters (Williamson IP throttle, Ganger DNS
throttle) and trace replay tooling."""

from .base import Action, Decision, Throttle, ThrottleStats
from .dns_throttle import DnsThrottle
from .replay import (
    HostThrottles,
    ReplayResult,
    replay_class,
    replay_host,
    replay_hosts,
    worm_slowdown,
)
from .williamson import WilliamsonThrottle

__all__ = [
    "Action",
    "Decision",
    "Throttle",
    "ThrottleStats",
    "DnsThrottle",
    "HostThrottles",
    "ReplayResult",
    "replay_class",
    "replay_host",
    "replay_hosts",
    "worm_slowdown",
    "WilliamsonThrottle",
]
