"""Per-tenant admission quotas: the paper's token bucket at the API edge.

The paper's host- and edge-level defenses cap a source's contact rate
with token buckets (``repro.simulator.links.TokenBucket``); this module
applies the *same* bucket — not a reimplementation — as per-tenant
admission control on ``POST /v1/run``.  Each tenant (named by the
``X-Repro-Tenant`` request header) owns one bucket that accrues
``rate`` tokens per second up to ``burst``; admitting a request costs
one token, and a tenant whose bucket is empty gets a 429 whose
``Retry-After`` is computed from the bucket's *deficit*: the seconds of
refill needed before the next token exists.

The bucket invariants the property suite pins are inherited from the
simulator's bucket: tokens never go negative (``try_consume`` is
all-or-nothing) and long-run admitted throughput is bounded by
``rate * elapsed + burst`` (the burst is the only credit a quiet tenant
can save up).

Clock discipline: elapsed time is measured per tenant from the last
refill, clamped at zero, so a clock that stalls or skews backwards
(exercised by the ``service.quota.clock`` chaos site) can never mint
tokens or push a bucket negative — the quota degrades toward *stricter*
admission, never toward over-admission.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from ..chaos.controller import fault_point
from ..simulator.links import TokenBucket

__all__ = [
    "DEFAULT_TENANT",
    "QuotaConfig",
    "QuotaDecision",
    "TenantBucket",
    "QuotaTable",
]

#: The tenant requests without an ``X-Repro-Tenant`` header bill to.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class QuotaConfig:
    """Admission budget for tenants.

    Attributes
    ----------
    rate:
        Requests per second a tenant accrues (may be fractional; 0.5
        means one request every two seconds).
    burst:
        Bucket ceiling — the most requests a quiet tenant can save up
        and spend at once.  Buckets start *full* (a fresh tenant gets
        its burst immediately; the simulator's links start empty
        because tick 0 is inside the epidemic, but an API tenant's
        history before its first request is all idle time).
    tenants:
        Per-tenant ``(rate, burst)`` overrides.
    """

    rate: float = 10.0
    burst: float = 20.0
    tenants: dict[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, (rate, burst) in (("", (self.rate, self.burst)),) + tuple(
            self.tenants.items()
        ):
            label = f"tenant {name!r} " if name else ""
            if rate <= 0:
                raise ValueError(f"{label}rate must be positive, got {rate}")
            if burst < 1:
                raise ValueError(f"{label}burst must be >= 1, got {burst}")

    def limits_for(self, tenant: str) -> tuple[float, float]:
        """The ``(rate, burst)`` pair governing one tenant."""
        return self.tenants.get(tenant, (self.rate, self.burst))


@dataclass(frozen=True)
class QuotaDecision:
    """Outcome of offering one request to a tenant's bucket."""

    tenant: str
    allowed: bool
    tokens: float
    #: Seconds of refill until the next whole token (0 when admitted).
    retry_after_s: float = 0.0

    @property
    def retry_after_header(self) -> str:
        """``Retry-After`` value: the deficit rounded up to whole seconds."""
        return str(max(1, int(-(-self.retry_after_s // 1))))

    def refusal(self) -> tuple[int, dict, dict[str, str]]:
        """The 429 ``(status, body, headers)`` either front answers a denial with."""
        return (
            429,
            {
                "error": "tenant quota exceeded",
                "tenant": self.tenant,
                "retry_after_s": round(self.retry_after_s, 3),
            },
            {"Retry-After": self.retry_after_header},
        )


class TenantBucket:
    """One tenant's admission bucket on a wall clock.

    Wraps the simulator's :class:`TokenBucket` — same accrual and
    all-or-nothing consume — driving it with fractional elapsed-second
    "ticks" instead of the simulator's discrete clock.
    """

    __slots__ = ("tenant", "_bucket", "_last_refill", "admitted", "throttled")

    def __init__(
        self, tenant: str, rate: float, burst: float, *, now: float
    ) -> None:
        self.tenant = tenant
        self._bucket = TokenBucket(rate, burst)
        # Start full: an API tenant's pre-history is idle time.  Refill
        # double the needed span so the ceiling clamp lands the level at
        # exactly ``burst`` — ``rate * (burst / rate)`` alone can round
        # a hair below it.
        self._bucket.refill(2.0 * burst / rate)
        self._last_refill = now
        self.admitted = 0
        self.throttled = 0

    @property
    def tokens(self) -> float:
        """Currently available tokens (never negative).

        The simulator bucket's consume carries a 1e-12 float tolerance,
        so its internal level can sit an epsilon below zero after an
        admission; clamp it out of the quota-facing view.
        """
        return max(0.0, self._bucket.tokens)

    @property
    def rate(self) -> float:
        return self._bucket.rate

    def offer(self, now: float, cost: float = 1.0) -> QuotaDecision:
        """Refill by wall-clock elapsed time, then try to spend ``cost``."""
        elapsed = now - self._last_refill
        if elapsed > 0:
            self._bucket.refill(elapsed)
            self._last_refill = now
        else:
            # Clock stalled or skewed backwards: accrue nothing, and
            # re-anchor so the skew is not refunded when time recovers.
            self._last_refill = max(self._last_refill, now)
        if self._bucket.try_consume(cost):
            self.admitted += 1
            return QuotaDecision(
                tenant=self.tenant, allowed=True, tokens=self.tokens
            )
        self.throttled += 1
        deficit = cost - self._bucket.tokens
        return QuotaDecision(
            tenant=self.tenant,
            allowed=False,
            tokens=self.tokens,
            retry_after_s=deficit / self._bucket.rate,
        )


class QuotaTable:
    """Thread-safe per-tenant bucket registry for the admission edge.

    Lives either in the front-door router (sharded mode — one table
    governs the whole fleet, so N shards never multiply a tenant's
    budget) or in a single-process service.  Buckets are created on a
    tenant's first request and kept forever; the table is bounded by
    the number of distinct tenants, which is operator-controlled.
    """

    def __init__(
        self,
        config: QuotaConfig,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self._clock = clock
        self._buckets: dict[str, TenantBucket] = {}
        self._lock = threading.Lock()

    def _now(self) -> float:
        now = self._clock()
        # Chaos: a ``delay`` fault at ``service.quota.clock`` skews the
        # observed clock backwards by its delay — the bucket contract
        # (never negative, never over-credited) must hold regardless.
        fault = fault_point("service.quota.clock")
        if fault is not None and fault.kind == "delay":
            now -= fault.delay_s
        return now

    def check(self, tenant: str | None, cost: float = 1.0) -> QuotaDecision:
        """Offer one request against the tenant's bucket."""
        name = tenant or DEFAULT_TENANT
        now = self._now()
        with self._lock:
            bucket = self._buckets.get(name)
            if bucket is None:
                rate, burst = self.config.limits_for(name)
                bucket = self._buckets[name] = TenantBucket(
                    name, rate, burst, now=now
                )
            return bucket.offer(now, cost)

    def stats(self) -> dict:
        """Per-tenant counters for ``/metrics``."""
        with self._lock:
            return {
                "rate": self.config.rate,
                "burst": self.config.burst,
                "tenants": {
                    name: {
                        "admitted": bucket.admitted,
                        "throttled": bucket.throttled,
                        "tokens": round(bucket.tokens, 4),
                    }
                    for name, bucket in sorted(self._buckets.items())
                },
            }
