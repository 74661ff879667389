"""The token bucket that rate limits links, hosts and service quotas.

The paper implements rate limiting "by restricting the maximal number of
packets each link can route at each time tick and queuing the remaining
packets".  Rates from the analytical models are often fractional (e.g. a
hub budget of 0.01 contacts/tick), so each limited link carries a token
bucket: ``rate`` tokens accrue per tick up to a small burst ceiling, and
forwarding one packet costs one token.  An unlimited link forwards its
whole queue every tick.  The engines keep their buckets as plain floats
updated with this class's arithmetic (:mod:`repro.simulator.fastpath.
transport`); the service's admission quotas use the class itself.
"""

from __future__ import annotations

__all__ = ["TokenBucket"]


class TokenBucket:
    """Fractional-rate token bucket with deterministic accrual.

    Parameters
    ----------
    rate:
        Tokens added per tick.  May be fractional; a rate of 0.01 lets one
        packet through roughly every 100 ticks.
    burst:
        Token ceiling.  Defaults to ``rate + 1``: large enough that the
        sub-packet remainder left after forwarding is never clipped (so
        long-run throughput equals ``rate`` exactly), small enough that a
        quiet link cannot save up a meaningful burst.  The bucket starts
        empty, so the first tick forwards at most ``rate`` packets.
    """

    def __init__(self, rate: float, burst: float | None = None) -> None:
        if rate < 0:
            raise ValueError(f"rate must be non-negative, got {rate}")
        self._rate = float(rate)
        self._burst = float(burst) if burst is not None else self._rate + 1.0
        if self._burst <= 0:
            raise ValueError(f"burst must be positive, got {self._burst}")
        self._tokens = 0.0

    @property
    def rate(self) -> float:
        """Tokens accrued per tick."""
        return self._rate

    @property
    def burst(self) -> float:
        """Token ceiling."""
        return self._burst

    @property
    def tokens(self) -> float:
        """Currently available tokens."""
        return self._tokens

    def refill(self, ticks: float = 1.0) -> None:
        """Advance ``ticks`` ticks: accrue ``rate * ticks`` up to the cap.

        The default (one tick) is the simulator's discrete clock; the
        service quota layer reuses the same bucket on a wall clock by
        passing fractional elapsed seconds.  Negative ``ticks`` (a
        clock running backwards) accrue nothing rather than debiting —
        tokens only ever move down through :meth:`try_consume`.
        """
        if ticks <= 0:
            return
        self._tokens = min(self._tokens + self._rate * ticks, self._burst)

    def try_consume(self, amount: float = 1.0) -> bool:
        """Spend ``amount`` tokens if available; returns success."""
        if self._tokens + 1e-12 >= amount:
            self._tokens -= amount
            return True
        return False
