"""Rate-limited links: token buckets, FIFO queues, and drop accounting.

The paper implements rate limiting "by restricting the maximal number of
packets each link can route at each time tick and queuing the remaining
packets".  Rates from the analytical models are often fractional (e.g. a
hub budget of 0.01 contacts/tick), so each limited link carries a token
bucket: ``rate`` tokens accrue per tick up to a small burst ceiling, and
forwarding one packet costs one token.  An unlimited link forwards its
whole queue every tick.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .packet import Packet

__all__ = ["TokenBucket", "DirectedLink", "LinkStats"]


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


@dataclass
class LinkStats:
    """Per-link counters for the experiment reports."""

    forwarded: int = 0
    dropped: int = 0
    enqueued: int = 0
    peak_queue: int = 0
    #: Drained packets pushed back by a downstream forwarding budget.
    requeued: int = 0


class DirectedLink:
    """One direction of a network link, with optional rate limiting.

    Packets are offered to the link's FIFO queue and drained by the
    transmit phase: an unlimited link forwards everything, a limited link
    forwards while its token bucket has credit.  The queue is bounded
    (drop-tail) so pathological scenarios cannot exhaust memory; drops are
    counted, mirroring what a real router under worm load would do.
    """

    def __init__(
        self,
        src: int,
        dst: int,
        *,
        rate_limit: float | None = None,
        max_queue: int = 100_000,
    ) -> None:
        if max_queue <= 0:
            raise ValueError(f"max_queue must be positive, got {max_queue}")
        self.src = src
        self.dst = dst
        self._bucket = TokenBucket(rate_limit) if rate_limit is not None else None
        self._queue: deque[Packet] = deque()
        self._max_queue = max_queue
        self.stats = LinkStats()

    @property
    def is_rate_limited(self) -> bool:
        """Whether this direction carries a rate limit."""
        return self._bucket is not None

    @property
    def rate_limit(self) -> float | None:
        """Configured rate in packets/tick, or ``None`` if unlimited."""
        return self._bucket.rate if self._bucket else None

    @property
    def bucket(self) -> TokenBucket | None:
        """The installed token bucket, or ``None`` if unlimited."""
        return self._bucket

    @property
    def max_queue(self) -> int:
        """Drop-tail queue bound in packets."""
        return self._max_queue

    @property
    def queue_length(self) -> int:
        """Packets currently waiting on this link."""
        return len(self._queue)

    def set_rate_limit(
        self, rate: float | None, burst: float | None = None
    ) -> None:
        """Install (or remove, with ``None``) a rate limit on this link."""
        self._bucket = TokenBucket(rate, burst) if rate is not None else None

    def offer(self, packet: Packet) -> bool:
        """Queue a packet for transmission; False if drop-tail discarded it."""
        if len(self._queue) >= self._max_queue:
            self.stats.dropped += 1
            return False
        self._queue.append(packet)
        self.stats.enqueued += 1
        if len(self._queue) > self.stats.peak_queue:
            self.stats.peak_queue = len(self._queue)
        return True

    def requeue_front(self, packet: Packet) -> None:
        """Return an already-drained packet to the head of the queue.

        Used when a downstream node's forwarding budget blocks a packet
        after the link itself released it: the packet keeps its FIFO slot
        and retries next tick.  The hop counted by :meth:`drain` is
        reverted.
        """
        packet.hops -= 1
        self.stats.forwarded -= 1
        self.stats.requeued += 1
        self._queue.appendleft(packet)

    def drain(self) -> list[Packet]:
        """Forward this tick's worth of packets (token-bucket limited)."""
        if self._bucket is not None:
            self._bucket.refill()
        delivered: list[Packet] = []
        while self._queue:
            if self._bucket is not None and not self._bucket.try_consume():
                break
            packet = self._queue.popleft()
            packet.hops += 1
            delivered.append(packet)
            self.stats.forwarded += 1
        return delivered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        limit = f", rate={self.rate_limit}" if self.is_rate_limited else ""
        return f"DirectedLink({self.src}->{self.dst}{limit}, q={self.queue_length})"
