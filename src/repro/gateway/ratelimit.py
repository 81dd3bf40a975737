"""Per-client token-bucket rate limiting.

Each client gets a :class:`TokenBucket` with a configurable *burst*
(bucket capacity) and *rate* (tokens refilled per second, on the node's
protocol clock — virtual time under the simulator, wall time over TCP).
One request costs one token; an empty bucket answers with the refill
delay so the client can retry at exactly the right moment rather than
hammering.

The per-client bucket map is LRU-bounded (``max_clients``), so a
population of millions of one-shot clients cannot grow the gateway's
memory without bound; an evicted client simply starts over with a full
bucket, which errs on the side of admitting.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.util.clocks import Clock


class TokenBucket:
    """One client's token bucket (continuous refill, bounded burst)."""

    __slots__ = ("rate", "burst", "_tokens", "_stamp")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        if rate <= 0.0:
            raise ValueError("refill rate must be positive")
        if burst < 1.0:
            raise ValueError("burst must be at least 1 token")
        self.rate = rate
        self.burst = burst
        self._tokens = float(burst)
        self._stamp = now

    def _refill(self, now: float) -> None:
        elapsed = now - self._stamp
        if elapsed > 0.0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._stamp = now

    def try_acquire(self, now: float, tokens: float = 1.0) -> bool:
        """Take *tokens* if available; refills first."""
        self._refill(now)
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    def retry_after(self, now: float, tokens: float = 1.0) -> float:
        """Seconds until *tokens* will be available (0.0 when they are)."""
        self._refill(now)
        missing = tokens - self._tokens
        return max(0.0, missing / self.rate)


class RateLimiter:
    """LRU-bounded map of per-client token buckets."""

    def __init__(self, rate: float, burst: float, clock: Clock,
                 max_clients: int = 131072) -> None:
        if max_clients < 1:
            raise ValueError("max_clients must be at least 1")
        self.rate = rate
        self.burst = burst
        self.clock = clock
        self.max_clients = max_clients
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()

    def bucket(self, client_id: str) -> TokenBucket:
        bucket = self._buckets.get(client_id)
        now = self.clock.now()
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst, now)
            self._buckets[client_id] = bucket
            while len(self._buckets) > self.max_clients:
                self._buckets.popitem(last=False)
        else:
            self._buckets.move_to_end(client_id)
        return bucket

    def admit(self, client_id: str) -> "tuple[bool, float]":
        """``(admitted, retry_after_seconds)`` for one request."""
        bucket = self.bucket(client_id)
        now = self.clock.now()
        if bucket.try_acquire(now):
            return True, 0.0
        return False, bucket.retry_after(now)

    def __len__(self) -> int:
        return len(self._buckets)
