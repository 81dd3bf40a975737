"""Clock abstractions.

The protocol engines never read wall-clock time directly; they take a
:class:`Clock` so that the deterministic simulation runtime can drive them
on virtual time while the TCP runtime uses the system clock.  Time-stamping
services are built on the same abstraction (section 4.2 of the paper
requires all signed evidence to be time-stamped).
"""

from __future__ import annotations

import threading
import time


class Clock:
    """Abstract monotonic-ish clock returning seconds as a float."""

    def now(self) -> float:
        raise NotImplementedError


class SystemClock(Clock):
    """Wall-clock time (``time.time``).

    Use only where real-world timestamps are the point — evidence
    records and time-stamp tokens.  Interval measurement (timeouts,
    retransmission pacing, latency) must use :class:`MonotonicClock`:
    wall clocks step under NTP corrections, which would stall or storm
    any timer arithmetic built on them.
    """

    def now(self) -> float:
        return time.time()


class MonotonicClock(Clock):
    """Steadily increasing time (``time.monotonic``), immune to wall steps.

    The zero point is arbitrary, so readings are only meaningful as
    differences — exactly what retransmission timers and latency
    measurements need.
    """

    def now(self) -> float:
        return time.monotonic()


class VirtualClock(Clock):
    """A manually advanced clock for deterministic simulation.

    Thread-safe so that the TCP runtime's helper threads may also consult a
    virtual clock in hybrid test setups.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._now

    def advance(self, delta: float) -> float:
        """Move time forward by *delta* seconds and return the new time."""
        if delta < 0:
            raise ValueError("virtual time cannot move backwards")
        with self._lock:
            self._now += delta
            return self._now

    def advance_to(self, instant: float) -> float:
        """Move time forward to *instant* (no-op if already past it)."""
        with self._lock:
            if instant > self._now:
                self._now = float(instant)
            return self._now
