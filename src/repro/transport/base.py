"""Transport abstractions.

Section 4.2 assumes "the communications infrastructure provides eventual,
once-only message delivery.  If the underlying communications system does
not support these semantics then the coordination middleware masks this
and presents the assumed semantics."

We model that split explicitly:

* a :class:`Network` is a *raw* channel that may delay, drop, duplicate or
  reorder messages and may be partitioned (the simulated network), or a
  best-effort real channel (TCP);
* :mod:`repro.transport.reliable` layers retransmission and duplicate
  suppression on top of any :class:`Network` to present exactly the
  eventual once-only semantics the protocol engines assume.

Networks also expose a timer facility (``schedule``) so that the reliable
layer and protocol timeouts work identically on virtual and real time.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

_envelope_counter = itertools.count(1)
_envelope_lock = threading.Lock()


def _next_envelope_number() -> int:
    with _envelope_lock:
        return next(_envelope_counter)


@dataclass(frozen=True)
class Envelope:
    """One message in flight between two named parties."""

    sender: str
    recipient: str
    payload: dict
    msg_id: str = field(default="")

    def __post_init__(self) -> None:
        if not self.msg_id:
            object.__setattr__(
                self, "msg_id", f"{self.sender}:{_next_envelope_number()}"
            )

    def to_dict(self) -> dict:
        return {
            "sender": self.sender,
            "recipient": self.recipient,
            "payload": self.payload,
            "msg_id": self.msg_id,
        }

    @staticmethod
    def from_dict(data: dict) -> "Envelope":
        return Envelope(
            sender=str(data["sender"]),
            recipient=str(data["recipient"]),
            payload=dict(data["payload"]),
            msg_id=str(data["msg_id"]),
        )


MessageHandler = Callable[[Envelope], None]


class TimerHandle:
    """Cancellable handle for a scheduled callback."""

    def __init__(self, cancel: Callable[[], None]) -> None:
        self._cancel = cancel
        self.cancelled = False

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            self._cancel()


class Network:
    """Raw message channel + timer service.

    Implementations: :class:`repro.transport.inmemory.SimNetwork` (virtual
    time, fault injection) and :class:`repro.transport.tcp.TcpNetwork`
    (real sockets, real time).
    """

    def register(self, party_id: str, handler: MessageHandler) -> None:
        """Attach the inbound-message handler for *party_id*."""
        raise NotImplementedError

    def send(self, envelope: Envelope) -> "int | None":
        """Best-effort transmission; may drop/duplicate/delay.

        Returns the approximate on-the-wire size in bytes when the
        implementation knows it (it usually sizes or serialises the
        envelope anyway), so instrumentation above need not re-walk the
        payload.  ``None`` means unknown.
        """
        raise NotImplementedError

    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Run *callback* after *delay* seconds (virtual or real)."""
        raise NotImplementedError

    def now(self) -> float:
        raise NotImplementedError

    def when_idle(self, callback: Callable[[], None]) -> None:
        """Run *callback* once, as soon as no inbound work is waiting.

        A node asks this before it starts a coordination run it could
        also start later: whatever arrives while it is busy finishing
        what it started then rides in that run's batch.  A network whose
        parties spend none of its time computing (virtual time) is never
        busy, so the base implementation runs the callback at once.
        """
        callback()

    def close(self) -> None:
        """Release transport resources (sockets, open connections,
        worker threads).  No-op for networks that hold none; must be
        idempotent."""


class NetworkFilter:
    """Hook for intruder / fault models to intercept raw traffic.

    ``on_send`` may return the envelope (possibly modified), a list of
    envelopes (inject/duplicate), or None (suppress).  The Dolev-Yao
    intruder in :mod:`repro.faults.intruder` is implemented as a filter.
    """

    def on_send(self, envelope: Envelope) -> "Envelope | list[Envelope] | None":
        return envelope


def normalise_filter_result(result: Any) -> "list[Envelope]":
    """Canonicalise a :class:`NetworkFilter` result into a list."""
    if result is None:
        return []
    if isinstance(result, Envelope):
        return [result]
    return list(result)
