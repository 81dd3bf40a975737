"""The Dolev-Yao network intruder (section 4.4).

"The well-known Dolev-Yao intruder (who has full control over the network
but cannot perform cryptanalysis) can obtain complete knowledge of
proposed object state and of decisions with respect to proposals.  In
addition, they are able to modify the unsigned parts of any message ...
Given secure channels, this intruder can only remove, delay or replay
messages."

The intruder is a :class:`~repro.transport.base.NetworkFilter` on the raw
(simulated) network, below the reliable layer — exactly where a network
attacker sits.  It can eavesdrop, drop, delay, replay, inject, and
rewrite unsigned message content; it cannot forge signatures (it has no
keys).
"""

from __future__ import annotations

import copy
from typing import Callable, Optional

from repro.transport.base import Envelope, NetworkFilter
from repro.transport.inmemory import SimNetwork


class DolevYaoIntruder(NetworkFilter):
    """A programmable man-in-the-middle on the raw network."""

    def __init__(self, network: SimNetwork, secure_channels: bool = False) -> None:
        self.network = network
        # With secure (encrypted/authenticated) channels the intruder can
        # still remove and delay, but cannot read or rewrite.
        self.secure_channels = secure_channels
        self.observed: "list[Envelope]" = []
        self.dropped = 0
        self.delayed = 0
        self.modified = 0
        self.injected = 0
        self._drop_predicate: "Optional[Callable[[Envelope], bool]]" = None
        self._delay_predicate: "Optional[Callable[[Envelope], float]]" = None
        self._rewrite: "Optional[Callable[[dict], Optional[dict]]]" = None
        network.add_filter(self)

    # -- attack configuration -------------------------------------------

    def drop_when(self, predicate: "Callable[[Envelope], bool]") -> None:
        """Remove messages matching *predicate*."""
        self._drop_predicate = predicate

    def delay_when(self, predicate: "Callable[[Envelope], float]") -> None:
        """Delay matching messages by the returned number of seconds
        (return 0 to pass through immediately)."""
        self._delay_predicate = predicate

    def rewrite_payloads(self, rewrite: "Callable[[dict], Optional[dict]]") -> None:
        """Modify protocol payloads in flight (insecure channels only).

        *rewrite* receives a deep copy of the protocol message and
        returns the modified message, or None to leave it unchanged.
        """
        self._rewrite = rewrite

    # -- active attacks ---------------------------------------------------

    def inject(self, sender: str, recipient: str, payload: dict) -> None:
        """Forge a raw message claiming to be from *sender*."""
        self.injected += 1
        self.network._transmit(Envelope(
            sender=sender, recipient=recipient,
            payload={"type": "data", "data": payload},
        ))

    def knowledge(self) -> "list[dict]":
        """Everything the intruder has learned (decoded data payloads)."""
        learned = []
        for envelope in self.observed:
            if envelope.payload.get("type") == "data":
                learned.append(envelope.payload.get("data", {}))
        return learned

    # -- NetworkFilter ----------------------------------------------------

    def on_send(self, envelope: Envelope) -> "Envelope | list[Envelope] | None":
        self.observed.append(envelope)
        if self._drop_predicate is not None and self._drop_predicate(envelope):
            self.dropped += 1
            return None
        if self._delay_predicate is not None:
            delay = self._delay_predicate(envelope)
            if delay and delay > 0:
                self.delayed += 1
                self.network.schedule(
                    delay,
                    lambda env=envelope: self.network._transmit(env),
                )
                return None
        if (self._rewrite is not None and not self.secure_channels
                and envelope.payload.get("type") == "data"):
            data = copy.deepcopy(envelope.payload.get("data", {}))
            rewritten = self._rewrite(data)
            if rewritten is not None:
                self.modified += 1
                return Envelope(
                    sender=envelope.sender,
                    recipient=envelope.recipient,
                    payload={"type": "data", "data": rewritten},
                    msg_id=envelope.msg_id,
                )
        return envelope


def tamper_body(message: dict) -> "Optional[dict]":
    """Canonical unsigned-part attack: corrupt the proposed state body."""
    if message.get("msg_type") == "propose":
        tampered = copy.deepcopy(message)
        body = tampered.get("body")
        if isinstance(body, dict):
            body["__intruder__"] = True
        else:
            tampered["body"] = {"__intruder__": True}
        return tampered
    return None


def tamper_commit_auth(message: dict) -> "Optional[dict]":
    """Corrupt the (unsigned) authenticator in a commit."""
    if message.get("msg_type") in ("commit", "connect_commit", "disconnect_commit"):
        tampered = copy.deepcopy(message)
        auth = bytes(tampered.get("auth", b"\x00"))
        tampered["auth"] = bytes(b ^ 0xFF for b in auth)
        return tampered
    return None
