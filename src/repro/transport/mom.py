"""Message-oriented (store-and-forward) transport (section 7).

"To support loosely-coupled inter-organisational interaction, we intend
to provide implementations of the middleware that are based on Message
Oriented Middleware and on the use of SMTP and HTTP/SOAP for message
delivery."

:class:`BrokeredSimNetwork` realises that style over the deterministic
simulator: every message is stored in a broker mailbox and delivered when
the recipient is *attached*; a detached (offline) organisation simply
accumulates mail and drains it on re-attachment.  All of the simulator's
fault injection (loss, duplication, partitions between an endpoint and
the broker) still applies to the path into the broker.

Because the broker itself is durable, endpoints can run with
retransmission disabled — the paper's eventual-delivery assumption is met
by the broker instead of by sender retries — but the default reliable
layer also works unchanged (duplicates are suppressed as usual).
"""

from __future__ import annotations

from typing import Optional

from repro.storage.backends import RecordStore
from repro.transport.base import Envelope
from repro.transport.inmemory import LinkProfile, SimNetwork


class BrokeredSimNetwork(SimNetwork):
    """A simulated network where all traffic flows via broker mailboxes."""

    def __init__(self, seed: "int | str" = 0,
                 default_profile: "LinkProfile | None" = None,
                 delivery_interval: float = 0.02,
                 mailbox_store_factory: "Optional[callable]" = None) -> None:
        super().__init__(seed=seed, default_profile=default_profile)
        self._delivery_interval = delivery_interval
        self._mailboxes: "dict[str, list[Envelope]]" = {}
        self._detached: "set[str]" = set()
        self._drain_armed: "set[str]" = set()
        # Optional durability: a RecordStore per mailbox mirrors queued
        # messages so a "broker restart" can be simulated in tests.
        self._store_factory = mailbox_store_factory
        self._stores: "dict[str, RecordStore]" = {}

    # ------------------------------------------------------------------
    # attachment control (the loose coupling)
    # ------------------------------------------------------------------

    def detach(self, party_id: str) -> None:
        """Take a party offline; its mail accumulates at the broker."""
        self._detached.add(party_id)

    def attach(self, party_id: str) -> None:
        """Bring a party back online and drain its mailbox."""
        self._detached.discard(party_id)
        self._arm_drain(party_id)

    def mailbox_depth(self, party_id: str) -> int:
        return len(self._mailboxes.get(party_id, []))

    # ------------------------------------------------------------------
    # delivery override
    # ------------------------------------------------------------------

    def _deliver(self, envelope: Envelope) -> None:
        # The base-class checks model the path from the sender to the
        # broker: a partitioned or crashed *sender-side* hop loses the
        # message before it is stored.
        if self._partitioned(envelope.sender, envelope.recipient):
            self.stats.partition_blocked += 1
            return
        mailbox = self._mailboxes.setdefault(envelope.recipient, [])
        mailbox.append(envelope)
        self._persist(envelope)
        self._arm_drain(envelope.recipient)

    def _arm_drain(self, party_id: str) -> None:
        if party_id in self._drain_armed or party_id in self._detached:
            return
        if not self._mailboxes.get(party_id):
            return
        self._drain_armed.add(party_id)
        self.schedule(self._delivery_interval,
                      lambda: self._drain(party_id))

    def _drain(self, party_id: str) -> None:
        self._drain_armed.discard(party_id)
        if party_id in self._detached:
            return
        if self.is_crashed(party_id):
            # A crashed endpoint keeps its mail queued (unlike the direct
            # network, where in-flight messages to a crashed node are
            # lost) — the essence of store-and-forward.
            self._arm_later(party_id)
            return
        handler = self._handlers.get(party_id)
        mailbox = self._mailboxes.get(party_id, [])
        while mailbox:
            envelope = mailbox.pop(0)
            if handler is not None:
                self.stats.delivered += 1
                handler(envelope)

    def _arm_later(self, party_id: str) -> None:
        if party_id in self._drain_armed:
            return
        self._drain_armed.add(party_id)
        self.schedule(self._delivery_interval * 5,
                      lambda: self._drain(party_id))

    def _persist(self, envelope: Envelope) -> None:
        if self._store_factory is None:
            return
        store = self._stores.get(envelope.recipient)
        if store is None:
            store = self._store_factory(envelope.recipient)
            self._stores[envelope.recipient] = store
        store.append(envelope.to_dict())
