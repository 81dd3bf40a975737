"""Direct (transport-less) engine test harness.

Builds a set of ``ProtocolParty`` instances wired by synchronous message
pumping, so protocol logic can be exercised deterministically without the
network layer (which has its own tests).
"""

from __future__ import annotations

from repro.crypto.prng import DeterministicRandomSource
from repro.crypto.rsa import generate_keypair
from repro.crypto.signature import KeyPair
from repro.crypto.timestamp import TimestampService
from repro.protocol.context import PartyContext
from repro.protocol.events import Output
from repro.protocol.party import ProtocolParty
from repro.util.clocks import Clock, VirtualClock

_KEY_RNG = DeterministicRandomSource("engine-helpers")
_KEY_CACHE: "dict[str, KeyPair]" = {}


def _keypair(name: str) -> KeyPair:
    if name not in _KEY_CACHE:
        _KEY_CACHE[name] = KeyPair(name, generate_keypair(512, _KEY_RNG))
    return _KEY_CACHE[name]


class EngineHarness:
    """A set of parties with instantaneous, lossless message pumping."""

    def __init__(self, names: "list[str]", seed: "int | str" = 0,
                 with_tsa: bool = True) -> None:
        self.clock = VirtualClock()
        self.names = list(names)
        rng = DeterministicRandomSource(f"harness:{seed}")
        keypairs = {name: _keypair(name) for name in names}
        self.verifiers = {name: kp.verifier() for name, kp in keypairs.items()}
        self.tsa = TimestampService(clock=self.clock, keypair=_keypair("TSA")) \
            if with_tsa else None
        self.parties: "dict[str, ProtocolParty]" = {}
        for name in names:
            ctx = PartyContext(
                party_id=name,
                signer=keypairs[name].signer(),
                resolver=self._resolve,
                tsa=self.tsa,
                rng=rng.fork(name),
                clock=self.clock,
            )
            self.parties[name] = ProtocolParty(ctx)
        self.events: "dict[str, list]" = {name: [] for name in names}
        self.dropped: "list[tuple[str, str, dict]]" = []
        # Optional per-edge blocking: pairs (sender, recipient) to drop.
        self.blocked_edges: "set[tuple[str, str]]" = set()

    def _resolve(self, party_id: str):
        if party_id not in self.verifiers:
            self.verifiers[party_id] = _keypair(party_id).verifier()
        return self.verifiers[party_id]

    def party(self, name: str) -> ProtocolParty:
        return self.parties[name]

    def add_party(self, name: str) -> ProtocolParty:
        keypair = _keypair(name)
        rng = DeterministicRandomSource(f"late:{name}")
        ctx = PartyContext(
            party_id=name,
            signer=keypair.signer(),
            resolver=self._resolve,
            tsa=self.tsa,
            rng=rng,
            clock=self.clock,
        )
        party = ProtocolParty(ctx)
        self.parties[name] = party
        self.events[name] = []
        self.names.append(name)
        return party

    def pump(self, source: str, output: Output) -> None:
        """Deliver all messages (and transitively produced ones) in FIFO."""
        queue: "list[tuple[str, Output]]" = [(source, output)]
        for _ in range(100_000):
            if not queue:
                return
            sender, out = queue.pop(0)
            self.events[sender].extend(out.events)
            for recipient, message in out.messages:
                if (sender, recipient) in self.blocked_edges:
                    self.dropped.append((sender, recipient, message))
                    continue
                if recipient not in self.parties:
                    self.dropped.append((sender, recipient, message))
                    continue
                reply = self.parties[recipient].handle(sender, message)
                queue.append((recipient, reply))
        raise RuntimeError("pump did not converge")

    def pump_shuffled(self, source: str, output: Output,
                      seed: "int | str" = 0) -> None:
        """Deliver messages in a random order (section 4.2: "there is no
        requirement for the communications system to order messages")."""
        rng = DeterministicRandomSource(f"shuffle:{seed}")
        queue: "list[tuple[str, str, dict]]" = [
            ("", source, {"__events__": output})
        ]
        pending: "list[tuple[str, str, dict]]" = []
        self.events[source].extend(output.events)
        for recipient, message in output.messages:
            pending.append((source, recipient, message))
        for _ in range(100_000):
            if not pending:
                return
            index = rng.random_below(len(pending))
            sender, recipient, message = pending.pop(index)
            if (sender, recipient) in self.blocked_edges \
                    or recipient not in self.parties:
                self.dropped.append((sender, recipient, message))
                continue
            reply = self.parties[recipient].handle(sender, message)
            self.events[recipient].extend(reply.events)
            for next_recipient, next_message in reply.messages:
                pending.append((recipient, next_recipient, next_message))
        raise RuntimeError("shuffled pump did not converge")

    def deliver(self, sender: str, recipient: str, message: dict) -> None:
        """Inject a single message (e.g. a replay) and pump the fallout."""
        reply = self.parties[recipient].handle(sender, message)
        self.pump(recipient, reply)

    def events_of(self, name: str, event_type: "type | None" = None) -> list:
        if event_type is None:
            return list(self.events[name])
        return [e for e in self.events[name] if isinstance(e, event_type)]


def found(harness: EngineHarness, object_name: str, members: "list[str]",
          initial_state, **kwargs) -> None:
    for name in members:
        harness.party(name).create_object(
            object_name, members, initial_state, **kwargs
        )


class OffsetClock(Clock):
    """A clock skewed from another clock by a fixed offset.

    Used in tests to model per-organisation clock skew and to check that
    evidence time-stamps come from the *trusted* service, not local clocks.
    """

    def __init__(self, base: Clock, offset: float) -> None:
        self._base = base
        self._offset = float(offset)

    def now(self) -> float:
        return self._base.now() + self._offset
