"""Events emitted by the protocol engines.

Engines are sans-IO: handling a message returns an :class:`Output` whose
``messages`` the runtime must transmit and whose ``events`` the upper
layer (the B2BObjectController) reacts to — installing state, signalling
completion to blocked application calls, surfacing misbehaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass
class Output:
    """Result of one engine step: messages to send + events to surface."""

    messages: "list[tuple[str, dict]]" = field(default_factory=list)
    events: "list[Event]" = field(default_factory=list)

    def send(self, recipient: str, message: dict) -> None:
        self.messages.append((recipient, message))

    def broadcast(self, recipients: "list[str]", message: dict) -> None:
        for recipient in recipients:
            self.messages.append((recipient, message))

    def emit(self, event: "Event") -> None:
        self.events.append(event)

    def merge(self, other: "Output") -> None:
        self.messages.extend(other.messages)
        self.events.extend(other.events)


@dataclass
class Event:
    """Base class for engine events."""


@dataclass
class RunCompleted(Event):
    """A coordination run reached a consistent outcome at this party."""

    run_id: str
    object_name: str
    kind: str  # "state" | "connect" | "disconnect" | "evict"
    valid: bool
    role: str  # "proposer" | "responder" | "sponsor" | "subject"
    diagnostics: "list[str]" = field(default_factory=list)
    evidence: "Optional[dict]" = None


@dataclass
class StateInstalled(Event):
    """A newly validated state was installed on the local replica.

    ``encoded``, when the engine has it, is the fragment ``state`` was
    frozen from: the read snapshot decodes it instead of copying."""

    object_name: str
    state_id: dict
    state: Any
    run_id: str
    encoded: Any = field(default=None, compare=False, repr=False)


@dataclass
class StateRolledBack(Event):
    """The proposer rolled its replica back to the last agreed state."""

    object_name: str
    state_id: dict
    state: Any
    run_id: str
    encoded: Any = field(default=None, compare=False, repr=False)


@dataclass
class MembershipChanged(Event):
    """The participant set changed (connect / disconnect / evict)."""

    object_name: str
    change: str
    subjects: "list[str]"
    members: "list[str]"
    group_id: dict
    run_id: str


@dataclass
class ConnectionDecided(Event):
    """Outcome of our own connection request (subject side)."""

    object_name: str
    accepted: bool
    members: "list[str]" = field(default_factory=list)
    state: Any = None
    diagnostics: "list[str]" = field(default_factory=list)


@dataclass
class DisconnectionDecided(Event):
    """Outcome of our own voluntary disconnection (subject side)."""

    object_name: str
    evidence: "Optional[dict]" = None


@dataclass
class MisbehaviourEvent(Event):
    """Provable misbehaviour was detected and logged (section 4.4)."""

    party: str
    kind: str
    detail: str
    object_name: str = ""
    run_id: str = ""


@dataclass
class RunBlocked(Event):
    """A run exceeded its progress deadline; evidence identifies laggards."""

    run_id: str
    object_name: str
    kind: str
    waiting_on: "list[str]" = field(default_factory=list)
    age: float = 0.0
