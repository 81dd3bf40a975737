"""Relay machinery shared by trusted agents and TTP services.

A relay watches coordination outcomes on one shared object and propagates
validated state to another shared object hosted by the same node.  The
relayed state is a write like any other: it waits its turn in the
target's write queue, which also retries it if a busy replica vetoes it
— a relay arms no timer of its own; what it proposes there is the state
disclosed when the source settled.  Relays converge because they only
propagate *agreed* states and stop when source and target agree.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.node import OrganisationNode
from repro.errors import NotConnectedError
from repro.protocol.events import Event, RunCompleted

Transform = Callable[[Any], "Optional[Any]"]


class StateRelay:
    """One-directional propagation of agreed state between two objects."""

    def __init__(self, node: OrganisationNode, source: str, target: str,
                 transform: "Transform | None" = None) -> None:
        self.node = node
        self.source = source
        self.target = target
        self.transform = transform if transform is not None else (lambda state: state)
        self.relayed = 0
        self.withheld = 0
        node.add_listener(self._on_event)

    def _on_event(self, event: Event) -> None:
        if (isinstance(event, RunCompleted) and event.kind == "state"
                and event.object_name == self.source and event.valid):
            self._try_relay()

    def _try_relay(self) -> None:
        try:
            source_session = self.node.party.session(self.source)
            target_session = self.node.party.session(self.target)
        except NotConnectedError:
            return
        disclosed = self.transform(source_session.state.agreed_state)
        if disclosed is None:
            self.withheld += 1
            return
        if disclosed == target_session.state.agreed_state:
            return  # already converged
        self.node.propagate_new_state(self.target, disclosed)
        self.relayed += 1
