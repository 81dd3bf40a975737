"""Trusted third party validation service (Figure 6).

"As an alternative to playing the game directly between two players, it
may be desirable to validate moves at a TTP in order to guarantee that
they are encoded and observed correctly ... a TTP that validates each
player's move before it is disclosed to their opponent."

A :class:`ValidatingTTP` node shares one two-party object with each
principal.  When a principal's proposal passes the TTP's validation
(i.e. the two-party coordination on that side succeeds), the TTP relays
the agreed state to every other side; a vetoed proposal never reaches
the other principals.
"""

from __future__ import annotations

from repro.agents.relay import StateRelay
from repro.core.node import OrganisationNode


class ValidatingTTP:
    """Relays validated state between per-principal shared objects."""

    def __init__(self, node: OrganisationNode,
                 side_objects: "list[str]") -> None:
        if len(side_objects) < 2:
            raise ValueError("a TTP needs at least two sides to mediate")
        self.node = node
        self.side_objects = list(side_objects)
        self.relays: "list[StateRelay]" = []
        for source in self.side_objects:
            for target in self.side_objects:
                if source != target:
                    self.relays.append(StateRelay(node, source, target))

    @property
    def relayed(self) -> int:
        return sum(relay.relayed for relay in self.relays)
