"""Trusted agents (Figure 1b).

In the indirect interaction style, each organisation interacts only with
its own trusted agent; the agents coordinate interaction state among
themselves.  State disclosure is *conditional*: the agent's disclosure
policy decides what part of the principal's state reaches the other
agents and what part of the shared state reaches the principal.

Concretely, a :class:`TrustedAgent` node is a member of two sharing
groups: an *inner* two-party object shared with its principal and an
*outer* object shared with the other agents.  Validated inner changes are
propagated outward through the disclosure policy and vice versa.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.agents.relay import StateRelay
from repro.core.node import OrganisationNode


class DisclosurePolicy:
    """Decides what crosses the agent boundary in each direction.

    Either method may return None to withhold the change entirely —
    "conditional state disclosure" (section 2).
    """

    def outbound(self, inner_state: Any) -> "Optional[Any]":
        """Project the principal's state for disclosure to other agents."""
        return inner_state

    def inbound(self, outer_state: Any) -> "Optional[Any]":
        """Project the shared state for delivery to the principal."""
        return outer_state


class FilterDisclosurePolicy(DisclosurePolicy):
    """Dict-state policy: only the listed keys are disclosed outward."""

    def __init__(self, disclosed_keys: "list[str]",
                 inbound_keys: "list[str] | None" = None) -> None:
        self.disclosed_keys = list(disclosed_keys)
        self.inbound_keys = list(inbound_keys) if inbound_keys is not None else None

    def outbound(self, inner_state: Any) -> "Optional[Any]":
        if not isinstance(inner_state, dict):
            return None
        return {key: inner_state[key] for key in self.disclosed_keys
                if key in inner_state}

    def inbound(self, outer_state: Any) -> "Optional[Any]":
        if self.inbound_keys is None:
            return outer_state
        if not isinstance(outer_state, dict):
            return None
        return {key: outer_state[key] for key in self.inbound_keys
                if key in outer_state}


class TrustedAgent:
    """Bridges a principal's inner object and the agents' outer object."""

    def __init__(self, node: OrganisationNode, inner_object: str,
                 outer_object: str,
                 policy: "DisclosurePolicy | None" = None) -> None:
        self.node = node
        self.inner_object = inner_object
        self.outer_object = outer_object
        self.policy = policy or DisclosurePolicy()
        self._out_relay = StateRelay(
            node, inner_object, outer_object, transform=self._outbound)
        self._in_relay = StateRelay(
            node, outer_object, inner_object, transform=self._inbound)

    def _outbound(self, inner_state: Any) -> "Optional[Any]":
        disclosed = self.policy.outbound(inner_state)
        if disclosed is None:
            return None
        # Merge into the current outer state so undisclosed parts of the
        # shared state contributed by other agents survive.
        outer = self.node.party.session(self.outer_object).state.agreed_state
        if isinstance(outer, dict) and isinstance(disclosed, dict):
            merged = dict(outer)
            merged.update(disclosed)
            return merged
        return disclosed

    def _inbound(self, outer_state: Any) -> "Optional[Any]":
        delivered = self.policy.inbound(outer_state)
        if delivered is None:
            return None
        inner = self.node.party.session(self.inner_object).state.agreed_state
        if isinstance(inner, dict) and isinstance(delivered, dict):
            merged = dict(inner)
            merged.update(delivered)
            return merged
        return delivered

    @property
    def relayed_out(self) -> int:
        return self._out_relay.relayed

    @property
    def relayed_in(self) -> int:
        return self._in_relay.relayed

    @property
    def withheld(self) -> int:
        return self._out_relay.withheld + self._in_relay.withheld
