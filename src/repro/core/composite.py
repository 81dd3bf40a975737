"""Composite objects.

Section 4 notes the protocol "applies just as well to the use of a
composite object to coordinate the states of multiple objects".  A
:class:`CompositeB2BObject` aggregates named child B2BObjects behind one
coordinated state, so one protocol run atomically validates and installs
changes across all of them: any party's veto on any child refuses the
whole change.
"""

from __future__ import annotations

from typing import Any

from repro.core.object import B2BObject
from repro.errors import ConfigurationError
from repro.protocol.validation import Decision


class CompositeB2BObject(B2BObject):
    """Coordinates several child objects as a single unit of agreement."""

    def __init__(self, children: "dict[str, B2BObject]") -> None:
        super().__init__()
        if not children:
            raise ConfigurationError("a composite requires at least one child")
        self.children = dict(children)

    def child(self, name: str) -> B2BObject:
        return self.children[name]

    def get_state(self) -> dict:
        return {name: child.get_state() for name, child in self.children.items()}

    def apply_state(self, state: Any) -> None:
        if not isinstance(state, dict) or set(state) != set(self.children):
            raise ConfigurationError("composite state must cover exactly the children")
        for name, child in self.children.items():
            child.apply_state(state[name])

    def get_update(self) -> dict:
        """Collect child updates; children with no pending update are omitted."""
        update: dict = {}
        for name, child in self.children.items():
            try:
                child_update = child.get_update()
            except NotImplementedError:
                continue
            if child_update:
                update[name] = child_update
        return update

    def merge_update(self, state: Any, update: Any) -> Any:
        if not isinstance(state, dict) or not isinstance(update, dict):
            raise TypeError("composite merge requires dict state and update")
        merged = dict(state)
        for name, child_update in update.items():
            if name not in self.children:
                raise ConfigurationError(f"update names unknown child {name!r}")
            merged[name] = self.children[name].merge_update(
                merged[name], child_update
            )
        return merged

    def validate_state(self, proposed: Any, current: Any, proposer: str) -> Decision:
        """A composite change is valid iff every child accepts its slice."""
        if not isinstance(proposed, dict) or set(proposed) != set(self.children):
            return Decision.reject("composite state must cover exactly the children")
        diagnostics: "list[str]" = []
        for name, child in self.children.items():
            decision = child.validate_state(
                proposed[name], (current or {}).get(name), proposer
            )
            if not decision.accepted:
                for diag in decision.diagnostics or ("rejected",):
                    diagnostics.append(f"{name}: {diag}")
        if diagnostics:
            return Decision.reject(*diagnostics)
        return Decision.accept()

    def validate_update(self, update: Any, resulting: Any, current: Any,
                        proposer: str) -> Decision:
        if not isinstance(update, dict):
            return Decision.reject("composite update must be a dict")
        diagnostics: "list[str]" = []
        for name, child_update in update.items():
            child = self.children.get(name)
            if child is None:
                diagnostics.append(f"unknown child {name!r}")
                continue
            decision = child.validate_update(
                child_update,
                (resulting or {}).get(name),
                (current or {}).get(name),
                proposer,
            )
            if not decision.accepted:
                for diag in decision.diagnostics or ("rejected",):
                    diagnostics.append(f"{name}: {diag}")
        if diagnostics:
            return Decision.reject(*diagnostics)
        return Decision.accept()

    def coord_callback(self, event: Any) -> None:
        for child in self.children.values():
            child.coord_callback(event)
