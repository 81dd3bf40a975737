"""Composite objects and composite transactions.

Section 4 notes the protocol "applies just as well to the use of a
composite object to coordinate the states of multiple objects".  A
:class:`CompositeB2BObject` aggregates named child B2BObjects behind one
coordinated state, so one protocol run atomically validates and installs
changes across all of them.

The children of a logical transaction may instead be *independent*
shared objects.  :func:`submit_transaction` keeps such a transaction
all-or-nothing at admission: under the node's engine lock every child
update is validated against its agreed state (one rejection aborts the
whole transaction before anything is queued), and only then is each
accepted child queued in its object's pipeline — still under the lock,
so no concurrent submission can slip between the checks and the
queueing; the node then turns them into runs by its one rule
(:meth:`~repro.core.node.OrganisationNode._start_runs`).  Benign busy
vetoes from concurrent per-child traffic are retried by the pipelines;
a genuine remote policy veto after admission surfaces through
:attr:`CompositeTicket.partial` rather than being silently absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class CompositeTicket:
    """Handle on one composite transaction.

    ``done`` once every child ticket settled (or the transaction was
    aborted at admission); ``valid`` only when *all* children settled
    valid.  ``partial`` flags the pathological post-admission case —
    some children applied while another was vetoed remotely — which the
    evidence logs then attribute.
    """

    object_names: "list[str]"
    children: "dict[str, Any]" = field(default_factory=dict)
    aborted: bool = False
    diagnostics: "list[str]" = field(default_factory=list)

    @property
    def done(self) -> bool:
        if self.aborted:
            return True
        return all(ticket.done for ticket in self.children.values())

    @property
    def valid(self) -> "bool | None":
        if self.aborted:
            return False
        if not self.done:
            return None
        return all(ticket.valid for ticket in self.children.values())

    @property
    def partial(self) -> bool:
        """Some children applied and at least one was vetoed."""
        if self.aborted or not self.done:
            return False
        outcomes = {bool(ticket.valid) for ticket in self.children.values()}
        return outcomes == {True, False}

    def child_diagnostics(self) -> "list[str]":
        diags = list(self.diagnostics)
        for name, ticket in self.children.items():
            for diag in ticket.diagnostics:
                diags.append(f"{name}: {diag}")
        return diags


def submit_transaction(node: Any, updates: "dict[str, Any]",
                       pre_validate: bool = True) -> CompositeTicket:
    """Propose *updates* (object name → update) as one transaction.

    Children are admitted all-or-nothing, in name order, under the
    node's engine lock: each update is validated against its agreed
    state, and any rejection aborts the whole transaction with nothing
    queued.  Accepted children enter their objects' pipelines while the
    lock is still held, then settle as ordinary (busy-retried) runs.
    """
    if not updates:
        raise ConfigurationError("a transaction requires at least one update")
    names = sorted(updates)
    ticket = CompositeTicket(object_names=names)
    try:
        with node.engine_lock:
            if pre_validate:
                diagnostics: "list[str]" = []
                for name in names:
                    diagnostics.extend(
                        _validate_child(node, name, updates[name]))
                if diagnostics:
                    ticket.aborted = True
                    ticket.diagnostics = diagnostics
                    return ticket
            for name in names:
                ticket.children[name] = node.pipeline(name).enqueue(
                    updates[name])
    finally:
        # Propose only after the engine lock is released — the node's
        # lock-order contract for _process_output.
        node._wake_pipelines(*ticket.children)
    return ticket


def _validate_child(node: Any, name: str, update: Any) -> "list[str]":
    """Validate one child update against its agreed state (the caller
    holds the engine lock)."""
    try:
        session = node.party.session(name)
    except Exception:
        return [f"{name}: not connected"]
    controller = node.controllers.get(name)
    if controller is None:
        return [f"{name}: no controller"]
    b2b_object = controller.b2b_object
    agreed = session.state.agreed_state
    try:
        resulting = b2b_object.merge_update(agreed, update)
    except Exception as exc:  # merge failure == rejection, not a crash
        return [f"{name}: merge failed: {exc}"]
    decision = b2b_object.validate_update(
        update, resulting, agreed, node.party_id)
    if decision.accepted:
        return []
    return [f"{name}: {diag}"
            for diag in (decision.diagnostics or ["rejected"])]
