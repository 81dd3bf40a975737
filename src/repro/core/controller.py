"""The B2BObjectController (Figure 4, section 5).

The controller is the application's local interface to configuration,
initiation and control of information sharing:

* ``enter`` / ``leave`` demarcate the scope of access to object state
  (calls may be nested; a series of changes rolls up into one
  coordination event at the final ``leave``);
* ``examine`` / ``overwrite`` / ``update`` indicate the access type for
  the current scope;
* the final ``leave`` of a writing scope implicitly invokes the state
  coordination protocol via the local coordinator;
* ``connect`` / ``disconnect`` initiate the membership protocols;
* ``coord_commit`` waits for a deferred-synchronous coordination to
  finish, and ``coordCallback`` on the B2BObject signals asynchronous
  completion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.core.modes import ASYNCHRONOUS, SYNCHRONOUS, validate_mode
from repro.core.object import B2BObject
from repro.core.readcache import (
    SETTLED,
    ReadMode,
    ReadResult,
    Snapshot,
    parse_read_mode,
)
from repro.errors import ProtocolBlocked, ProtocolError, ValidationFailed
from repro.protocol.events import (
    ConnectionDecided,
    DisconnectionDecided,
    Event,
    MembershipChanged,
    MisbehaviourEvent,
    RunCompleted,
    StateInstalled,
    StateRolledBack,
)
from repro.protocol.pipeline import CoordinationTicket
from repro.protocol.validation import Decision, StateMerger, Validator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import OrganisationNode

EXAMINE = "examine"
OVERWRITE = "overwrite"
UPDATE = "update"


class ObjectValidatorAdapter(Validator):
    """Routes engine validation upcalls to the application B2BObject.

    The decision flows back through the controller's
    :meth:`B2BObjectController.validation_response`, which applications
    may override or observe (e.g. to audit every local decision).
    """

    def __init__(self, b2b_object: B2BObject) -> None:
        self._object = b2b_object

    def _report(self, kind: str, decision: Decision) -> Decision:
        controller = self._object._controller
        if controller is not None:
            return controller.validation_response(kind, decision)
        return decision

    def validate_state(self, proposed: Any, current: Any, proposer: str) -> Decision:
        return self._report(
            "state", self._object.validate_state(proposed, current, proposer)
        )

    def validate_update(self, update: Any, resulting: Any, current: Any,
                        proposer: str) -> Decision:
        return self._report(
            "update",
            self._object.validate_update(update, resulting, current, proposer),
        )

    def validate_connect(self, subject: str, members: "list[str]") -> Decision:
        return self._report(
            "connect", self._object.validate_connect(subject, members)
        )

    def validate_disconnect(self, subject: str, voluntary: bool,
                            proposer: str) -> Decision:
        return self._report(
            "disconnect",
            self._object.validate_disconnect(subject, voluntary, proposer),
        )


class ObjectMergerAdapter(StateMerger):
    """Routes engine update application to the B2BObject's pure merge."""

    def __init__(self, b2b_object: B2BObject) -> None:
        self._object = b2b_object

    def apply(self, state: Any, update: Any) -> Any:
        return self._object.merge_update(state, update)


class B2BObjectController:
    """Local interface to coordination of one shared object."""

    def __init__(self, node: "OrganisationNode", object_name: str,
                 b2b_object: B2BObject, mode: str = SYNCHRONOUS,
                 timeout: "float | None" = None) -> None:
        self.node = node
        self.object_name = object_name
        self.b2b_object = b2b_object
        self.mode = validate_mode(mode)
        self.timeout = timeout
        self._depth = 0
        self._access: "Optional[str]" = None
        self._scope_mode: "Optional[ReadMode]" = None
        self._scope_read: "Optional[ReadResult]" = None
        self.last_validation: "Optional[tuple[str, Decision]]" = None
        b2b_object.set_controller(self)

    # ------------------------------------------------------------------
    # state access scoping (section 5)
    # ------------------------------------------------------------------

    def enter(self, read_mode: "ReadMode | str | None" = None) -> None:
        """Begin (or nest into) a state access scope.

        On the outermost entry the controller first lets any in-flight
        coordination at this replica settle, so the application reads and
        modifies the current agreed state rather than a stale snapshot.

        Passing *read_mode* (``cached`` or ``bounded(max_staleness)``)
        opens a **read-only** scope that skips the quiescence wait and
        pins a validated snapshot from the read cache instead
        (:mod:`repro.core.readcache`): reads see the pinned snapshot's
        consistency, writes raise :class:`ProtocolError`.  ``settled``
        (or None) keeps the classic semantics.  A mode can only be set
        on the outermost entry.
        """
        if self._depth == 0:
            mode = parse_read_mode(read_mode)
            if mode.kind == SETTLED:
                self.node._await_quiescent(self.object_name)
                self._scope_mode = None
                self._scope_read = None
            else:
                self._scope_read = self.node.readcache.read(
                    self.object_name, mode)
                self._scope_mode = mode
                self._access = EXAMINE
        elif read_mode is not None:
            raise ProtocolError(
                "read mode must be set on the outermost enter")
        self._depth += 1

    def examine(self, read_mode: "ReadMode | str | None" = None) -> None:
        """Declare that the current scope only reads object state.

        With *read_mode*, additionally pin (or re-pin) a validated
        snapshot mid-scope — only legal while the scope is read-only.
        """
        self._require_scope()
        if self._access is None:
            self._access = EXAMINE
        if read_mode is not None:
            if self._access != EXAMINE:
                raise ProtocolError(
                    "cannot pin a read snapshot in a writing scope")
            mode = parse_read_mode(read_mode)
            self._scope_read = self.node.readcache.read(
                self.object_name, mode)
            self._scope_mode = mode

    @property
    def snapshot(self) -> "Optional[Snapshot]":
        """The validated snapshot pinned for the current scope, if any."""
        read = self._scope_read
        return read.snapshot if read is not None else None

    def examine_state(self,
                      read_mode: "ReadMode | str | None" = None) -> Any:
        """One-shot read of the agreed state in an explicit mode.

        Convenience for ``node.examine(name, read_mode).state`` — no
        enter/leave scope needed, and for ``cached``/``bounded`` modes
        no locks taken and no quiescence wait.
        """
        return self.node.examine(self.object_name, read_mode).state

    def overwrite(self) -> None:
        """Declare that the current scope overwrites object state."""
        self._require_scope()
        self._require_writable()
        if self._access == UPDATE:
            raise ProtocolError("cannot mix update and overwrite in one scope")
        self._access = OVERWRITE

    def update(self) -> None:
        """Declare that the current scope incrementally updates state."""
        self._require_scope()
        self._require_writable()
        if self._access == OVERWRITE:
            raise ProtocolError("cannot mix update and overwrite in one scope")
        self._access = UPDATE

    def leave(self) -> "Optional[CoordinationTicket]":
        """End the current scope; the outermost writing leave coordinates.

        The change queues in the object's write pipeline
        (:meth:`~repro.core.node.OrganisationNode.submit_update`), which
        retries benign ``busy:`` vetoes itself.  Returns a ticket for
        deferred/asynchronous modes (without blocking), None for pure
        reads.  In synchronous mode the call blocks and raises
        :class:`ValidationFailed` if the change is vetoed.
        """
        self._require_scope()
        self._depth -= 1
        if self._depth > 0:
            return None
        access, self._access = self._access, None
        self._scope_mode = None
        self._scope_read = None
        if access == OVERWRITE:
            return self.sync_coord()
        if access == UPDATE:
            return self._complete(self.node.propagate_update(
                self.object_name, self.b2b_object.get_update()))
        return None

    def sync_coord(self) -> "Optional[CoordinationTicket]":
        """Explicitly coordinate the object's current state (syncCoord)."""
        return self._complete(self.node.propagate_new_state(
            self.object_name, self.b2b_object.get_state()))

    def _require_scope(self) -> None:
        if self._depth <= 0:
            raise ProtocolError("state access outside an enter/leave scope")

    def _require_writable(self) -> None:
        if self._scope_mode is not None:
            raise ProtocolError(
                f"scope opened with read mode "
                f"{self._scope_mode.describe()} is read-only"
            )

    # ------------------------------------------------------------------
    # coordination initiation
    # ------------------------------------------------------------------

    def _complete(self, ticket: CoordinationTicket) -> "Optional[CoordinationTicket]":
        if self.mode == SYNCHRONOUS:
            self.coord_commit(ticket)
        return ticket

    def coord_commit(self, ticket: CoordinationTicket,
                     timeout: "float | None" = None) -> CoordinationTicket:
        """Block until *ticket* completes (deferred-synchronous mode).

        Raises :class:`ValidationFailed` if the coordination outcome is
        invalid and :class:`ProtocolBlocked` if no outcome is reached
        within the timeout.
        """
        timeout = timeout if timeout is not None else self.timeout
        self.node.wait_for_ticket(ticket, timeout)
        if not ticket.done:
            where = (f"run {ticket.run_id[:12]}" if ticket.run_id
                     else ticket.key or "still queued")
            raise ProtocolBlocked(
                f"coordination of {self.object_name!r} did not complete "
                f"within {timeout}s ({where})"
            )
        if not ticket.valid:
            raise ValidationFailed(
                f"{ticket.kind} coordination of {self.object_name!r} was invalidated",
                diagnostics=ticket.diagnostics,
            )
        return ticket

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def disconnect(self) -> "Optional[CoordinationTicket]":
        """Voluntarily leave the sharing group (section 4.5.4)."""
        ticket = self.node.propagate_disconnect(self.object_name)
        return self._complete(ticket)

    def evict(self, subjects: "list[str]") -> "Optional[CoordinationTicket]":
        """Request eviction of one or more members (section 4.5.4)."""
        ticket = self.node.propagate_eviction(self.object_name, subjects)
        return self._complete(ticket)

    # ------------------------------------------------------------------
    # validation response hook
    # ------------------------------------------------------------------

    def validation_response(self, kind: str, decision: Decision) -> Decision:
        """Reports the result of application-specific validation.

        The default implementation records the decision and passes it
        through; applications can override the controller (or observe
        ``last_validation``) to audit or transform local decisions.
        """
        self.last_validation = (kind, decision)
        return decision

    # ------------------------------------------------------------------
    # event sink (called by the node)
    # ------------------------------------------------------------------

    def on_event(self, event: Event) -> None:
        if isinstance(event, (StateInstalled, StateRolledBack)):
            self.b2b_object.apply_state(event.state)
        if isinstance(event, (RunCompleted, MembershipChanged,
                              MisbehaviourEvent, ConnectionDecided,
                              DisconnectionDecided)):
            if self.mode == ASYNCHRONOUS or not isinstance(event, RunCompleted):
                self.b2b_object.coord_callback(event)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

    def members(self) -> "list[str]":
        return list(self.node.party.session(self.object_name).group.members)

    def agreed_state(self) -> Any:
        return self.node.party.session(self.object_name).state.agreed_state

    def is_connected(self) -> bool:
        return self.node.party.is_connected(self.object_name)
