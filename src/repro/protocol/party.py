"""Per-party protocol facade.

:class:`ProtocolParty` owns every protocol engine of one organisation —
a state-coordination engine and a membership engine per shared object,
plus join clients for objects the organisation is connecting to — and
routes inbound messages to the right engine.  It is still sans-IO; the
runtimes in :mod:`repro.core` pump its outputs onto a transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import MembershipError, NotConnectedError
from repro.protocol.context import PartyContext
from repro.protocol.coordination import StateCoordinationEngine
from repro.protocol.events import DisconnectionDecided, Output
from repro.protocol.group import ROTATING, GroupView
from repro.protocol.ids import GroupId, StateId
from repro.protocol.membership import (
    CertificateResolver,
    JoinClient,
    MembershipEngine,
)
from repro.protocol.messages import (
    CONNECT_REJECT,
    CONNECT_WELCOME,
    SPONSOR_INFO,
)
from repro.protocol.validation import StateMerger, Validator

# What each engine handles is the engine's to say.
_STATE_TYPES = set(StateCoordinationEngine._PHASES)
_MEMBER_TYPES = set(MembershipEngine._PHASES) | set(MembershipEngine._OTHER)
_JOIN_TYPES = {CONNECT_WELCOME, CONNECT_REJECT, SPONSOR_INFO}


def extract_object_name(message: dict) -> "Optional[str]":
    """Pull the target object name out of any protocol message."""
    if "object" in message:
        return str(message["object"])
    for key in ("proposal", "response", "part"):
        part = message.get(key)
        if isinstance(part, dict):
            payload = part.get("payload", {})
            if isinstance(payload, dict) and "object" in payload:
                return str(payload["object"])
    return None


@dataclass
class ObjectSession:
    """A party's engines for one shared object."""

    state: StateCoordinationEngine
    membership: MembershipEngine
    detached: bool = False

    @property
    def object_name(self) -> str:
        return self.state.object_name

    @property
    def group(self) -> GroupView:
        return self.state.group


@dataclass
class _PendingJoin:
    client: JoinClient
    validator: "Validator | None"
    merger: "StateMerger | None"
    sponsor_mode: str


class ProtocolParty:
    """All protocol engines of one organisation, with message routing."""

    def __init__(self, ctx: PartyContext,
                 certificate_resolver: "CertificateResolver | None" = None) -> None:
        self.ctx = ctx
        self.certificate_resolver = certificate_resolver
        self.sessions: "dict[str, ObjectSession]" = {}
        self._pending_joins: "dict[str, _PendingJoin]" = {}

    @property
    def party_id(self) -> str:
        return self.ctx.party_id

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------

    def create_object(self, object_name: str, members: "list[str]",
                      initial_state: Any,
                      validator: "Validator | None" = None,
                      merger: "StateMerger | None" = None,
                      sponsor_mode: str = ROTATING,
                      reject_null_transitions: bool = True,
                      engine_cls: "type[StateCoordinationEngine]" = StateCoordinationEngine
                      ) -> ObjectSession:
        """Found (or locally instantiate) a shared object.

        Every founding member calls this with identical arguments, giving
        all replicas the same genesis state/group identifiers.
        *engine_cls* selects the coordination variant (the default is the
        paper's unanimity protocol; see :mod:`repro.extensions`).
        """
        if object_name in self.sessions:
            raise MembershipError(f"object {object_name!r} already exists here")
        if self.party_id not in members:
            raise MembershipError("the local party must be a member")
        group = GroupView(object_name, members, sponsor_mode=sponsor_mode)
        state = engine_cls(
            self.ctx, group, initial_state, validator=validator, merger=merger,
            reject_null_transitions=reject_null_transitions,
        )
        session = self._open_session(state, validator)
        self._checkpoint_group(object_name, group)
        return session

    def _open_session(self, state: StateCoordinationEngine,
                      validator: "Validator | None") -> ObjectSession:
        membership = MembershipEngine(
            self.ctx, state, validator=validator,
            certificate_resolver=self.certificate_resolver,
        )
        session = ObjectSession(state=state, membership=membership)
        self.sessions[state.object_name] = session
        return session

    def _checkpoint_group(self, object_name: str, group: GroupView) -> None:
        """Persist the group view so a restart can rebuild membership."""
        key = f"{object_name}::group"
        latest = self.ctx.checkpoints.latest(key)
        if latest is None or group.group_id.seq > latest.sequence:
            self.ctx.checkpoints.save(
                key, group.group_id.to_dict(),
                {"members": list(group.members),
                 "gid": group.group_id.to_dict(),
                 "sponsor_mode": group.sponsor_mode},
            )

    def restore_object(self, object_name: str,
                       validator: "Validator | None" = None,
                       merger: "StateMerger | None" = None,
                       reject_null_transitions: bool = True,
                       engine_cls: "type[StateCoordinationEngine]" = StateCoordinationEngine
                       ) -> "tuple[ObjectSession, Output]":
        """Rebuild a session from durable state after a process restart.

        Restores the agreed state and group view from the checkpoint
        store, then resumes any in-flight protocol runs from the journal.
        Returns the session plus the output (resent messages, events) the
        caller must process.
        """
        if object_name in self.sessions:
            raise MembershipError(f"object {object_name!r} already exists here")
        state_ckpt = self.ctx.checkpoints.require_latest(object_name)
        group_ckpt = self.ctx.checkpoints.require_latest(f"{object_name}::group")
        group = GroupView(
            object_name,
            [str(m) for m in group_ckpt.state["members"]],
            group_id=GroupId.from_dict(group_ckpt.state["gid"]),
            sponsor_mode=str(group_ckpt.state.get("sponsor_mode", ROTATING)),
        )
        state = engine_cls(
            self.ctx, group, state_ckpt.state,
            validator=validator, merger=merger,
            reject_null_transitions=reject_null_transitions,
            initial_sid=StateId.from_dict(state_ckpt.state_id),
        )
        session = self._open_session(state, validator)
        output = state.recover_runs()
        output.merge(session.membership.recover_runs())
        return session, output

    def join_object(self, object_name: str, sponsor: "str | None" = None,
                    certificate: "dict | None" = None,
                    validator: "Validator | None" = None,
                    merger: "StateMerger | None" = None,
                    sponsor_mode: str = ROTATING,
                    via: "str | None" = None) -> Output:
        """Request admission to an existing shared object (section 4.5.3).

        Either name the *sponsor* directly, or pass any known member as
        *via* — the member identifies the legitimate sponsor and the
        request follows automatically.
        """
        if object_name in self.sessions:
            raise MembershipError(f"already connected to {object_name!r}")
        if object_name in self._pending_joins:
            raise MembershipError(f"join already pending for {object_name!r}")
        if (sponsor is None) == (via is None):
            raise MembershipError("name exactly one of sponsor or via")
        client = JoinClient(self.ctx, object_name, certificate=certificate)
        self._pending_joins[object_name] = _PendingJoin(
            client=client, validator=validator, merger=merger,
            sponsor_mode=sponsor_mode,
        )
        if via is not None:
            return client.request_connect_via(via)
        return client.request_connect(sponsor)

    def session(self, object_name: str) -> ObjectSession:
        session = self.sessions.get(object_name)
        if session is None or session.detached:
            raise NotConnectedError(
                f"{self.party_id} is not connected to object {object_name!r}"
            )
        return session

    def is_connected(self, object_name: str) -> bool:
        session = self.sessions.get(object_name)
        return session is not None and not session.detached

    # ------------------------------------------------------------------
    # message routing
    # ------------------------------------------------------------------

    def handle(self, sender: str, message: dict) -> Output:
        msg_type = message.get("msg_type")
        object_name = extract_object_name(message)
        if object_name is None:
            return Output()
        session = self.sessions.get(object_name)
        if msg_type in _STATE_TYPES:
            if session is None or session.detached:
                return Output()
            return session.state.handle(sender, message)
        if msg_type in _JOIN_TYPES and object_name in self._pending_joins:
            return self._handle_join_message(object_name, sender, message)
        # Of the join types only the reject doubles as a member's message
        # (a sponsor refusing an eviction request); a welcome or sponsor
        # info with no join pending is a late duplicate.
        if msg_type in _MEMBER_TYPES:
            if session is None or session.detached:
                return Output()
            output = session.membership.handle(sender, message)
            self._absorb_departure(session, output)
            return output
        return Output()

    def _handle_join_message(self, object_name: str, sender: str,
                             message: dict) -> Output:
        pending = self._pending_joins[object_name]
        output = pending.client.handle(sender, message)
        outcome = pending.client.outcome
        if outcome is None:
            return output
        del self._pending_joins[object_name]
        if outcome.accepted:
            self._install_joined_session(object_name, pending)
        return output

    def _install_joined_session(self, object_name: str,
                                pending: _PendingJoin) -> None:
        client = pending.client
        assert client.welcome_members is not None
        assert client.welcome_gid is not None and client.welcome_sid is not None
        group = GroupView(
            object_name, client.welcome_members,
            group_id=client.welcome_gid, sponsor_mode=pending.sponsor_mode,
        )
        state = StateCoordinationEngine(
            self.ctx, group, client.welcome_state,
            validator=pending.validator, merger=pending.merger,
            initial_sid=client.welcome_sid,
        )
        self._open_session(state, pending.validator)
        self._checkpoint_group(object_name, group)

    def _absorb_departure(self, session: ObjectSession, output: Output) -> None:
        """Detach the session once our voluntary disconnection concludes."""
        for event in output.events:
            if isinstance(event, DisconnectionDecided):
                session.detached = True

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def check_progress(self, timeout: float) -> Output:
        output = Output()
        for session in self.sessions.values():
            if session.detached:
                continue
            output.merge(session.state.check_progress(timeout))
            output.merge(session.membership.check_progress(timeout))
        return output

    def resend_outstanding(self) -> Output:
        """Re-emit in-flight messages after a crash or long partition."""
        output = Output()
        for session in self.sessions.values():
            if session.detached:
                continue
            output.merge(session.state.resend_outstanding())
            output.merge(session.membership.resend_outstanding())
        for pending in self._pending_joins.values():
            output.merge(pending.client.resend_request())
        return output

    def pending_join(self, object_name: str) -> "Optional[JoinClient]":
        pending = self._pending_joins.get(object_name)
        return pending.client if pending else None
