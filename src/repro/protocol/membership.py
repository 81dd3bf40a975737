"""Connection and disconnection protocols (section 4.5).

Membership of the participant set ``P`` is managed by three protocols —
connection, voluntary disconnection and eviction — all coordinated by a
*sponsor*:

* the sponsor of a connection request is the most recently joined member;
* the sponsor of a disconnection is the same, unless it is itself the
  subject, in which case the next most recently connected member sponsors;
* the sponsor relays the request to the remaining members, collects their
  signed decisions, distributes the evidence aggregation (``m3``) and —
  for connection — transfers the agreed object state to the admitted
  member in a *welcome* message.

Voluntary disconnection cannot be vetoed (a member wishing to leave could
simply stop cooperating); eviction can.  A rejected connection looks
identical to the subject whether the sponsor rejected it immediately or a
member vetoed it (section 4.5.3).

Member-side handling lives in :class:`MembershipEngine`; the
not-yet-member side of a connection lives in :class:`JoinClient`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.crypto.hashing import hash_value
from repro.crypto.signature import Verifier
from repro.errors import ConcurrencyError, MembershipError
from repro.protocol.context import PartyContext
from repro.protocol.coordination import StateCoordinationEngine
from repro.protocol.engine_base import EngineBase
from repro.protocol.events import (
    ConnectionDecided,
    DisconnectionDecided,
    MembershipChanged,
    Output,
    RunBlocked,
    RunCompleted,
)
from repro.protocol.ids import GroupId, StateId, new_group_id
from repro.protocol.messages import (
    CONNECT_COMMIT,
    CONNECT_PROPOSE,
    CONNECT_REJECT,
    CONNECT_REQUEST,
    CONNECT_RESPOND,
    CONNECT_WELCOME,
    DISCONNECT_COMMIT,
    DISCONNECT_NOTICE,
    DISCONNECT_PROPOSE,
    DISCONNECT_REQUEST,
    DISCONNECT_RESPOND,
    EVICT_REQUEST,
    SPONSOR_INFO,
    SPONSOR_QUERY,
    SignedPart,
    build_connect_reject,
    build_connect_request,
    build_membership_proposal,
    build_membership_response,
    membership_commit_message,
    membership_message,
    responses_unanimous,
    spliced,
    verify_auth_preimage,
    welcome_message,
)
from repro.protocol.validation import Decision, Validator
from repro.util.encoding import freeze

KIND_CONNECT = "connect"
KIND_DISCONNECT = "disconnect"
KIND_EVICT = "evict"

ROLE_SPONSOR = "sponsor"
ROLE_MEMBER = "member"

CertificateResolver = Callable[[str, "dict | None"], Verifier]


@dataclass
class MembershipRun:
    """Book-keeping for one membership protocol run at one party."""

    run_id: str
    kind: str
    role: str
    proposal: SignedPart
    new_gid: GroupId
    new_members: "list[str]"
    subjects: "list[str]"
    recipients: "list[str]"
    request: "Optional[SignedPart]" = None
    auth: "Optional[bytes]" = None  # sponsor only
    responses: "dict[str, SignedPart]" = field(default_factory=dict)
    own_response: "Optional[SignedPart]" = None
    commit: "Optional[dict]" = None
    outcome: "Optional[str]" = None
    final_message: "Optional[tuple[str, dict]]" = None  # welcome/reject/notice
    diagnostics: "list[str]" = field(default_factory=list)
    started_at: float = 0.0
    last_activity: float = 0.0

    @property
    def sponsor(self) -> str:
        return str(self.proposal.payload["sponsor"])

    def waiting_on(self) -> "list[str]":
        if self.outcome is not None:
            return []
        if self.role == ROLE_SPONSOR:
            return [p for p in self.recipients if p not in self.responses]
        return [self.sponsor]


class MembershipEngine(EngineBase):
    """Member-side connection/disconnection/eviction coordination."""

    def __init__(self, ctx: PartyContext,
                 state_engine: StateCoordinationEngine,
                 validator: "Validator | None" = None,
                 certificate_resolver: "CertificateResolver | None" = None) -> None:
        super().__init__(ctx, state_engine.object_name)
        self.state_engine = state_engine
        self.group = state_engine.group
        self.validator = validator or state_engine.validator
        self._certificate_resolver = certificate_resolver
        self._runs: "dict[str, MembershipRun]" = {}
        self._active_run_id: "Optional[str]" = None
        self._request_to_run: "dict[bytes, str]" = {}
        self._seen_group_keys: "set[bytes]" = {
            hash_value(["gid-key", self.group.group_id.seq,
                        self.group.group_id.rand_hash])
        }
        # Set while this party awaits the outcome of its own voluntary
        # disconnection request.
        self._pending_departure: "Optional[bytes]" = None
        self._departure_request: "Optional[tuple[str, dict]]" = None

    # ------------------------------------------------------------------
    # public queries
    # ------------------------------------------------------------------

    @property
    def party_id(self) -> str:
        return self.ctx.party_id

    @property
    def busy(self) -> bool:
        return self._active_run_id is not None

    def runs(self) -> "list[MembershipRun]":
        return list(self._runs.values())

    # ------------------------------------------------------------------
    # initiating requests
    # ------------------------------------------------------------------

    def request_disconnect(self) -> "tuple[bytes, Output]":
        """Voluntarily leave the group (section 4.5.4).

        Returns the request digest (for correlating the final notice) and
        the outbound request to the legitimate sponsor.
        """
        if len(self.group) < 2:
            raise MembershipError("cannot disconnect from a singleton group")
        output = Output()
        sponsor = self.group.disconnect_sponsor(self.party_id)
        request_payload = {
            "type": "disconnect-request",
            "subject": self.party_id,
            "object": self.object_name,
            "nonce": self.ctx.rng.random_bytes(32),
            "voluntary": True,
        }
        request = self._signed(request_payload)
        digest = request.digest()
        self._pending_departure = digest
        message = membership_message(DISCONNECT_REQUEST, request)
        self._departure_request = (sponsor, message)
        self._journal_sent("disconnect-request:" + digest.hex(), sponsor,
                           spliced(message, part=request))
        self._log_evidence("disconnect-request-sent", {"request": request.encoded})
        output.send(sponsor, message)
        return digest, output

    def request_eviction(self, subjects: "list[str]") -> "tuple[bytes, Output]":
        """Propose eviction of one or more members (section 4.5.4).

        If this party is itself the legitimate sponsor, the request step
        is omitted and the eviction proposal is issued directly.
        """
        subjects = list(subjects)
        if not subjects:
            raise MembershipError("eviction requires at least one subject")
        if self.party_id in subjects:
            raise MembershipError("cannot request one's own eviction; disconnect instead")
        for subject in subjects:
            if subject not in self.group:
                raise MembershipError(f"{subject!r} is not a member")
        sponsor = self.group.eviction_sponsor(subjects)
        request_payload = {
            "type": "evict-request",
            "proposer": self.party_id,
            "subjects": list(subjects),
            "object": self.object_name,
            "nonce": self.ctx.rng.random_bytes(32),
        }
        request = self._signed(request_payload)
        digest = request.digest()
        if sponsor == self.party_id:
            output = self._sponsor_removal(
                KIND_EVICT, subjects, request=request, voluntary=False,
                proposer=self.party_id,
            )
            return digest, output
        output = Output()
        message = membership_message(EVICT_REQUEST, request)
        self._journal_sent("evict-request:" + digest.hex(), sponsor,
                           spliced(message, part=request))
        self._log_evidence("evict-request-sent", {"request": request.encoded})
        output.send(sponsor, message)
        return digest, output

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------

    def handle(self, sender: str, message: dict) -> Output:
        msg_type = message.get("msg_type")
        if msg_type == CONNECT_REQUEST:
            return self._on_connect_request(sender, message)
        if msg_type == CONNECT_PROPOSE:
            return self._on_propose(sender, message, KIND_CONNECT)
        if msg_type == CONNECT_RESPOND:
            return self._on_respond(sender, message)
        if msg_type == CONNECT_COMMIT:
            return self._on_commit(sender, message)
        if msg_type == DISCONNECT_REQUEST:
            return self._on_disconnect_request(sender, message)
        if msg_type == EVICT_REQUEST:
            return self._on_evict_request(sender, message)
        if msg_type == DISCONNECT_PROPOSE:
            return self._on_propose(sender, message, None)
        if msg_type == DISCONNECT_RESPOND:
            return self._on_respond(sender, message)
        if msg_type == DISCONNECT_COMMIT:
            return self._on_commit(sender, message)
        if msg_type == DISCONNECT_NOTICE:
            return self._on_disconnect_notice(sender, message)
        if msg_type == CONNECT_REJECT:
            return self._on_reject_notice(sender, message)
        if msg_type == SPONSOR_QUERY:
            return self._on_sponsor_query(sender, message)
        output = Output()
        self._misbehaviour(output, sender, "unknown-message",
                           f"unrecognised membership msg_type {msg_type!r}")
        return output

    def _on_sponsor_query(self, sender: str, message: dict) -> Output:
        """Tell a prospective member who the legitimate sponsor is.

        Advisory and unsigned: the subject's admission evidence is checked
        against the real group later, so a lying informant can at worst
        direct the request to a party that will refuse to sponsor it.
        """
        output = Output()
        output.send(sender, {
            "msg_type": SPONSOR_INFO,
            "object": self.object_name,
            "sponsor": self.group.connect_sponsor(),
            "members": list(self.group.members),
        })
        return output

    # ------------------------------------------------------------------
    # sponsor side: requests
    # ------------------------------------------------------------------

    def _on_connect_request(self, sender: str, message: dict) -> Output:
        output = Output()
        request = self._parse_part(message, "part")
        if request is None:
            self._misbehaviour(output, sender, "malformed-message",
                               "unparseable connect request")
            return output
        payload = request.payload
        subject = str(payload.get("subject", ""))
        digest = request.digest()

        known_run_id = self._request_to_run.get(digest)
        if known_run_id is not None:
            run = self._runs.get(known_run_id)
            if run is not None and run.final_message is not None:
                output.send(*run.final_message)
            return output

        # Verify the subject's signature using the certificate carried in
        # the request (the subject is not yet in anyone's resolver).
        try:
            verifier = self._resolve_verifier(subject, payload.get("certificate"))
            verifier.require(payload, request.signature, "connect request")
        except Exception as exc:  # noqa: BLE001 - any failure means reject
            self._log_evidence(
                "connect-request-rejected",
                {"subject": subject, "reason": f"unverifiable request: {exc}"},
            )
            output.send(sender, self._reject_message(digest))
            return output

        self._log_evidence("connect-request-received", {"request": request.encoded})

        if self.group.connect_sponsor() != self.party_id:
            # Not the legitimate sponsor: refuse (the subject can learn the
            # correct sponsor from any member).
            output.send(subject, self._reject_message(digest))
            return output
        if subject in self.group:
            output.send(subject, self._reject_message(digest))
            return output
        if self.busy or self.state_engine.busy:
            # Sponsor blocks new coordination requests pending decision on
            # any active request (section 4.5.1).
            output.send(subject, self._reject_message(digest))
            return output

        # Sponsor's own local validation may reject immediately.
        decision = self.validator.validate_connect(subject, list(self.group.members))
        if not decision.accepted:
            self._log_evidence(
                "connect-request-rejected",
                {"subject": subject, "reason": list(decision.diagnostics)},
            )
            output.send(subject, self._reject_message(digest))
            return output

        output.merge(self._sponsor_connect(subject, request))
        return output

    def _on_disconnect_request(self, sender: str, message: dict) -> Output:
        output = Output()
        request = self._parse_part(message, "part")
        if request is None:
            self._misbehaviour(output, sender, "malformed-message",
                               "unparseable disconnect request")
            return output
        payload = request.payload
        subject = str(payload.get("subject", ""))
        digest = request.digest()
        known_run_id = self._request_to_run.get(digest)
        if known_run_id is not None:
            run = self._runs.get(known_run_id)
            if run is not None and run.final_message is not None:
                output.send(*run.final_message)
            return output
        if subject != sender:
            self._misbehaviour(output, sender, "impersonation",
                               f"disconnect request for {subject!r} sent by {sender!r}")
            return output
        if not self._verify_part(request, subject, "disconnect request", output):
            return output
        if subject not in self.group:
            return output
        if self.group.disconnect_sponsor(subject) != self.party_id:
            return output  # not our responsibility; subject should retry
        if self.busy or self.state_engine.busy:
            return output  # request will be retried; sponsor is blocking
        self._log_evidence("disconnect-request-received",
                           {"request": request.encoded})
        output.merge(self._sponsor_removal(
            KIND_DISCONNECT, [subject], request=request, voluntary=True,
            proposer=subject,
        ))
        return output

    def _on_evict_request(self, sender: str, message: dict) -> Output:
        output = Output()
        request = self._parse_part(message, "part")
        if request is None:
            self._misbehaviour(output, sender, "malformed-message",
                               "unparseable evict request")
            return output
        payload = request.payload
        proposer = str(payload.get("proposer", ""))
        subjects = [str(s) for s in payload.get("subjects", [])]
        digest = request.digest()
        known_run_id = self._request_to_run.get(digest)
        if known_run_id is not None:
            return output
        if proposer != sender:
            self._misbehaviour(output, sender, "impersonation",
                               f"evict request by {proposer!r} sent by {sender!r}")
            return output
        if not self._verify_part(request, proposer, "evict request", output):
            return output
        if proposer not in self.group or not subjects:
            return output
        if any(subject not in self.group for subject in subjects):
            return output
        if self.group.eviction_sponsor(subjects) != self.party_id:
            return output
        if self.busy or self.state_engine.busy:
            return output
        self._log_evidence("evict-request-received", {"request": request.encoded})
        decision = self._removal_decision(subjects, voluntary=False, proposer=proposer)
        if not decision.accepted:
            # Sponsor rejects the eviction outright; tell the proposer.
            self._log_evidence(
                "evict-request-rejected",
                {"proposer": proposer, "subjects": subjects,
                 "reason": list(decision.diagnostics)},
            )
            reject = self._signed({
                "type": "evict-reject",
                "sponsor": self.party_id,
                "object": self.object_name,
                "request_digest": digest,
                "result": "rej",
            })
            output.send(proposer, membership_message(CONNECT_REJECT, reject))
            return output
        output.merge(self._sponsor_removal(
            KIND_EVICT, subjects, request=request, voluntary=False,
            proposer=proposer,
        ))
        return output

    # ------------------------------------------------------------------
    # sponsor side: proposing
    # ------------------------------------------------------------------

    def _sponsor_connect(self, subject: str, request: SignedPart) -> Output:
        output = Output()
        new_members = self.group.membership_after_connect(subject)
        new_gid, _nonce = new_group_id(
            self.group.group_id.seq, new_members, self.ctx.rng
        )
        auth = self.ctx.rng.random_bytes(32)
        proposal_payload = build_membership_proposal(
            kind=KIND_CONNECT,
            sponsor=self.party_id,
            object_name=self.object_name,
            old_gid=self.group.group_id,
            new_gid=new_gid,
            new_members=new_members,
            subjects=[subject],
            agreed_sid=self.state_engine.agreed_sid,
            auth_commitment=hash_value(auth),
            request=request,
        )
        proposal = self._signed(proposal_payload)
        run = self._start_sponsor_run(
            KIND_CONNECT, proposal, new_gid, new_members, [subject],
            request=request, auth=auth,
        )
        message = membership_message(CONNECT_PROPOSE, proposal)
        stored = spliced(message, part=proposal)
        for recipient in run.recipients:
            self._journal_sent(run.run_id, recipient, stored)
            output.send(recipient, message)
        if not run.recipients:
            self._complete_as_sponsor(run, output)
        return output

    def _sponsor_removal(self, kind: str, subjects: "list[str]",
                         request: "SignedPart | None", voluntary: bool,
                         proposer: str) -> Output:
        output = Output()
        if self.busy:
            raise ConcurrencyError(
                f"{self.party_id}: a membership run is already active"
            )
        new_members = self.group.membership_after_removal(subjects)
        new_gid, _nonce = new_group_id(
            self.group.group_id.seq, new_members, self.ctx.rng
        )
        auth = self.ctx.rng.random_bytes(32)
        proposal_payload = build_membership_proposal(
            kind=kind,
            sponsor=self.party_id,
            object_name=self.object_name,
            old_gid=self.group.group_id,
            new_gid=new_gid,
            new_members=new_members,
            subjects=subjects,
            agreed_sid=self.state_engine.agreed_sid,
            auth_commitment=hash_value(auth),
            request=request,
            voluntary=voluntary,
            proposer=proposer,
        )
        proposal = self._signed(proposal_payload)
        run = self._start_sponsor_run(
            kind, proposal, new_gid, new_members, subjects,
            request=request, auth=auth,
        )
        message = membership_message(DISCONNECT_PROPOSE, proposal)
        stored = spliced(message, part=proposal)
        for recipient in run.recipients:
            self._journal_sent(run.run_id, recipient, stored)
            output.send(recipient, message)
        if not run.recipients:
            self._complete_as_sponsor(run, output)
        return output

    def _start_sponsor_run(self, kind: str, proposal: SignedPart,
                           new_gid: GroupId, new_members: "list[str]",
                           subjects: "list[str]",
                           request: "SignedPart | None",
                           auth: bytes) -> MembershipRun:
        run_id = self._membership_run_id(new_gid)
        if kind == KIND_CONNECT:
            recipients = self.group.recipients_excluding(self.party_id)
        else:
            recipients = self.group.recipients_excluding(self.party_id, *subjects)
        now = self.ctx.clock.now()
        run = MembershipRun(
            run_id=run_id,
            kind=kind,
            role=ROLE_SPONSOR,
            proposal=proposal,
            new_gid=new_gid,
            new_members=new_members,
            subjects=subjects,
            recipients=recipients,
            request=request,
            auth=auth,
            started_at=now,
            last_activity=now,
        )
        self._runs[run_id] = run
        self._active_run_id = run_id
        self.state_engine.membership_change_active = True
        if request is not None:
            self._request_to_run[request.digest()] = run_id
        self._note_group_seen(new_gid)
        self._log_evidence(
            f"{kind}-proposal-sent",
            {"run_id": run_id, "proposal": proposal.encoded},
        )
        return run

    # ------------------------------------------------------------------
    # member side: proposals
    # ------------------------------------------------------------------

    def _on_propose(self, sender: str, message: dict,
                    forced_kind: "str | None") -> Output:
        output = Output()
        proposal = self._parse_part(message, "part")
        if proposal is None:
            self._misbehaviour(output, sender, "malformed-message",
                               "unparseable membership proposal")
            return output
        payload = proposal.payload
        sponsor = str(payload.get("sponsor", ""))
        kind = forced_kind or str(payload.get("kind", ""))
        if sponsor != sender:
            self._misbehaviour(output, sender, "impersonation",
                               f"proposal sponsored by {sponsor!r} sent by {sender!r}")
            return output
        if not self._verify_part(proposal, sponsor, f"{kind} proposal", output):
            return output
        try:
            new_gid = GroupId.from_dict(payload["new_gid"])
            old_gid = GroupId.from_dict(payload["old_gid"])
            claimed_agreed = StateId.from_dict(payload["agreed_sid"])
            new_members = [str(m) for m in payload["new_members"]]
            subjects = [str(s) for s in payload["subjects"]]
        except (KeyError, TypeError, ValueError):
            self._misbehaviour(output, sponsor, "malformed-message",
                               "membership proposal missing fields")
            return output

        run_id = self._membership_run_id(new_gid)
        existing = self._runs.get(run_id)
        if existing is not None:
            if existing.own_response is not None and existing.outcome is None:
                reply_type = (CONNECT_RESPOND if existing.kind == KIND_CONNECT
                              else DISCONNECT_RESPOND)
                output.send(sponsor, membership_message(
                    reply_type, existing.own_response))
            return output

        self._journal_received(run_id, sender, spliced(message, part=proposal))
        self._log_evidence(
            f"{kind}-proposal-received",
            {"run_id": run_id, "proposal": proposal.encoded},
        )

        voluntary = bool(payload.get("voluntary", False))
        decision = self._evaluate_membership_proposal(
            kind, sponsor, payload, new_gid, old_gid, claimed_agreed,
            new_members, subjects, voluntary,
        )
        response_payload = build_membership_response(
            kind=kind,
            responder=self.party_id,
            object_name=self.object_name,
            proposal_digest=proposal.digest(),
            decision=decision,
            gid=self.group.group_id,
            agreed_sid=self.state_engine.agreed_sid,
            current_sid=self.state_engine.current_sid,
        )
        response = self._signed(response_payload)
        now = self.ctx.clock.now()
        run = MembershipRun(
            run_id=run_id,
            kind=kind,
            role=ROLE_MEMBER,
            proposal=proposal,
            new_gid=new_gid,
            new_members=new_members,
            subjects=subjects,
            recipients=[],
            own_response=response,
            started_at=now,
            last_activity=now,
        )
        self._runs[run_id] = run
        self._note_group_seen(new_gid)
        if decision.accepted or voluntary:
            self._active_run_id = run_id
            self.state_engine.membership_change_active = True

        self._log_evidence(
            f"{kind}-response-sent",
            {"run_id": run_id, "response": response.encoded},
        )
        reply_type = CONNECT_RESPOND if kind == KIND_CONNECT else DISCONNECT_RESPOND
        reply = membership_message(reply_type, response)
        self._journal_sent(run_id, sponsor, spliced(reply, part=response))
        output.send(sponsor, reply)
        return output

    def _evaluate_membership_proposal(self, kind: str, sponsor: str,
                                      payload: dict, new_gid: GroupId,
                                      old_gid: GroupId, claimed_agreed: StateId,
                                      new_members: "list[str]",
                                      subjects: "list[str]",
                                      voluntary: bool) -> Decision:
        diagnostics: "list[str]" = []
        if sponsor not in self.group:
            diagnostics.append(f"sponsor {sponsor!r} is not a member")
        else:
            legitimate = self._legitimate_sponsor(kind, subjects)
            if sponsor != legitimate:
                diagnostics.append(
                    f"illegitimate sponsor {sponsor!r} (expected {legitimate!r})"
                )
        if old_gid != self.group.group_id:
            diagnostics.append("inconsistent group identifier")
        if claimed_agreed != self.state_engine.agreed_sid:
            diagnostics.append("inconsistent agreed state identifier")
        if self.busy:
            diagnostics.append("busy: concurrent membership run active")
        if self.state_engine.busy:
            diagnostics.append("busy: state coordination in progress")
        if not new_gid.matches_members(new_members):
            diagnostics.append("new group identifier does not match proposed membership")
        if new_gid.seq != old_gid.seq + 1:
            diagnostics.append("group identifier sequence does not advance by one")

        if kind == KIND_CONNECT:
            if len(subjects) != 1:
                diagnostics.append("connection must have exactly one subject")
            else:
                expected = self.group.membership_after_connect(subjects[0]) \
                    if subjects[0] not in self.group else None
                if expected is None:
                    diagnostics.append(f"{subjects[0]!r} is already a member")
                elif new_members != expected:
                    diagnostics.append("proposed membership list is inconsistent")
            request = payload.get("request")
            if not request:
                diagnostics.append("connection proposal lacks the subject's request")
            else:
                try:
                    request_part = SignedPart.from_dict(request)
                    subject = str(request_part.payload.get("subject", ""))
                    verifier = self._resolve_verifier(
                        subject, request_part.payload.get("certificate")
                    )
                    verifier.require(request_part.payload, request_part.signature,
                                     "embedded connect request")
                    if subjects and subject != subjects[0]:
                        diagnostics.append("request subject differs from proposal subject")
                except Exception as exc:  # noqa: BLE001
                    diagnostics.append(f"embedded request unverifiable: {exc}")
        else:
            try:
                expected_members = self.group.membership_after_removal(subjects)
            except MembershipError as exc:
                expected_members = None
                diagnostics.append(str(exc))
            if expected_members is not None and new_members != expected_members:
                diagnostics.append("proposed membership list is inconsistent")
            if voluntary:
                request = payload.get("request")
                if not request:
                    diagnostics.append("voluntary disconnection lacks the subject's request")
                else:
                    try:
                        request_part = SignedPart.from_dict(request)
                        subject = str(request_part.payload.get("subject", ""))
                        self.ctx.resolver(subject).require(
                            request_part.payload, request_part.signature,
                            "embedded disconnect request",
                        )
                        if subjects != [subject]:
                            diagnostics.append(
                                "request subject differs from proposal subject"
                            )
                    except Exception as exc:  # noqa: BLE001
                        diagnostics.append(f"embedded request unverifiable: {exc}")

        if diagnostics:
            return Decision.reject(*diagnostics)

        if kind == KIND_CONNECT:
            return self.validator.validate_connect(subjects[0], list(self.group.members))
        decision = self._removal_decision(
            subjects, voluntary=voluntary,
            proposer=str(payload.get("proposer", sponsor)),
        )
        if voluntary and not decision.accepted:
            # Voluntary disconnection cannot be vetoed; record diagnostics
            # in evidence but acknowledge the departure.
            self._log_evidence(
                "disconnect-objection",
                {"subjects": subjects, "diagnostics": list(decision.diagnostics)},
            )
            return Decision.accept()
        return decision

    def _removal_decision(self, subjects: "list[str]", voluntary: bool,
                          proposer: str) -> Decision:
        diagnostics: "list[str]" = []
        for subject in subjects:
            decision = self.validator.validate_disconnect(subject, voluntary, proposer)
            if not decision.accepted:
                diagnostics.extend(
                    decision.diagnostics or (f"disconnect of {subject!r} rejected",)
                )
        if diagnostics:
            return Decision.reject(*diagnostics)
        return Decision.accept()

    def _legitimate_sponsor(self, kind: str, subjects: "list[str]") -> str:
        if kind == KIND_CONNECT:
            return self.group.connect_sponsor()
        if kind == KIND_DISCONNECT and len(subjects) == 1:
            return self.group.disconnect_sponsor(subjects[0])
        return self.group.eviction_sponsor(subjects)

    # ------------------------------------------------------------------
    # sponsor side: responses and commit
    # ------------------------------------------------------------------

    def _on_respond(self, sender: str, message: dict) -> Output:
        output = Output()
        response = self._parse_part(message, "part")
        if response is None:
            self._misbehaviour(output, sender, "malformed-message",
                               "unparseable membership response")
            return output
        payload = response.payload
        responder = str(payload.get("responder", ""))
        if responder != sender:
            self._misbehaviour(output, sender, "impersonation",
                               f"response by {responder!r} sent by {sender!r}")
            return output
        run = self._find_run_by_proposal_digest(
            bytes(payload.get("proposal_digest", b""))
        )
        if run is None or run.role != ROLE_SPONSOR:
            self._misbehaviour(output, responder, "unsolicited-response",
                               "no sponsor run matches this response")
            return output
        if run.outcome is not None:
            if run.commit is not None:
                output.send(responder, run.commit)
            return output
        if responder not in run.recipients:
            self._misbehaviour(output, responder, "unsolicited-response",
                               "responder not a recipient of this proposal",
                               run.run_id)
            return output
        if not self._verify_part(response, responder, f"{run.kind} response",
                                 output, run.run_id):
            return output
        previous = run.responses.get(responder)
        if previous is not None:
            if previous.payload != payload:
                self._misbehaviour(output, responder, "equivocation",
                                   "two different signed membership responses",
                                   run.run_id)
            return output
        self._journal_received(run.run_id, responder,
                               spliced(message, part=response))
        self._log_evidence(
            f"{run.kind}-response-received",
            {"run_id": run.run_id, "response": response.encoded},
        )
        run.responses[responder] = response
        run.last_activity = self.ctx.clock.now()
        if set(run.responses) == set(run.recipients):
            self._complete_as_sponsor(run, output)
        return output

    def _complete_as_sponsor(self, run: MembershipRun, output: Output) -> None:
        responses = [run.responses[p] for p in run.recipients]
        unanimous, diagnostics = responses_unanimous(responses)
        expected_digest = run.proposal.digest()
        for part in responses:
            if bytes(part.payload.get("proposal_digest", b"")) != expected_digest:
                unanimous = False
                diagnostics.append(
                    f"{part.signer}: response references a different proposal"
                )
        if run.kind == KIND_DISCONNECT:
            # Voluntary disconnection cannot be vetoed; responses are
            # receipts only.
            unanimous = True

        commit_type = (CONNECT_COMMIT if run.kind == KIND_CONNECT
                       else DISCONNECT_COMMIT)
        commit = membership_commit_message(
            commit_type, run.kind, self.object_name, run.new_gid,
            run.auth or b"", run.proposal, responses,
        )
        run.commit = commit
        stored = spliced(commit, proposal=run.proposal, responses=responses)
        for recipient in run.recipients:
            self._journal_sent(run.run_id, recipient, stored)
            output.send(recipient, commit)
        self._log_evidence(
            f"{run.kind}-commit-sent",
            {"run_id": run.run_id, "valid": unanimous, "diagnostics": diagnostics},
        )
        self._settle(run, unanimous, diagnostics, output, responses)

        # Final message to the subject.
        if run.kind == KIND_CONNECT:
            subject = run.subjects[0]
            if unanimous:
                final = self._build_welcome(run, responses)
            else:
                final = self._reject_message(
                    run.request.digest() if run.request else b""
                )
            run.final_message = (subject, final)
            output.send(subject, final)
        elif run.kind == KIND_DISCONNECT:
            subject = run.subjects[0]
            notice_part = self._signed({
                "type": "disconnect-notice",
                "sponsor": self.party_id,
                "object": self.object_name,
                "new_gid": run.new_gid.to_dict(),
                "subjects": list(run.subjects),
            })
            final = membership_message(
                DISCONNECT_NOTICE, notice_part, extra={"commit": run.commit}
            )
            run.final_message = (subject, final)
            output.send(subject, final)

    def _build_welcome(self, run: MembershipRun,
                       responses: "list[SignedPart]") -> dict:
        welcome_payload = {
            "type": "connect-welcome",
            "sponsor": self.party_id,
            "object": self.object_name,
            "members": list(run.new_members),
            "new_gid": run.new_gid.to_dict(),
            "agreed_sid": self.state_engine.agreed_sid.to_dict(),
        }
        part = self._signed(welcome_payload)
        return welcome_message(part, self.state_engine.agreed_state,
                               run.commit or {})

    # ------------------------------------------------------------------
    # member side: commit
    # ------------------------------------------------------------------

    def _on_commit(self, sender: str, message: dict) -> Output:
        output = Output()
        try:
            new_gid = GroupId.from_dict(message["new_gid"])
        except (KeyError, TypeError, ValueError):
            self._misbehaviour(output, sender, "malformed-message",
                               "membership commit missing group identifier")
            return output
        run_id = self._membership_run_id(new_gid)
        run = self._runs.get(run_id)
        if run is None:
            proposal = self._parse_part(message, "proposal")
            if proposal is not None and self._verify_part(
                    proposal, None, "membership commit proposal", output, run_id):
                self._misbehaviour(
                    output, str(proposal.payload.get("sponsor", sender)),
                    "selective-send",
                    "membership commit for a proposal we were never sent",
                    run_id,
                )
            return output
        if run.outcome is not None:
            return output
        if run.role != ROLE_MEMBER:
            return output
        self._journal_received(run_id, sender,
                               spliced(message, proposal=run.proposal))
        valid, diagnostics, responses = self._check_membership_commit(
            run, message, output
        )
        run.commit = message
        self._log_evidence(
            f"{run.kind}-commit-received",
            {"run_id": run_id, "valid": valid, "diagnostics": diagnostics},
        )
        self._settle(run, valid, diagnostics, output, responses)
        return output

    def _check_membership_commit(self, run: MembershipRun, message: dict,
                                 output: Output) -> "tuple[bool, list[str], list[SignedPart]]":
        diagnostics: "list[str]" = []
        sponsor = run.sponsor
        embedded = self._parse_part(message, "proposal")
        if embedded is None or embedded.payload != run.proposal.payload:
            diagnostics.append("commit embeds a different proposal than we received")
            self._misbehaviour(output, sponsor, "inconsistent-message",
                               "membership commit/proposal mismatch", run.run_id)
            return False, diagnostics, []
        auth = bytes(message.get("auth", b""))
        commitment = bytes(run.proposal.payload.get("auth_commitment", b""))
        if not verify_auth_preimage(auth, commitment):
            diagnostics.append("authenticator does not match the committed hash")
            self._misbehaviour(output, sponsor, "forged-commit",
                               "invalid membership authenticator", run.run_id)
            return False, diagnostics, []
        responses: "list[SignedPart]" = []
        for raw in message.get("responses", []):
            try:
                responses.append(SignedPart.from_dict(raw))
            except (KeyError, TypeError, ValueError):
                diagnostics.append("malformed response in membership commit")
                return False, diagnostics, []
        if run.kind == KIND_CONNECT:
            expected = set(self.group.recipients_excluding(sponsor))
        else:
            expected = set(self.group.recipients_excluding(sponsor, *run.subjects))
        seen: "set[str]" = set()
        expected_digest = run.proposal.digest()
        for part in responses:
            responder = str(part.payload.get("responder", ""))
            if responder == self.party_id:
                if run.own_response is None or part.payload != run.own_response.payload:
                    diagnostics.append("our own membership response was altered")
                    self._misbehaviour(output, sponsor, "evidence-tampering",
                                       "bundle alters our signed response", run.run_id)
                    return False, diagnostics, responses
            if not self._verify_part(part, responder, "bundled membership response",
                                     output, run.run_id):
                diagnostics.append(f"invalid signature on response by {responder!r}")
                return False, diagnostics, responses
            if bytes(part.payload.get("proposal_digest", b"")) != expected_digest:
                diagnostics.append(
                    f"{responder}: response references a different proposal"
                )
            seen.add(responder)
        if seen != expected:
            missing = sorted(expected - seen)
            extra = sorted(seen - expected)
            if missing:
                diagnostics.append(f"bundle lacks responses from {missing}")
            if extra:
                diagnostics.append(f"bundle has responses from non-recipients {extra}")
            self._misbehaviour(output, sponsor, "incomplete-bundle",
                               "; ".join(diagnostics), run.run_id)
            return False, diagnostics, responses
        unanimous, veto_diags = responses_unanimous(responses)
        diagnostics.extend(veto_diags)
        if run.kind == KIND_DISCONNECT:
            unanimous = True  # receipts, not votes
        return unanimous, diagnostics, responses

    # ------------------------------------------------------------------
    # subject side: final notices
    # ------------------------------------------------------------------

    def _on_disconnect_notice(self, sender: str, message: dict) -> Output:
        output = Output()
        part = self._parse_part(message, "part")
        if part is None or self._pending_departure is None:
            return output
        if not self._verify_part(part, sender, "disconnect notice", output):
            return output
        self._log_evidence("disconnect-notice-received",
                           {"notice": part.encoded,
                            "commit": message.get("commit")})
        self._pending_departure = None
        output.emit(DisconnectionDecided(
            object_name=self.object_name,
            evidence=message.get("commit"),
        ))
        return output

    def _on_reject_notice(self, sender: str, message: dict) -> Output:
        """A sponsor rejected our eviction request outright."""
        output = Output()
        part = self._parse_part(message, "part")
        if part is None:
            return output
        if not self._verify_part(part, sender, "eviction reject", output):
            return output
        if part.payload.get("type") != "evict-reject":
            return output
        self._log_evidence("evict-request-rejected-notice",
                           {"reject": part.encoded})
        output.emit(RunCompleted(
            run_id=bytes(part.payload.get("request_digest", b"")).hex(),
            object_name=self.object_name,
            kind=KIND_EVICT,
            valid=False,
            role="proposer",
            diagnostics=["rejected by sponsor"],
        ))
        return output

    # ------------------------------------------------------------------
    # settlement
    # ------------------------------------------------------------------

    def _settle(self, run: MembershipRun, valid: bool,
                diagnostics: "list[str]", output: Output,
                responses: "list[SignedPart]") -> None:
        run.outcome = "valid" if valid else "invalid"
        run.diagnostics = diagnostics
        if self._active_run_id == run.run_id:
            self._active_run_id = None
            self.state_engine.membership_change_active = False
        evidence = {
            "type": "authenticated-decision",
            "object": self.object_name,
            "run_id": run.run_id,
            "kind": run.kind,
            "new_gid": run.new_gid.to_dict(),
            "auth": run.auth if run.auth is not None else bytes(
                (run.commit or {}).get("auth", b"")
            ),
            "proposal": run.proposal.to_dict(),
            "responses": [part.to_dict() for part in responses],
            "valid": valid,
            "diagnostics": list(diagnostics),
        }
        self._log_evidence("authenticated-decision", spliced(
            evidence, proposal=run.proposal, responses=responses))
        self._release(run.proposal, run.request, run.own_response,
                      *run.responses.values())
        if valid:
            self.group.apply_change(run.new_members, run.new_gid)
            self.ctx.checkpoints.save(
                f"{self.object_name}::group",
                run.new_gid.to_dict(),
                {"members": list(run.new_members),
                 "gid": run.new_gid.to_dict(),
                 "sponsor_mode": self.group.sponsor_mode},
            )
        # Closed last, as in StateCoordinationEngine._settle.
        self._close_journal(run.run_id, run.outcome)
        if valid:
            output.emit(MembershipChanged(
                object_name=self.object_name,
                change=run.kind,
                subjects=list(run.subjects),
                members=list(run.new_members),
                group_id=run.new_gid.to_dict(),
                run_id=run.run_id,
            ))
        output.emit(RunCompleted(
            run_id=run.run_id,
            object_name=self.object_name,
            kind=run.kind,
            valid=valid,
            role=run.role,
            diagnostics=list(diagnostics),
            evidence=evidence,
        ))

    # ------------------------------------------------------------------
    # progress / recovery
    # ------------------------------------------------------------------

    def check_progress(self, timeout: float) -> Output:
        output = Output()
        now = self.ctx.clock.now()
        for run in self._runs.values():
            if run.outcome is None and now - run.last_activity > timeout:
                output.emit(RunBlocked(
                    run_id=run.run_id,
                    object_name=self.object_name,
                    kind=run.kind,
                    waiting_on=run.waiting_on(),
                    age=now - run.last_activity,
                ))
        return output

    def resend_outstanding(self) -> Output:
        output = Output()
        if self._pending_departure is not None and self._departure_request is not None:
            output.send(*self._departure_request)
        for run in self._runs.values():
            if run.outcome is not None:
                continue
            if run.role == ROLE_SPONSOR:
                msg_type = (CONNECT_PROPOSE if run.kind == KIND_CONNECT
                            else DISCONNECT_PROPOSE)
                message = membership_message(msg_type, run.proposal)
                for recipient in run.waiting_on():
                    output.send(recipient, message)
            elif run.own_response is not None:
                reply_type = (CONNECT_RESPOND if run.kind == KIND_CONNECT
                              else DISCONNECT_RESPOND)
                output.send(run.sponsor, membership_message(
                    reply_type, run.own_response))
        return output

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _membership_run_id(self, new_gid: GroupId) -> str:
        return self._run_id("membership", self.object_name, new_gid.to_dict())

    def _note_group_seen(self, gid: GroupId) -> None:
        self._seen_group_keys.add(hash_value(["gid-key", gid.seq, gid.rand_hash]))

    def _find_run_by_proposal_digest(self, digest: bytes) -> "Optional[MembershipRun]":
        for run in self._runs.values():
            if run.proposal.digest() == digest:
                return run
        return None

    def _resolve_verifier(self, party_id: str,
                          certificate: "dict | None") -> Verifier:
        if self._certificate_resolver is not None:
            return self._certificate_resolver(party_id, certificate)
        return self.ctx.resolver(party_id)

    def _reject_message(self, request_digest: bytes) -> dict:
        reject_payload = build_connect_reject(
            self.party_id, self.object_name, request_digest
        )
        return membership_message(CONNECT_REJECT, self._signed(reject_payload))


class JoinClient(EngineBase):
    """The subject side of a connection request (not yet a member).

    Sends the signed request to the sponsor and interprets the welcome or
    rejection.  On acceptance it verifies the admission evidence bundle —
    the sponsor's signed proposal, every member's signed accept decision
    and agreed-state attestation — before trusting the transferred state.
    """

    def __init__(self, ctx: PartyContext, object_name: str,
                 certificate: "dict | None" = None) -> None:
        super().__init__(ctx, object_name)
        self.certificate = certificate
        self.request: "Optional[SignedPart]" = None
        self.outcome: "Optional[ConnectionDecided]" = None
        self.sponsor: "Optional[str]" = None
        self._discovery_peer: "Optional[str]" = None
        # Populated on a verified welcome, for constructing the session.
        self.welcome_members: "Optional[list[str]]" = None
        self.welcome_gid: "Optional[GroupId]" = None
        self.welcome_sid: "Optional[StateId]" = None
        self.welcome_state: Any = None

    def request_connect_via(self, member: str) -> Output:
        """Discover the legitimate sponsor through any known member.

        Section 4.5.3: any member can identify the sponsor and provide
        this information to the subject.  The actual connection request
        follows automatically once the sponsor info arrives.
        """
        output = Output()
        self._discovery_peer = member
        output.send(member, {"msg_type": SPONSOR_QUERY,
                             "object": self.object_name})
        return output

    def request_connect(self, sponsor: str) -> Output:
        """Build and send the signed connection request (``m0``)."""
        output = Output()
        self.sponsor = sponsor
        request_payload = build_connect_request(
            subject=self.ctx.party_id,
            object_name=self.object_name,
            nonce=self.ctx.rng.random_bytes(32),
            certificate=self.certificate,
        )
        self.request = self._signed(request_payload)
        self._log_evidence("connect-request-sent",
                           {"request": self.request.encoded})
        message = membership_message(CONNECT_REQUEST, self.request)
        run_id = "connect-request:" + self.request.digest().hex()
        self._journal_sent(run_id, sponsor, spliced(message, part=self.request))
        output.send(sponsor, message)
        return output

    def resend_request(self) -> Output:
        output = Output()
        if self.outcome is None and self.request is not None and self.sponsor:
            output.send(self.sponsor,
                        membership_message(CONNECT_REQUEST, self.request))
        return output

    def handle(self, sender: str, message: dict) -> Output:
        msg_type = message.get("msg_type")
        if msg_type == CONNECT_WELCOME:
            return self._on_welcome(sender, message)
        if msg_type == CONNECT_REJECT:
            return self._on_reject(sender, message)
        if msg_type == SPONSOR_INFO:
            return self._on_sponsor_info(sender, message)
        return Output()

    def _on_sponsor_info(self, sender: str, message: dict) -> Output:
        """Follow up a sponsor discovery with the real request."""
        if self.request is not None or self.outcome is not None:
            return Output()  # already requested or settled
        if sender != getattr(self, "_discovery_peer", None):
            return Output()  # unsolicited advice: ignore
        sponsor = str(message.get("sponsor", ""))
        if not sponsor:
            return Output()
        return self.request_connect(sponsor)

    def _on_reject(self, sender: str, message: dict) -> Output:
        output = Output()
        if self.outcome is not None:
            return output
        part = self._parse_part(message, "part")
        if part is None:
            return output
        if not self._verify_part(part, sender, "connect reject", output):
            return output
        self._log_evidence("connect-rejected", {"reject": part.encoded})
        self.outcome = ConnectionDecided(
            object_name=self.object_name, accepted=False,
            diagnostics=["request rejected"],
        )
        output.emit(self.outcome)
        return output

    def _on_welcome(self, sender: str, message: dict) -> Output:
        output = Output()
        if self.outcome is not None:
            return output
        part = self._parse_part(message, "part")
        if part is None:
            return output
        if not self._verify_part(part, sender, "connect welcome", output):
            return output
        payload = part.payload
        try:
            members = [str(m) for m in payload["members"]]
            new_gid = GroupId.from_dict(payload["new_gid"])
            agreed_sid = StateId.from_dict(payload["agreed_sid"])
        except (KeyError, TypeError, ValueError):
            self._misbehaviour(output, sender, "malformed-message",
                               "welcome missing fields")
            return output
        agreed_state = message.get("agreed_state")
        diagnostics = self._verify_welcome(
            sender, message, members, new_gid, agreed_sid, agreed_state
        )
        if diagnostics:
            self._misbehaviour(output, sender, "invalid-welcome",
                               "; ".join(diagnostics))
            self.outcome = ConnectionDecided(
                object_name=self.object_name, accepted=False,
                diagnostics=diagnostics,
            )
            output.emit(self.outcome)
            return output
        self._log_evidence("connect-welcome-received", {
            "welcome": part.encoded,
            "commit": message.get("commit"),
        })
        self.welcome_members = members
        self.welcome_gid = new_gid
        self.welcome_sid = agreed_sid
        self.welcome_state = freeze(agreed_state)
        self.outcome = ConnectionDecided(
            object_name=self.object_name,
            accepted=True,
            members=members,
            state=freeze(agreed_state),
        )
        output.emit(self.outcome)
        return output

    def _verify_welcome(self, sponsor: str, message: dict,
                        members: "list[str]", new_gid: GroupId,
                        agreed_sid: StateId,
                        agreed_state: Any) -> "list[str]":
        diagnostics: "list[str]" = []
        if self.ctx.party_id not in members:
            diagnostics.append("welcome membership does not include us")
        if members and members[-1] != self.ctx.party_id:
            diagnostics.append("we are not the most recently joined member")
        if not new_gid.matches_members(members):
            diagnostics.append("group identifier does not match membership")
        if not agreed_sid.matches_state(agreed_state):
            diagnostics.append("transferred state does not match the agreed identifier")
        commit = message.get("commit") or {}
        proposal_raw = commit.get("proposal")
        if len(members) > 2:
            # With other members present, the commit bundle must prove
            # their unanimous agreement and attest the same agreed state.
            if not isinstance(proposal_raw, dict):
                diagnostics.append("welcome lacks the admission proposal")
                return diagnostics
            try:
                proposal = SignedPart.from_dict(proposal_raw)
            except (KeyError, TypeError, ValueError):
                diagnostics.append("welcome carries a malformed proposal")
                return diagnostics
            if str(proposal.payload.get("sponsor")) != sponsor:
                diagnostics.append("admission proposal sponsored by someone else")
            if proposal.payload.get("new_gid") != new_gid.to_dict():
                diagnostics.append("admission proposal for a different group")
            if proposal.payload.get("agreed_sid") != agreed_sid.to_dict():
                diagnostics.append("admission proposal attests a different agreed state")
            responses: "list[SignedPart]" = []
            for raw in commit.get("responses", []):
                try:
                    responses.append(SignedPart.from_dict(raw))
                except (KeyError, TypeError, ValueError):
                    diagnostics.append("malformed response in admission evidence")
                    return diagnostics
            expected = set(members) - {sponsor, self.ctx.party_id}
            seen: "set[str]" = set()
            for part in responses:
                responder = str(part.payload.get("responder", ""))
                try:
                    self.ctx.resolver(responder).require(
                        part.payload, part.signature, "admission response"
                    )
                except Exception as exc:  # noqa: BLE001
                    diagnostics.append(f"unverifiable admission response: {exc}")
                    continue
                decision = part.payload.get("decision", {})
                if decision.get("verdict") != "accept":
                    diagnostics.append(f"{responder} did not accept our admission")
                if part.payload.get("agreed_sid") != agreed_sid.to_dict():
                    diagnostics.append(
                        f"{responder} attests a different agreed state"
                    )
                seen.add(responder)
            if seen != expected:
                diagnostics.append(
                    f"admission evidence incomplete: have {sorted(seen)}, "
                    f"expected {sorted(expected)}"
                )
        return diagnostics
