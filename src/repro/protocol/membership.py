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

The sponsor's run is the state-coordination protocol with the sponsor in
the proposer's seat: :class:`MembershipEngine` runs it on the machine of
:mod:`repro.protocol.engine_base` and holds what is particular to
membership — the request intake, sponsor legitimacy and the validity
rule, the group-view change, and the welcome / reject / notice that
follows ``m3``.  The not-yet-member side of a connection lives in
:class:`JoinClient`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.crypto.hashing import hash_value
from repro.crypto.signature import Verifier
from repro.errors import ConcurrencyError, MembershipError
from repro.obs.hooks import PHASE_M1, PHASE_M2, PHASE_M3
from repro.protocol.context import PartyContext
from repro.protocol.coordination import StateCoordinationEngine
from repro.protocol.engine_base import (
    AUTH_BYTES,
    OUTCOME_INVALID,
    OUTCOME_VALID,
    EngineBase,
    EnginePlumbing,
    Run,
)
from repro.protocol.events import (
    ConnectionDecided,
    DisconnectionDecided,
    MembershipChanged,
    Output,
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
    welcome_message,
)
from repro.protocol.validation import Decision, Validator
from repro.util.encoding import freeze

KIND_CONNECT = "connect"
KIND_DISCONNECT = "disconnect"
KIND_EVICT = "evict"

ROLE_SPONSOR = "sponsor"
ROLE_MEMBER = "member"

#: A membership run's record is the machine's :class:`Run` (``new_gid``,
#: ``new_members`` and ``sponsor`` are its ``new_id``, ``new_state`` and
#: ``initiator``).
MembershipRun = Run

CertificateResolver = Callable[[str, "dict | None"], Verifier]

# (m1, m2, m3) wire types: connection has its own, both removals share.
_CONNECT_TYPES = (CONNECT_PROPOSE, CONNECT_RESPOND, CONNECT_COMMIT)
_REMOVAL_TYPES = (DISCONNECT_PROPOSE, DISCONNECT_RESPOND, DISCONNECT_COMMIT)


class MembershipEngine(EngineBase):
    """Member-side connection/disconnection/eviction coordination."""

    _LABEL = "membership"
    _INITIATOR = ROLE_SPONSOR
    _RESPONDER = ROLE_MEMBER
    _M1_KEY = _M2_KEY = "part"
    _ID_KEY = "new_gid"
    _ID_TYPE = GroupId
    _PHASES = {
        CONNECT_PROPOSE: PHASE_M1, DISCONNECT_PROPOSE: PHASE_M1,
        CONNECT_RESPOND: PHASE_M2, DISCONNECT_RESPOND: PHASE_M2,
        CONNECT_COMMIT: PHASE_M3, DISCONNECT_COMMIT: PHASE_M3,
    }
    #: Handlers of the messages that are not a step of a run.
    _OTHER = {
        CONNECT_REQUEST: "_on_connect_request",
        DISCONNECT_REQUEST: "_on_disconnect_request",
        EVICT_REQUEST: "_on_evict_request",
        DISCONNECT_NOTICE: "_on_disconnect_notice",
        CONNECT_REJECT: "_on_reject_notice",
        SPONSOR_QUERY: "_on_sponsor_query",
    }

    def __init__(self, ctx: PartyContext,
                 state_engine: StateCoordinationEngine,
                 validator: "Validator | None" = None,
                 certificate_resolver: "CertificateResolver | None" = None) -> None:
        super().__init__(ctx, state_engine.object_name)
        self.state_engine = state_engine
        self.group = state_engine.group
        self.validator = validator or state_engine.validator
        self._certificate_resolver = certificate_resolver
        # Set while this party awaits the outcome of its own voluntary
        # disconnection request.
        self._pending_departure: "Optional[bytes]" = None
        self._departure_request: "Optional[tuple[str, dict]]" = None

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
        self._pending_departure = request.digest()
        self._departure_request = (sponsor, self._send_request(
            KIND_DISCONNECT, DISCONNECT_REQUEST, sponsor, request, output))
        return self._pending_departure, output

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
        self._send_request(KIND_EVICT, EVICT_REQUEST, sponsor, request, output)
        return digest, output

    # ------------------------------------------------------------------
    # messages outside a run
    # ------------------------------------------------------------------

    def _on_other(self, sender: str, message: dict) -> Output:
        handler = self._OTHER.get(message.get("msg_type"))
        if handler is None:
            return super()._on_other(sender, message)
        return getattr(self, handler)(sender, message)

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

    def _answered_before(self, kind: str, digest: bytes,
                         output: Output) -> bool:
        """Re-send the welcome or notice of a run this sponsor settled
        validly and no longer holds (a restart, or retired since): the
        change is installed, so the subject evidently missed it."""
        def asked_by(logged: dict) -> bool:
            request = logged["proposal"]["payload"].get("request") or {}
            return (logged["valid"] and logged["kind"] == kind
                    and hash_value(request.get("payload")) == digest)

        run = self._settled_run(asked_by)
        if run is None or run.role != ROLE_SPONSOR:
            return False
        self._epilogue(run, True, output)
        return True

    def _new_request(self, sender: str, message: dict,
                     output: Output) -> "Optional[SignedPart]":
        """The signed request *message* carries, unless it is malformed
        or already has its run here — a duplicate is answered with that
        run's final message, if there is one yet."""
        request = self._parse_part(message, "part")
        if request is None:
            self._misbehaviour(output, sender, "malformed-message",
                               f"unparseable {message.get('msg_type')}")
            return None
        run = self._runs.get(self._by_digest.get(request.digest(), ""))
        if run is None:
            return request
        if run.final_message is not None:
            output.send(*run.final_message)
        return None

    def _on_connect_request(self, sender: str, message: dict) -> Output:
        output = Output()
        request = self._new_request(sender, message, output)
        if request is None:
            return output
        payload = request.payload
        subject = str(payload.get("subject", ""))
        digest = request.digest()

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

        # Refuse when the subject is a member already (unless it is the
        # welcome it is still asking for), when this party is not the
        # legitimate sponsor (the subject can learn the correct one from
        # any member), and — section 4.5.1 — while any other coordination
        # request is pending decision.
        if (subject in self.group
                and self._answered_before(KIND_CONNECT, digest, output)):
            return output
        if (subject in self.group
                or self.group.connect_sponsor() != self.party_id
                or self.busy or self.state_engine.busy):
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
        request = self._new_request(sender, message, output)
        if request is None:
            return output
        subject = str(request.payload.get("subject", ""))
        digest = request.digest()
        if subject != sender:
            self._misbehaviour(output, sender, "impersonation",
                               f"disconnect request for {subject!r} sent by {sender!r}")
            return output
        if not self._verify_part(request, subject, "disconnect request", output):
            return output
        if subject not in self.group:
            self._answered_before(KIND_DISCONNECT, digest, output)
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
        request = self._new_request(sender, message, output)
        if request is None:
            return output
        payload = request.payload
        proposer = str(payload.get("proposer", ""))
        subjects = [str(s) for s in payload.get("subjects", [])]
        digest = request.digest()
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
            reject = self._signed(dict(build_connect_reject(
                self.party_id, self.object_name, digest), type="evict-reject"))
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
        return self._sponsor(KIND_CONNECT, [subject],
                             self.group.membership_after_connect(subject),
                             request)

    def _sponsor_removal(self, kind: str, subjects: "list[str]",
                         request: "SignedPart | None", voluntary: bool,
                         proposer: str) -> Output:
        if self.busy:
            raise ConcurrencyError(
                f"{self.party_id}: a membership run is already active"
            )
        return self._sponsor(kind, subjects,
                             self.group.membership_after_removal(subjects),
                             request, voluntary=voluntary, proposer=proposer)

    def _sponsor(self, kind: str, subjects: "list[str]",
                 new_members: "list[str]", request: "SignedPart | None",
                 **removal: Any) -> Output:
        """Start the run that puts a membership change to the members."""
        new_gid, _nonce = new_group_id(
            self.group.group_id.seq, new_members, self.ctx.rng
        )
        auth = self.ctx.rng.random_bytes(AUTH_BYTES)
        proposal = self._signed(build_membership_proposal(
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
            **removal,
        ))
        run = self._new_run(
            ROLE_SPONSOR, proposal, new_gid, kind=kind, new_state=new_members,
            subjects=subjects, request=request, auth=auth)
        # The request itself travels (and is logged) inside the signed
        # proposal.
        return self._start_run(run, {"kind": kind, "subjects": subjects})

    # ------------------------------------------------------------------
    # policy hooks of the run machine
    # ------------------------------------------------------------------

    def _installed_id(self) -> GroupId:
        return self.group.group_id

    def _describe(self, run: Run, source: dict) -> None:
        payload = run.proposal.payload
        run.kind = str(payload["kind"])
        if run.kind not in (KIND_CONNECT, KIND_DISCONNECT, KIND_EVICT):
            raise ValueError(f"unknown membership change {run.kind!r}")
        GroupId.from_dict(payload["old_gid"])
        StateId.from_dict(payload["agreed_sid"])
        run.new_state = [str(m) for m in payload["new_members"]]
        run.subjects = [str(s) for s in payload["subjects"]]
        run.request = self._parse_part(payload, "request")

    def _tag(self, run: Run, name: str) -> str:
        return f"{run.kind}-{name}"

    def _response_payload(self, run: Run, decision: Decision) -> dict:
        return build_membership_response(
            kind=run.kind,
            responder=self.party_id,
            object_name=self.object_name,
            proposal_digest=run.proposal.digest(),
            decision=decision,
            gid=self.group.group_id,
            agreed_sid=self.state_engine.agreed_sid,
            current_sid=self.state_engine.current_sid,
        )

    def _response_run_id(self, payload: dict) -> str:
        # A membership response names its proposal only by digest.
        return self._by_digest.get(bytes(payload.get("proposal_digest", b"")), "")

    @staticmethod
    def _types(run: Run) -> "tuple[str, str, str]":
        return _CONNECT_TYPES if run.kind == KIND_CONNECT else _REMOVAL_TYPES

    def _m1_message(self, run: Run) -> dict:
        return membership_message(self._types(run)[0], run.proposal)

    def _m2_message(self, run: Run) -> dict:
        return membership_message(self._types(run)[1], run.own_response)

    def _m3_message(self, run: Run, responses: "list[SignedPart]") -> dict:
        return membership_commit_message(
            self._types(run)[2], run.kind, self.object_name, run.new_id,
            run.auth or b"", run.proposal, responses,
        )

    def _set_active(self, run_id: "Optional[str]") -> None:
        super()._set_active(run_id)
        # New state proposals are rejected while the group is changing.
        self.state_engine.membership_change_active = run_id is not None

    def _goes_busy(self, run: Run) -> bool:
        return (run.own_decision.accepted
                or bool(run.proposal.payload.get("voluntary", False)))

    def _aggregate_decisions(self, responses: "list[SignedPart]",
                             own_decision: "Decision | None" = None
                             ) -> "tuple[bool, list[str]]":
        unanimous, diagnostics = responses_unanimous(responses)
        return unanimous or self._may_install_despite_own_veto(), diagnostics

    def _may_install_despite_own_veto(self) -> bool:
        # Voluntary disconnection cannot be vetoed (section 4.5.4): the
        # responses of the run being decided are receipts, not votes.
        return self._deciding.kind == KIND_DISCONNECT

    def _install(self, run: Run) -> None:
        self.group.apply_change(run.new_state, run.new_id)
        self.ctx.checkpoints.save(
            f"{self.object_name}::group",
            run.new_id.to_dict(),
            {"members": list(run.new_state),
             "gid": run.new_id.to_dict(),
             "sponsor_mode": self.group.sponsor_mode},
        )

    def _announce(self, run: Run, valid: bool, output: Output) -> None:
        if run.request is not None and run.request.signer == self.party_id:
            # Our eviction request, decided (a joiner or leaver is no
            # recipient of its run: it hears by welcome or notice).
            self._close_request(run.kind, run.request.digest(), run.outcome)
        if valid:
            output.emit(MembershipChanged(
                object_name=self.object_name,
                change=run.kind,
                subjects=list(run.subjects),
                members=list(run.new_state),
                group_id=run.new_id.to_dict(),
                run_id=run.run_id,
            ))

    def _epilogue(self, run: Run, valid: bool, output: Output) -> None:
        """The final message to the subject: welcome or rejection for a
        connection, notice for a voluntary disconnection."""
        if run.kind == KIND_EVICT:
            return
        if run.kind == KIND_DISCONNECT:
            notice = self._signed({
                "type": "disconnect-notice",
                "sponsor": self.party_id,
                "object": self.object_name,
                "new_gid": run.new_id.to_dict(),
                "subjects": list(run.subjects),
            })
            final = membership_message(
                DISCONNECT_NOTICE, notice, extra={"commit": run.commit})
        elif valid:
            welcome = self._signed({
                "type": "connect-welcome",
                "sponsor": self.party_id,
                "object": self.object_name,
                "members": list(run.new_state),
                "new_gid": run.new_id.to_dict(),
                "agreed_sid": self.state_engine.agreed_sid.to_dict(),
            })
            final = welcome_message(welcome, self.state_engine.agreed_state,
                                    run.commit or {})
        else:
            final = self._reject_message(
                run.request.digest() if run.request else b"")
        run.final_message = (run.subjects[0], final)
        output.send(*run.final_message)

    def _evaluate(self, run: Run) -> Decision:
        payload = run.proposal.payload
        kind, sponsor, subjects = run.kind, run.initiator, run.subjects
        new_gid, new_members = run.new_id, run.new_state
        old_gid = GroupId.from_dict(payload["old_gid"])
        voluntary = bool(payload.get("voluntary", False))
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
        if StateId.from_dict(payload["agreed_sid"]) != self.state_engine.agreed_sid:
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
            self._check_request(run, "connection proposal", diagnostics)
        else:
            try:
                expected_members = self.group.membership_after_removal(subjects)
            except MembershipError as exc:
                expected_members = None
                diagnostics.append(str(exc))
            if expected_members is not None and new_members != expected_members:
                diagnostics.append("proposed membership list is inconsistent")
            if voluntary:
                self._check_request(run, "voluntary disconnection", diagnostics)

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

    def _check_request(self, run: Run, what: str,
                       diagnostics: "list[str]") -> None:
        """The subject's own signed request, embedded in the proposal: a
        joiner's verifies under the certificate it carries, a member's
        under the key this party already trusts."""
        request = run.proposal.payload.get("request")
        if not request:
            diagnostics.append(f"{what} lacks the subject's request")
            return
        try:
            part = SignedPart.from_dict(request)
            subject = str(part.payload.get("subject", ""))
            if run.kind == KIND_CONNECT:
                verifier = self._resolve_verifier(
                    subject, part.payload.get("certificate"))
            else:
                verifier = self.ctx.resolver(subject)
            verifier.require(part.payload, part.signature,
                             f"embedded {run.kind} request")
            if run.subjects != [subject]:
                diagnostics.append("request subject differs from proposal subject")
        except Exception as exc:  # noqa: BLE001 - any failure is a veto
            diagnostics.append(f"embedded request unverifiable: {exc}")

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
        self._close_request(KIND_DISCONNECT, self._pending_departure,
                            OUTCOME_VALID)
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
        digest = bytes(part.payload.get("request_digest", b""))
        self._close_request(KIND_EVICT, digest, OUTCOME_INVALID)
        output.emit(RunCompleted(
            run_id=digest.hex(),
            object_name=self.object_name,
            kind=KIND_EVICT,
            valid=False,
            role="proposer",
            diagnostics=["rejected by sponsor"],
        ))
        return output

    # ------------------------------------------------------------------
    # progress / internals
    # ------------------------------------------------------------------

    def resend_outstanding(self) -> Output:
        output = super().resend_outstanding()
        if self._pending_departure is not None and self._departure_request is not None:
            output.send(*self._departure_request)
        return output

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


class JoinClient(EnginePlumbing):
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
        self._send_request(KIND_CONNECT, CONNECT_REQUEST, sponsor,
                           self.request, output)
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
        if sender != self._discovery_peer:
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
        self._decided(ConnectionDecided(
            object_name=self.object_name, accepted=False,
            diagnostics=["request rejected"],
        ), output)
        return output

    def _decided(self, outcome: ConnectionDecided, output: Output) -> None:
        if self.request is not None:
            self._close_request(
                KIND_CONNECT, self.request.digest(),
                OUTCOME_VALID if outcome.accepted else OUTCOME_INVALID)
        self.outcome = outcome
        output.emit(outcome)

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
            self._decided(ConnectionDecided(
                object_name=self.object_name, accepted=False,
                diagnostics=diagnostics,
            ), output)
            return output
        self._log_evidence("connect-welcome-received", {
            "welcome": part.encoded,
            "commit": message.get("commit"),
        })
        self.welcome_members = members
        self.welcome_gid = new_gid
        self.welcome_sid = agreed_sid
        self.welcome_state = freeze(agreed_state)
        self._decided(ConnectionDecided(
            object_name=self.object_name,
            accepted=True,
            members=members,
            state=freeze(agreed_state),
        ), output)
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
