"""The run machine shared by state coordination and membership.

Sections 4.3 and 4.5 describe one protocol: an initiator (the proposer
of a state change, the sponsor of a membership change) sends a signed
proposal (``m1``), every recipient answers with a signed decision
(``m2``), and the initiator distributes the evidence bundle plus the
authenticator it committed to (``m3``); each party then settles the run
from the bundle alone.  :class:`EngineBase` is that machine — the run
table, the three handlers, bundle checking, settlement, journalling,
tracing, progress, resend and recovery — written once.  The two engines
subclass it and override only policy hooks (the block marked *policy*
below): wire names, run identity, how a responder decides, what a valid
outcome installs, and the initiator's epilogue.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.crypto.hashing import hash_value
from repro.errors import (
    InconsistentMessageError,
    SignatureError,
    TimestampError,
)
from repro.obs.hooks import (
    PHASE_M1,
    PHASE_M2,
    PHASE_M3,
    approx_size_cached,
)
from repro.obs.hooks import RECEIVED as OBS_RECEIVED
from repro.obs.hooks import SENT as OBS_SENT
from repro.protocol.context import PartyContext
from repro.protocol.events import (
    MisbehaviourEvent,
    Output,
    RunBlocked,
    RunCompleted,
)
from repro.protocol.group import GroupView
from repro.protocol.messages import (
    SignedPart,
    attach_trace_context,
    extract_trace_context,
    make_signed,
    membership_message,
    responses_unanimous,
    spliced,
    verify_auth_preimage,
    verify_signed,
)
from repro.protocol.validation import Decision
from repro.storage.journal import RECEIVED, SENT
from repro.storage.log import LogEntry
from repro.util.encoding import Fragment, from_canonical_bytes

AUTH_BYTES = 32

OUTCOME_VALID = "valid"
OUTCOME_INVALID = "invalid"

_MALFORMED = (KeyError, TypeError, ValueError)
_HANDLERS = {PHASE_M1: "_on_propose", PHASE_M2: "_on_respond",
             PHASE_M3: "_on_commit"}


@dataclass
class Run:
    """Book-keeping for one protocol run at one party."""

    run_id: str
    role: str
    kind: str  # "state" | "connect" | "disconnect" | "evict"
    proposal: "Optional[SignedPart]"  # None at a responder once retired
    new_id: Any  # StateId of the proposed state / GroupId of the new group
    new_state: Any = None  # what new_id names: the state / the member list
    # State runs: the fragment new_state was frozen from, which its
    # checkpoint line and read snapshot reuse.
    state_encoded: "Optional[Fragment]" = None
    recipients: "list[str]" = field(default_factory=list)
    mode: str = ""  # state runs: overwrite | update | update_batch
    body: Any = None  # state runs: the m1 body, and H(body) as sent or
    body_hash: bytes = b""  # as received
    subjects: "list[str]" = field(default_factory=list)  # membership runs
    request: "Optional[SignedPart]" = None  # ... and what asked for them
    auth: "Optional[bytes]" = None  # initiator only: the m3 authenticator
    responses: "dict[str, SignedPart]" = field(default_factory=dict)
    own_response: "Optional[SignedPart]" = None  # responder only
    own_decision: "Optional[Decision]" = None
    commit: "Optional[dict]" = None
    outcome: "Optional[str]" = None
    final_message: "Optional[tuple[str, dict]]" = None  # welcome/reject/notice
    diagnostics: "list[str]" = field(default_factory=list)
    started_at: float = 0.0
    last_activity: float = 0.0

    @property
    def initiator(self) -> str:
        """The proposer or sponsor: whoever signed the proposal."""
        return self.proposal.signer

    proposer = sponsor = initiator
    new_sid = new_gid = property(lambda self: self.new_id)
    new_members = property(lambda self: self.new_state)

    def waiting_on(self) -> "list[str]":
        if self.outcome is not None:
            return []
        if self.auth is not None:  # only the initiator holds the preimage
            return [p for p in self.recipients if p not in self.responses]
        return [self.initiator]  # a responder waits for m3


class EnginePlumbing:
    """Evidence-logging, journalling and signature plumbing."""

    def __init__(self, ctx: PartyContext, object_name: str) -> None:
        self.ctx = ctx
        self.object_name = object_name

    @property
    def party_id(self) -> str:
        return self.ctx.party_id

    # ------------------------------------------------------------------
    # signing / verification
    # ------------------------------------------------------------------

    def _signed(self, payload: dict) -> SignedPart:
        return make_signed(payload, self.ctx.signer, self.ctx.tsa)

    def _verify_part(self, part: SignedPart, expected_signer: "str | None",
                     context: str, output: Output,
                     run_id: str = "") -> bool:
        """Verify a signed part; on failure, log + emit misbehaviour.

        Returns True when the part is genuine.  An invalid signature means
        the content cannot be bound to any party, so the engine drops the
        message (retransmission of the genuine message still succeeds)
        rather than acting on unattributable data.
        """
        try:
            verify_signed(
                part,
                self.ctx.resolver,
                tsa_verifier=self.ctx.tsa_verifier,
                expected_signer=expected_signer,
                context=context,
            )
            return True
        except (SignatureError, InconsistentMessageError, TimestampError) as exc:
            self._misbehaviour(
                output, expected_signer or part.signature.signer,
                "invalid-signature", str(exc), run_id, context=context)
            return False

    def _misbehaviour(self, output: Output, party: str, kind: str,
                      detail: str, run_id: str = "",
                      context: "str | None" = None) -> None:
        """Record and surface provable misbehaviour (the log entry of a
        failed verification names its *context* in place of the run)."""
        where = {"run_id": run_id} if context is None else {"context": context}
        self._log_evidence(
            "misbehaviour",
            {"party": party, "kind": kind, "detail": detail, **where},
        )
        output.emit(
            MisbehaviourEvent(
                party=party,
                kind=kind,
                detail=detail,
                object_name=self.object_name,
                run_id=run_id,
            )
        )

    # ------------------------------------------------------------------
    # evidence and journal
    # ------------------------------------------------------------------

    def _log_evidence(self, kind: str, payload: dict) -> LogEntry:
        record = dict(payload)
        record.setdefault("object", self.object_name)
        record.setdefault("at_ms", int(self.ctx.clock.now() * 1000))
        return self.ctx.evidence.record(kind, record)

    def _log_and_journal(self, kind: str, payload: dict, run_id: str,
                         direction: str, peer: str, message: dict,
                         **refs: str) -> None:
        """Log *payload* as evidence, then journal *message* with each
        signed part (``message key="payload key"``) replaced by a
        reference into that entry.  One hold of the append lock keeps the
        two records adjacent, the entry first."""
        with self.ctx.evidence.store.lock:
            entry = self._log_evidence(kind, payload)
            self.ctx.journal.record_message(
                run_id, direction, peer, message,
                refs={key: [entry.index, at] for key, at in refs.items()})

    def _close_journal(self, run_id: str, outcome: str) -> None:
        if self.ctx.journal.is_open(run_id):
            self.ctx.journal.close_run(run_id, outcome)

    def _send_request(self, kind: str, msg_type: str, sponsor: str,
                      request: SignedPart, output: Output) -> dict:
        """Log, journal and queue a signed request to a sponsor; the
        journal entry is open until :meth:`_close_request`."""
        message = membership_message(msg_type, request)
        self._log_and_journal(
            f"{kind}-request-sent", {"request": request.encoded},
            f"{kind}-request:{request.digest().hex()}", SENT, sponsor,
            message, part="request")
        output.send(sponsor, message)
        return message

    def _close_request(self, kind: str, digest: bytes, outcome: str) -> None:
        """The request this party sent a sponsor was decided or refused."""
        self._close_journal(f"{kind}-request:{digest.hex()}", outcome)

    @staticmethod
    def _parse_part(message: dict, key: str) -> "Optional[SignedPart]":
        raw = message.get(key)
        if not isinstance(raw, dict):
            return None
        try:
            return SignedPart.from_dict(raw)
        except _MALFORMED:
            return None


class EngineBase(EnginePlumbing):
    """One party's propose → respond → commit → settle machine for one
    shared object."""

    #: How many settled runs stay in the run table, and how many seen
    #: proposal tuples the replay protection (invariant 4) remembers.  A
    #: long-lived object settles one run and sees one tuple per proposal,
    #: so neither may grow without bound; the window mirrors the reliable
    #: layer's dedup window.  A duplicate that outlives the window is
    #: answered from the journal and the decision evidence, and invariant
    #: 3 independently rejects any proposal whose sequence number does
    #: not exceed the agreed one.
    seen_window: int = 4096

    # ------------------------------------------------------------------
    # policy: what the two engines override
    # ------------------------------------------------------------------

    _LABEL: str  # names the engine in run ids and verification contexts
    _INITIATOR: str  # role of, and proposal field naming, the initiator
    _RESPONDER: str
    _M1_KEY: str  # wire key of the signed part of m1 ...
    _M2_KEY: str  # ... and of m2
    _ID_KEY: str  # wire key of what the run proposes: new_sid | new_gid
    _ID_TYPE: Any
    _PHASES: "dict[str, str]"  # msg_type -> PHASE_M1 | PHASE_M2 | PHASE_M3
    group: GroupView

    def _installed_id(self) -> Any:
        """The identifier (of ``_ID_TYPE``) this party currently holds."""
        raise NotImplementedError

    def _describe(self, run: Run, source: dict) -> None:
        """Fill the policy fields of *run* (kind, mode, subjects…) from
        its signed proposal and *source* — the ``m1`` carrying it or our
        own ``run-keys`` record.  Raises on a malformed proposal."""
        raise NotImplementedError

    def _evaluate(self, run: Run) -> Decision:
        """The responder's decision: systematic checks, then the
        application's validation upcall."""
        raise NotImplementedError

    def _response_payload(self, run: Run, decision: Decision) -> dict:
        raise NotImplementedError

    def _response_run_id(self, payload: dict) -> str:
        """The run an ``m2`` payload answers; raises when malformed,
        ``""`` when this party holds no such run in memory."""
        raise NotImplementedError

    def _m1_message(self, run: Run) -> dict:
        raise NotImplementedError

    def _m2_message(self, run: Run) -> dict:
        raise NotImplementedError

    def _m3_message(self, run: Run, responses: "list[SignedPart]") -> dict:
        raise NotImplementedError

    def _install(self, run: Run) -> None:
        """Make a validly settled run's proposal the agreed one, and
        checkpoint it."""
        raise NotImplementedError

    def _announce(self, run: Run, valid: bool, output: Output) -> None:
        """Events (and any rollback) that follow settlement."""

    def _epilogue(self, run: Run, valid: bool, output: Output) -> None:
        """What the initiator owes parties outside the run once ``m3``
        has left."""

    def _tag(self, run: Run, name: str) -> str:
        """Evidence kind of one protocol step."""
        return name

    def _goes_busy(self, run: Run) -> bool:
        """Whether answering *run* blocks this replica until ``m3``: an
        accepted proposal must settle before the replica takes part in
        another run, or concurrent installs could diverge."""
        return run.own_decision.accepted

    def _set_active(self, run_id: "Optional[str]") -> None:
        self._active_run_id = run_id

    def _preapply(self, run: Run) -> None:
        """Commit the initiator to its own proposal (invariant 2)."""

    def _note_seen(self, new_id: Any) -> None:
        """Remember a proposal tuple for replay protection."""

    def _recover_seen(self) -> None:
        """Rebuild the replay window after a restart, from closed runs:
        an open one is noted when recovery registers it again."""

    def _aggregate_decisions(self, responses: "list[SignedPart]",
                             own_decision: "Decision | None" = None
                             ) -> "tuple[bool, list[str]]":
        """Group decision rule: unanimity (the paper's protocol).

        Extension engines (e.g. majority voting, section 7) override this
        single point; all systematic consistency checks stay mandatory.
        """
        return responses_unanimous(responses)

    def _may_install_despite_own_veto(self) -> bool:
        """Whether the decision rule can overrule a local veto.

        False for the unanimity rule; majority-voting extensions return
        True (a correctly behaving minority follows the majority).
        """
        return False

    def _require_complete_bundle(self) -> bool:
        """Whether ``m3`` must contain a response from every recipient.

        True for the unanimity rule (a missing response can never
        demonstrate unanimity); quorum-based extensions relax this so a
        run can terminate despite non-responders.
        """
        return True

    def _on_other(self, sender: str, message: dict) -> Output:
        """A message that belongs to no run of this machine."""
        output = Output()
        self._misbehaviour(
            output, sender, "unknown-message",
            f"unrecognised msg_type {message.get('msg_type')!r}",
        )
        return output

    # ------------------------------------------------------------------
    # run table
    # ------------------------------------------------------------------

    def __init__(self, ctx: PartyContext, object_name: str) -> None:
        super().__init__(ctx, object_name)
        # Open runs plus the last ``seen_window`` settled ones.
        self._runs: "dict[str, Run]" = {}
        self._settled: "deque[str]" = deque()
        self._active_run_id: "Optional[str]" = None
        # The run whose responses the decision-rule hooks are judging.
        self._deciding: "Optional[Run]" = None
        # Initiated runs by proposal digest (all a membership m2 carries)
        # and by the digest of the request that asked for them.
        self._by_digest: "dict[bytes, str]" = {}

    @property
    def busy(self) -> bool:
        return self._active_run_id is not None

    def active_run(self) -> "Optional[Run]":
        return self._runs.get(self._active_run_id)

    def run(self, run_id: str) -> "Optional[Run]":
        return self._runs.get(run_id)

    def runs(self) -> "list[Run]":
        return list(self._runs.values())

    def _run_id_of(self, new_id: Any) -> str:
        # m2 and m3 nearly always belong to the run in progress, whose
        # identifier (a hash of the same tuple) is already known.
        run = self.active_run()
        if run is not None and run.new_id == new_id:
            return run.run_id
        return hash_value(
            ["run", self._LABEL, self.object_name, new_id.to_dict()]).hex()

    def _new_run(self, role: str, proposal: SignedPart, new_id: Any,
                 **fields: Any) -> Run:
        now = self.ctx.clock.now()
        fields.setdefault("kind", self._LABEL)
        return Run(run_id=self._run_id_of(new_id), role=role,
                   proposal=proposal, new_id=new_id,
                   started_at=now, last_activity=now, **fields)

    @staticmethod
    def _digests(run: Run) -> "list[bytes]":
        return [part.digest() for part in (run.proposal, run.request)
                if part is not None]

    def _register(self, run: Run) -> None:
        self._runs[run.run_id] = run
        if run.role == self._INITIATOR:
            for digest in self._digests(run):
                self._by_digest[digest] = run.run_id
        self._note_seen(run.new_id)
        if self.ctx.obs.enabled:
            self.ctx.obs.run_started(self.party_id, self.object_name,
                                     run.run_id, run.role,
                                     run.mode or run.kind)

    def _retire(self, run: Run) -> None:
        """Keep of a settled run what a duplicate may ask for — its
        identity and outcome, and the message to send again: ``m3`` (and
        the final message) at the initiator, our ``m2`` at a responder —
        evicting the oldest.  The window holds thousands of runs per
        engine; everything else is in the evidence log."""
        run.body = run.new_state = run.state_encoded = None
        if run.role == self._RESPONDER:
            run.proposal = run.request = run.commit = None
        self._settled.append(run.run_id)
        while len(self._settled) > self.seen_window:
            old = self._runs.pop(self._settled.popleft(), None)
            for digest in self._digests(old) if old else ():
                self._by_digest.pop(digest, None)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def _send(self, run: Run, phase: str, message: dict,
              recipients: "list[str]", output: Output) -> None:
        """Queue one broadcast.  Its signed parts are in the evidence
        log already; nothing of it is journalled.

        One broadcast is one Lamport event: every recipient receives the
        same causal context, and the message dict (shared by all sends)
        gains exactly one unsigned ``trace_ctx`` field.  Re-sends
        re-enter here and stamp a fresh context — each transmission is a
        new event on the timeline.
        """
        obs = self.ctx.obs
        if obs.enabled:
            ctx = self.ctx.trace.begin_send(run.run_id)
            attach_trace_context(message, ctx.to_dict())
            size = approx_size_cached(message)
            for peer in recipients:
                obs.causal_message(
                    self.party_id, self.object_name, run.run_id, phase,
                    OBS_SENT, peer, ctx.trace_id, ctx.span_id, "", ctx.lamport,
                )
                obs.protocol_message(self.party_id, self.object_name,
                                     run.run_id, phase, OBS_SENT, size)
        output.broadcast(recipients, message)

    def _trace_receive(self, run_id: str, phase: str, sender: str,
                       message: dict) -> None:
        """Absorb the carried context of an inbound message and record it."""
        if not self.ctx.obs.enabled:
            return
        ctx = self.ctx.trace.receive(run_id, extract_trace_context(message))
        self.ctx.obs.causal_message(
            self.party_id, self.object_name, run_id, phase,
            OBS_RECEIVED, sender, ctx.trace_id, ctx.span_id,
            ctx.parent_span_id, ctx.lamport,
        )

    # ------------------------------------------------------------------
    # starting a run (initiator)
    # ------------------------------------------------------------------

    def _open_as_initiator(self, run: Run) -> None:
        run.recipients = self.group.recipients_excluding(
            self.party_id, *run.subjects)
        self._register(run)
        self._set_active(run.run_id)
        self._preapply(run)

    def _proposal_record(self, run: Run) -> dict:
        record = {"run_id": run.run_id, "proposal": run.proposal.encoded}
        if run.mode:
            record["mode"] = run.mode
        return record

    @staticmethod
    def _keep_body(run: Run, source: dict, body: Fragment) -> None:
        """Hash and privately copy the body *source* carries beside the
        proposal (state runs: the proposed state or update)."""
        if "body" in source:
            run.body_hash = hash_value(body)
            run.body = (from_canonical_bytes(body.data)
                        if source["body"] is not None else None)

    def _start_run(self, run: Run, keys: dict,
                   body: "Fragment | None" = None) -> Output:
        """Register *run*, log and journal it, and broadcast ``m1``.

        The ``run-keys`` record (notably the authenticator preimage, plus
        the policy's *keys*, beside a reference to the proposal in the
        ``proposal-sent`` entry) is what lets a full process restart
        resume the run; see :meth:`recover_runs`.  *body* is the
        encoding of ``run.body``, if the run has one.
        """
        output = Output()
        carried = {} if body is None else {"body": body}
        self._open_as_initiator(run)
        self._log_and_journal(
            self._tag(run, "proposal-sent"), self._proposal_record(run),
            run.run_id, SENT, self.party_id,
            {"msg_type": "run-keys", "object": self.object_name,
             "auth": run.auth, "proposal": run.proposal.to_dict(),
             **keys, **carried},
            proposal="proposal")
        self._send(run, PHASE_M1, self._m1_message(run), run.recipients,
                   output)
        if not run.recipients:
            # Nobody to ask: trivially unanimous.
            self._complete(run, output)
        return output

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------

    def handle(self, sender: str, message: dict) -> Output:
        """Process one inbound protocol message."""
        phase = self._PHASES.get(message.get("msg_type"))
        if phase is None:
            return self._on_other(sender, message)
        handler = getattr(self, _HANDLERS[phase])
        obs = self.ctx.obs
        if not obs.enabled:
            return handler(sender, message)
        obs.protocol_message(self.party_id, self.object_name, "",
                             phase, OBS_RECEIVED, approx_size_cached(message))
        started = time.perf_counter()
        output = handler(sender, message)
        obs.phase_handled(self.party_id, self.object_name, phase,
                          time.perf_counter() - started)
        return output

    # ------------------------------------------------------------------
    # m1: responder side
    # ------------------------------------------------------------------

    def _on_propose(self, sender: str, message: dict) -> Output:
        output = Output()
        proposal = self._parse_part(message, self._M1_KEY)
        if proposal is None:
            self._misbehaviour(output, sender, "malformed-message",
                               "unparseable proposal")
            return output
        payload = proposal.payload
        initiator = str(payload.get(self._INITIATOR, ""))
        if initiator != sender:
            self._misbehaviour(
                output, sender, "impersonation",
                f"proposal names {self._INITIATOR} {initiator!r} "
                f"but arrived from {sender!r}",
            )
            return output
        if not self._verify_part(proposal, initiator,
                                 f"{self._LABEL} proposal", output):
            return output
        try:
            run = self._new_run(
                self._RESPONDER, proposal,
                self._ID_TYPE.from_dict(payload[self._ID_KEY]))
            self._describe(run, message)
        except _MALFORMED:
            self._misbehaviour(output, initiator, "malformed-message",
                               "proposal missing required fields")
            return output
        self._trace_receive(run.run_id, PHASE_M1, sender, message)
        existing = self._runs.get(run.run_id)
        if existing is not None:
            # Idempotent re-handling of a duplicated / recovered m1.
            if existing.own_response is not None:
                self._send(existing, PHASE_M2, self._m2_message(existing),
                           [initiator], output)
            return output

        # One local encode of a received body serves its journal record,
        # its hash and the private copy the run keeps.
        body = Fragment(message.get("body"))
        self._log_and_journal(
            self._tag(run, "proposal-received"), self._proposal_record(run),
            run.run_id, RECEIVED, sender,
            dict(message, body=body) if "body" in message else message,
            **{self._M1_KEY: "proposal"})
        self._keep_body(run, message, body)

        decision = run.own_decision = self._evaluate(run)
        response = run.own_response = self._signed(
            self._response_payload(run, decision))
        self._register(run)
        if self.ctx.obs.enabled:
            self.ctx.obs.validation_decision(
                self.party_id, self.object_name, run.run_id,
                decision.accepted, list(decision.diagnostics),
            )
            decided = self.ctx.trace.local_event(run.run_id)
            self.ctx.obs.causal_decision(
                self.party_id, self.object_name, run.run_id,
                decided.trace_id, decided.lamport,
                decision.accepted, list(decision.diagnostics),
            )
        if self._goes_busy(run):
            self._set_active(run.run_id)

        self._log_evidence(self._tag(run, "response-sent"),
                           {"run_id": run.run_id, "response": response.encoded})
        self._send(run, PHASE_M2, self._m2_message(run), [initiator], output)
        return output

    # ------------------------------------------------------------------
    # m2: initiator side
    # ------------------------------------------------------------------

    def _on_respond(self, sender: str, message: dict) -> Output:
        output = Output()
        response = self._parse_part(message, self._M2_KEY)
        if response is None:
            self._misbehaviour(output, sender, "malformed-message",
                               "unparseable response")
            return output
        payload = response.payload
        responder = str(payload.get("responder", ""))
        if responder != sender:
            self._misbehaviour(
                output, sender, "impersonation",
                f"response names responder {responder!r} "
                f"but arrived from {sender!r}",
            )
            return output
        try:
            run_id = self._response_run_id(payload)
            digest = bytes(payload.get("proposal_digest", b""))
        except _MALFORMED:
            self._misbehaviour(output, responder, "malformed-message",
                               "response does not identify its run")
            return output
        if run_id:
            self._trace_receive(run_id, PHASE_M2, sender, message)
        run = self._runs.get(run_id)
        if (run is None and responder in self.group
                and (not run_id or self.ctx.journal.knows(run_id))):
            # Not in the run table, yet possibly ours: closed before a
            # restart, or retired since.  The logged decision still holds
            # the m3 a genuine responder of that run evidently missed.
            if not self._verify_part(response, responder,
                                     f"{self._LABEL} response", output, run_id):
                return output
            run = self._settled_run(
                lambda logged: hash_value(
                    logged["proposal"]["payload"]) == digest)
            if run is not None and responder not in run.recipients:
                return output  # it took no part in that run
        if run is None or run.role != self._INITIATOR:
            # A response to a run we never initiated: stale or forged.
            self._misbehaviour(
                output, responder, "unsolicited-response",
                f"no {self._INITIATOR} run {run_id[:12]}", run_id)
            return output
        if run.outcome is not None:
            # Settled: the responder missed m3 (e.g. it crashed and
            # recovered) — re-send it.
            if run.commit is not None:
                self._send(run, PHASE_M3, run.commit, [responder], output)
            return output
        if responder not in run.recipients:
            self._misbehaviour(
                output, responder, "unsolicited-response",
                "responder is not a recipient of this proposal", run_id)
            return output
        if not self._verify_part(response, responder,
                                 f"{run.kind} response", output, run_id):
            return output

        previous = run.responses.get(responder)
        if previous is not None:
            if previous.payload != payload:
                self._misbehaviour(
                    output, responder, "equivocation",
                    "two different signed responses for one proposal", run_id,
                )
            return output

        self._log_evidence(self._tag(run, "response-received"),
                           {"run_id": run_id, "response": response.encoded})
        run.responses[responder] = response
        run.last_activity = self.ctx.clock.now()

        if set(run.responses) == set(run.recipients):
            self._complete(run, output)
        return output

    def _complete(self, run: Run, output: Output) -> None:
        """All responses are in: compute the decision, emit ``m3``."""
        self._deciding = run
        responses = [run.responses[p] for p in run.recipients]
        valid, diagnostics = self._aggregate_decisions(responses)

        # Systematic cross-checks: every response must reference this exact
        # proposal and assert the body hash the initiator actually sent.
        expected_digest = run.proposal.digest()
        for part in responses:
            if bytes(part.payload.get("proposal_digest", b"")) != expected_digest:
                valid = False
                diagnostics.append(
                    f"{part.signer}: response references a different proposal")
            if run.body_hash and bytes(
                    part.payload.get("body_hash", b"")) != run.body_hash:
                valid = False
                diagnostics.append(
                    f"{part.signer}: body integrity assertion mismatch")

        run.commit = self._m3_message(run, responses)
        self._send(run, PHASE_M3, run.commit, run.recipients, output)
        self._log_evidence(
            self._tag(run, "commit-sent"),
            {"run_id": run.run_id, "valid": valid, "diagnostics": diagnostics},
        )
        self._settle(run, valid, diagnostics, output, responses)

    # ------------------------------------------------------------------
    # m3: responder side
    # ------------------------------------------------------------------

    def _on_commit(self, sender: str, message: dict) -> Output:
        output = Output()
        try:
            run_id = self._run_id_of(
                self._ID_TYPE.from_dict(message[self._ID_KEY]))
        except _MALFORMED:
            self._misbehaviour(output, sender, "malformed-message",
                               f"commit missing {self._ID_KEY}")
            return output
        self._trace_receive(run_id, PHASE_M3, sender, message)
        run = self._runs.get(run_id)

        proposal = self._parse_part(message, "proposal")
        if proposal is None:
            self._misbehaviour(output, sender, "malformed-message",
                               "commit without signed proposal", run_id)
            return output

        if run is None:
            if self.ctx.journal.is_open(run_id):
                # Ours, but recovery could not load it (see recover_runs):
                # say so rather than drop what it is waiting for.
                output.emit(RunBlocked(run_id, self.object_name, self._LABEL))
                return output
            if self.ctx.journal.knows(run_id):
                # A duplicate for a run closed before a restart, or
                # retired from the run table since.
                return output
            # We are seeing m3 for a run whose m1 never reached us: the
            # initiator selectively sent the proposal (section 4.4).  The
            # bundle itself proves the run happened without us.
            if self._verify_part(proposal, None, "commit proposal", output, run_id):
                self._misbehaviour(
                    output, str(proposal.payload.get(self._INITIATOR, sender)),
                    "selective-send",
                    "received commit for a proposal we were never sent", run_id,
                )
            return output
        if run.outcome is not None:
            return output  # duplicate m3: already settled
        if run.role != self._RESPONDER:
            self._misbehaviour(output, sender, "protocol-abuse",
                               "commit received for our own proposal", run_id)
            return output

        # Checking the bundle encodes each bundled part once, locally (a
        # part this run already holds not at all).  Nothing of m3 is
        # journalled: the decision evidence holds its parts.
        valid, diagnostics, responses = self._check_commit_bundle(
            run, message, proposal, output)
        run.commit = message
        self._log_evidence(
            self._tag(run, "commit-received"),
            {"run_id": run_id, "valid": valid, "diagnostics": diagnostics},
        )
        self._settle(run, valid, diagnostics, output, responses)
        return output

    def _check_commit_bundle(self, run: Run, message: dict,
                             embedded: SignedPart, output: Output
                             ) -> "tuple[bool, list[str], list[SignedPart]]":
        """Verify an ``m3`` evidence bundle (*embedded* is its parsed
        proposal) against our own run state.

        Verify-once rule: a bundled part equal in payload, signature and
        time-stamp token to one this run holds — the proposal verified at
        ``m1``, the response we signed — is that part, and the held
        object stands in for it, checked and encoded already.
        """
        self._deciding = run
        diagnostics: "list[str]" = []
        initiator = run.initiator

        if embedded.payload != run.proposal.payload:
            diagnostics.append("commit embeds a different proposal than we received")
            self._misbehaviour(output, initiator, "inconsistent-message",
                               "commit/proposal mismatch", run.run_id)
            return False, diagnostics, []

        auth = bytes(message.get("auth", b""))
        commitment = bytes(run.proposal.payload.get("auth_commitment", b""))
        if not verify_auth_preimage(auth, commitment):
            diagnostics.append("authenticator does not match the committed hash")
            self._misbehaviour(output, initiator, "forged-commit",
                               "invalid authenticator preimage", run.run_id)
            return False, diagnostics, []

        own = run.own_response
        try:
            responses = [SignedPart.from_dict(raw)
                         for raw in message.get("responses", [])]
        except _MALFORMED:
            diagnostics.append("malformed response in commit bundle")
            return False, diagnostics, []
        responses = [own if part == own else part for part in responses]

        expected_responders = set(self.group.recipients_excluding(
            initiator, *run.subjects))
        seen_responders: "set[str]" = set()
        expected_digest = run.proposal.digest()
        for part in responses:
            responder = str(part.payload.get("responder", ""))
            if responder == self.party_id:
                if own is None or part.payload != own.payload:
                    diagnostics.append("our own response was altered in the bundle")
                    self._misbehaviour(output, initiator, "evidence-tampering",
                                       "bundle alters our signed response", run.run_id)
                    return False, diagnostics, responses
            if part is not own and not self._verify_part(
                    part, responder, "bundled response", output, run.run_id):
                diagnostics.append(f"invalid signature on response by {responder!r}")
                return False, diagnostics, responses
            if bytes(part.payload.get("proposal_digest", b"")) != expected_digest:
                diagnostics.append(f"{responder}: response references a different proposal")
            seen_responders.add(responder)

        extra = sorted(seen_responders - expected_responders)
        if extra:
            diagnostics.append(f"bundle has responses from non-members {extra}")
            self._misbehaviour(output, initiator, "incomplete-bundle",
                               "; ".join(diagnostics), run.run_id)
            return False, diagnostics, responses
        missing = sorted(expected_responders - seen_responders)
        if missing and self._require_complete_bundle():
            diagnostics.append(f"bundle lacks responses from {missing}")
            self._misbehaviour(output, initiator, "incomplete-bundle",
                               "; ".join(diagnostics), run.run_id)
            return False, diagnostics, responses

        valid, veto_diags = self._aggregate_decisions(
            responses, run.own_decision
        )
        diagnostics.extend(veto_diags)

        # Cross-responder integrity: everyone must have received the same
        # body we did, or the initiator selectively sent different content.
        for part in responses:
            if run.body_hash and bytes(
                    part.payload.get("body_hash", b"")) != run.body_hash:
                valid = False
                detail = (
                    f"{part.signer} asserts a different body hash: "
                    "proposer sent divergent content"
                )
                diagnostics.append(detail)
                self._misbehaviour(output, initiator, "selective-send",
                                   detail, run.run_id)

        if (valid and not self._may_install_despite_own_veto()
                and run.own_decision is not None
                and not run.own_decision.accepted):
            # Defence in depth: a bundle can never make us install what
            # we vetoed; with signatures verified this cannot trigger.
            valid = False
            diagnostics.append("bundle claims unanimity but we vetoed")

        if valid and run.new_state is None:
            valid = False
            diagnostics.append("no verified state value available to install")

        return valid, diagnostics, responses

    # ------------------------------------------------------------------
    # settlement
    # ------------------------------------------------------------------

    def _settle(self, run: Run, valid: bool, diagnostics: "list[str]",
                output: Output,
                responses: "list[SignedPart] | None" = None) -> None:
        run.outcome = OUTCOME_VALID if valid else OUTCOME_INVALID
        run.diagnostics = diagnostics
        if self._active_run_id == run.run_id:
            self._set_active(None)
        if self.ctx.obs.enabled:
            self.ctx.obs.run_settled(
                self.party_id, self.object_name, run.run_id, run.role,
                run.outcome, self.ctx.clock.now() - run.started_at,
            )
            settled = self.ctx.trace.local_event(run.run_id)
            self.ctx.obs.causal_outcome(
                self.party_id, self.object_name, run.run_id,
                settled.trace_id, settled.lamport, run.role, run.outcome,
            )

        if responses is None:
            responses = [run.responses[p] for p in run.recipients
                         if p in run.responses]
        evidence = {
            "type": "authenticated-decision",
            "object": self.object_name,
            "run_id": run.run_id,
            "kind": run.kind,
            self._ID_KEY: run.new_id.to_dict(),
            "auth": run.auth if run.auth is not None else bytes(
                (run.commit or {}).get("auth", b"")
            ),
            "proposal": run.proposal.to_dict(),
            "responses": [part.to_dict() for part in responses],
            "valid": valid,
            "diagnostics": list(diagnostics),
        }
        # The event keeps plain data; the log entry splices the parts.
        self._log_evidence("authenticated-decision", spliced(
            evidence, proposal=run.proposal, responses=responses))
        # The evidence is logged and the run table keeps the parts for
        # bookkeeping only: drop the encodings they retain.
        for part in (run.proposal, run.request, run.own_response,
                     *run.responses.values()):
            if part is not None:
                part.release()

        if valid:
            self._install(run)
        # The close is the run's last record: recovery never looks at a
        # closed run again, so the decision evidence and the checkpoint
        # go first (a crash leaves a prefix of this order).
        self._close_journal(run.run_id, run.outcome)
        self._announce(run, valid, output)
        output.emit(RunCompleted(
            run_id=run.run_id,
            object_name=self.object_name,
            kind=run.kind,
            valid=valid,
            role=run.role,
            diagnostics=list(diagnostics),
            evidence=evidence,
        ))
        if run.commit is not None and run.role == self._INITIATOR:
            self._epilogue(run, valid, output)  # m3 has left
        self._retire(run)

    # ------------------------------------------------------------------
    # progress / recovery
    # ------------------------------------------------------------------

    def check_progress(self, timeout: float) -> Output:
        """Surface runs that have stalled beyond *timeout* seconds.

        The protocol deliberately cannot guarantee termination under
        misbehaviour (section 4.1); blocked runs carry the evidence needed
        for extra-protocol dispute resolution.
        """
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
        """Re-emit the messages an in-flight run is waiting to deliver.

        Used after crash recovery: peers de-duplicate at the engine level
        (known run ids are re-handled idempotently), so resending is safe.
        """
        output = Output()
        for run in self._runs.values():
            if run.outcome is None:
                self._resend(run, output)
        return output

    def _resend(self, run: Run, output: Output) -> None:
        if run.role == self._INITIATOR:
            self._send(run, PHASE_M1, self._m1_message(run),
                       run.waiting_on(), output)
        elif run.own_response is not None:
            self._send(run, PHASE_M2, self._m2_message(run),
                       [run.initiator], output)

    def recover_runs(self) -> Output:
        """Rebuild in-flight run state after a full process restart.

        The engine is expected to have been constructed from the latest
        checkpoint.  This method rebuilds the replay-protection window
        from the evidence log, resumes every open *initiator* run from its
        run-keys record (the authenticator preimage, and the proposal it
        names) and the responses logged before the crash, and re-drives
        every open *responder* run by re-handling its journalled ``m1``
        (deterministic validators yield byte-identical responses, which
        peers de-duplicate).

        A crash leaves a byte prefix of the party's one record file, and
        a run settles in the order decision evidence, checkpoint, journal
        close: an open run whose proposal the checkpoint holds lost only
        its close, and is closed from the decision evidence (the
        initiator delivers ``m3`` and its epilogue first — they never
        left).
        """
        output = Output()
        self._recover_seen()
        for run_id in sorted(self.ctx.journal.open_runs()):
            if run_id in self._runs:
                continue
            records = self.ctx.journal.messages(run_id)
            keys = next((r["message"] for r in records
                         if r["message"].get("msg_type") == "run-keys"), None)
            m1 = next((r for r in records if self._PHASES.get(
                r["message"].get("msg_type")) == PHASE_M1), None)
            if keys is not None:
                source = keys.get("proposal")
            elif m1 is not None:
                source = m1["message"].get(self._M1_KEY)
            else:
                continue
            try:
                proposal = SignedPart.from_dict(source)
                run = self._new_run(
                    self._INITIATOR, proposal,
                    self._ID_TYPE.from_dict(proposal.payload[self._ID_KEY]))
                if keys is not None:
                    run.auth = bytes(keys.get("auth", b""))
                    self._describe(run, keys)
                    self._keep_body(run, keys, Fragment(keys.get("body")))
            except _MALFORMED:
                continue
            if run.run_id != run_id:
                continue  # another engine's, or another object's, run
            installed = self._installed_id()
            if run.new_id == installed:
                self._finish_installed_run(run_id, output)
            elif keys is None:
                output.merge(self.handle(m1["peer"], m1["message"]))
            elif run.new_id.seq <= installed.seq:
                # The group moved on without this run; it can never win.
                self._close_journal(run_id, "stale")
            else:
                self._resume(run, output)
        return output

    def _resume(self, run: Run, output: Output) -> None:
        """Pick an initiated run up where its evidence ends: a logged
        response was verified before it was logged."""
        self._open_as_initiator(run)
        for entry in self.ctx.evidence.entries(
                self._tag(run, "response-received")):
            if entry.payload.get("run_id") == run.run_id:
                response = self._parse_part(entry.payload, "response")
                responder = response and str(response.payload.get("responder"))
                if responder in run.recipients:
                    run.responses.setdefault(responder, response)
        if set(run.responses) == set(run.recipients):
            self._complete(run, output)
        else:
            self._resend(run, output)

    def _finish_installed_run(self, run_id: str, output: Output) -> None:
        """Close an open run whose proposal is the checkpointed one."""
        run = self._settled_run(
            lambda logged: logged["run_id"] == run_id and logged["valid"])
        if run is None:
            # Not a prefix of what a handler appends (the decision
            # precedes the checkpoint); leave the run to the operator.
            return
        if run.role == self._INITIATOR:
            self._send(run, PHASE_M3, run.commit, run.recipients, output)
            self._epilogue(run, True, output)
        self._close_journal(run_id, OUTCOME_VALID)

    def _settled_run(self, match: "Callable[[dict], bool]") -> "Optional[Run]":
        """A settled run rebuilt from the first logged decision that
        *match* accepts: enough of it to re-issue ``m3`` and the
        epilogue after the run table lost it."""
        for entry in self.ctx.evidence.entries("authenticated-decision"):
            logged = entry.payload
            if (logged.get("object") != self.object_name
                    or self._ID_KEY not in logged or not match(logged)):
                continue
            proposal = SignedPart.from_dict(logged["proposal"])
            responses = [SignedPart.from_dict(raw)
                         for raw in logged["responses"]]
            run = self._new_run(
                self._INITIATOR if proposal.signer == self.party_id
                else self._RESPONDER,
                proposal, self._ID_TYPE.from_dict(logged[self._ID_KEY]),
                recipients=[part.signer for part in responses],
                responses={part.signer: part for part in responses},
                auth=bytes(logged["auth"]),
                outcome=OUTCOME_VALID if logged["valid"] else OUTCOME_INVALID,
            )
            self._describe(run, {})
            run.commit = self._m3_message(run, responses)
            return run
        return None
