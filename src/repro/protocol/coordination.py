"""The non-repudiable state coordination protocol (sections 4.3 and 4.4).

In essence the protocol is non-repudiable two-phase commit over object
replicas:

1. ``m1`` — the proposer sends every other member a signed proposal plus
   the proposed new state (overwrite) or update.  The proposer is
   committed to acceptance from this point and *pre-applies* the state
   (invariant 2); it cannot later unilaterally reject the transition.
2. ``m2`` — each recipient runs the systematic invariant checks and its
   local application validation, and returns a signed receipt + decision.
3. ``m3`` — the proposer aggregates the signed proposal, every signed
   response and the random authenticator whose hash it committed to in
   ``m1``.  Any party can compute the group decision over the bundle: the
   new state is valid iff every decision is accept.  ``m3`` carries no
   signature — only the proposer can produce the authenticator preimage.

The engine is sans-IO: :meth:`StateCoordinationEngine.handle` consumes a
message and returns an :class:`~repro.protocol.events.Output` of messages
to transmit and events to surface.  Every message is journalled for
recovery and logged as non-repudiation evidence before it is acted on.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.crypto.hashing import hash_value
from repro.errors import ConcurrencyError, ProtocolError
from repro.obs.hooks import (
    PHASE_M1,
    PHASE_M2,
    PHASE_M3,
    RECEIVED,
    SENT,
    approx_size_cached,
)
from repro.protocol.context import PartyContext
from repro.protocol.engine_base import EngineBase
from repro.protocol.events import (
    Output,
    RunBlocked,
    RunCompleted,
    StateInstalled,
    StateRolledBack,
)
from repro.protocol.group import GroupView
from repro.protocol.ids import StateId, initial_state_id, new_state_id
from repro.protocol.messages import (
    COMMIT,
    MODE_OVERWRITE,
    MODE_UPDATE,
    MODE_UPDATE_BATCH,
    PROPOSE,
    RESPOND,
    SignedPart,
    build_proposal,
    build_response,
    commit_message,
    propose_message,
    respond_message,
    responses_unanimous,
    spliced,
    UPDATE_MODES,
    verify_auth_preimage,
)
from repro.protocol.validation import Decision, StateMerger, Validator
from repro.util.encoding import Fragment, freeze, from_canonical_bytes

AUTH_BYTES = 32

ROLE_PROPOSER = "proposer"
ROLE_RESPONDER = "responder"

OUTCOME_VALID = "valid"
OUTCOME_INVALID = "invalid"


def _frozen(value: Any) -> "tuple[Any, Fragment]":
    """:func:`freeze` that also keeps the encoding the copy came from.

    A proposed body or state is hashed, journalled and sent right after
    it is copied; the fragment lets all of those reuse this one encode.
    """
    encoded = Fragment(value)
    return from_canonical_bytes(encoded.data), encoded


@dataclass
class RunState:
    """Book-keeping for one protocol run at one party."""

    run_id: str
    role: str
    proposal: SignedPart
    body: Any
    body_hash: bytes  # H(body) as sent (proposer) or as received (responder)
    new_sid: StateId
    new_state: Any
    mode: str
    recipients: "list[str]"
    auth: "Optional[bytes]" = None  # proposer only
    responses: "dict[str, SignedPart]" = field(default_factory=dict)
    own_response: "Optional[SignedPart]" = None  # responder only
    own_decision: "Optional[Decision]" = None
    commit: "Optional[dict]" = None
    outcome: "Optional[str]" = None
    diagnostics: "list[str]" = field(default_factory=list)
    started_at: float = 0.0
    last_activity: float = 0.0

    @property
    def proposer(self) -> str:
        return str(self.proposal.payload["proposer"])

    def waiting_on(self) -> "list[str]":
        if self.outcome is not None:
            return []
        if self.role == ROLE_PROPOSER:
            return [p for p in self.recipients if p not in self.responses]
        return [self.proposer]  # responder waits for m3


class StateCoordinationEngine(EngineBase):
    """One party's state-coordination engine for one shared object."""

    #: Replay-protection window (invariant 4): how many recently seen
    #: proposal tuples are remembered.  A long-lived object sees one tuple
    #: per proposal, so the set must not grow without bound; the window
    #: mirrors the reliable layer's dedup window.  Evicting an old tuple
    #: is safe because invariant 3 independently rejects any proposal
    #: whose sequence number does not exceed the agreed one — the window
    #: only needs to cover tuples that could still pass that check.
    seen_window: int = 4096

    def __init__(self, ctx: PartyContext, group: GroupView,
                 initial_state: Any,
                 validator: "Validator | None" = None,
                 merger: "StateMerger | None" = None,
                 reject_null_transitions: bool = True,
                 initial_sid: "StateId | None" = None) -> None:
        super().__init__(ctx, group.object_name)
        self.group = group
        self.validator = validator or Validator()
        self.merger = merger or StateMerger()
        self.reject_null_transitions = reject_null_transitions

        self.agreed_state: Any = freeze(initial_state)
        # Founding members derive the genesis identifier; a member admitted
        # later adopts the agreed identifier transferred in the welcome.
        self.agreed_sid: StateId = initial_sid or initial_state_id(self.agreed_state)
        self.current_state: Any = freeze(initial_state)
        self.current_sid: StateId = self.agreed_sid

        self.highest_seq_seen: int = self.agreed_sid.seq
        self._seen_proposal_keys: "set[bytes]" = set()
        self._seen_proposal_order: "deque[bytes]" = deque()
        self._runs: "dict[str, RunState]" = {}
        self._active_run_id: "Optional[str]" = None
        # Membership engine sets this while a membership change is being
        # coordinated; new state proposals are rejected meanwhile.
        self.membership_change_active: bool = False

        if not self.agreed_sid.matches_state(self.agreed_state):
            raise ProtocolError("initial state does not match its identifier")
        latest = self.ctx.checkpoints.latest(self.object_name)
        if latest is None or self.agreed_sid.seq > latest.sequence:
            self.ctx.checkpoints.save(
                self.object_name, self.agreed_sid.to_dict(), self.agreed_state
            )

    # ------------------------------------------------------------------
    # public queries
    # ------------------------------------------------------------------

    @property
    def party_id(self) -> str:
        return self.ctx.party_id

    @property
    def busy(self) -> bool:
        return self._active_run_id is not None

    def active_run(self) -> "Optional[RunState]":
        if self._active_run_id is None:
            return None
        return self._runs.get(self._active_run_id)

    def run(self, run_id: str) -> "Optional[RunState]":
        return self._runs.get(run_id)

    def runs(self) -> "list[RunState]":
        return list(self._runs.values())

    # ------------------------------------------------------------------
    # proposing (sections 4.3, 4.3.1)
    # ------------------------------------------------------------------

    def propose_overwrite(self, new_state: Any) -> "tuple[str, Output]":
        """Initiate coordination of a full-state overwrite."""
        new_state, encoded = _frozen(new_state)
        return self._propose(MODE_OVERWRITE, new_state, new_state,
                             encoded, encoded)

    def propose_update(self, update: Any) -> "tuple[str, Output]":
        """Initiate coordination of an incremental update.

        The resulting state is computed by the configured merger; the
        proposal carries both ``H(update)`` and ``H(S_new)`` so recipients
        can verify that applying the agreed update yields a consistent
        new state (section 4.3.1).
        """
        update, body_encoded = _frozen(update)
        new_state, state_encoded = _frozen(
            self.merger.apply(self.current_state, update))
        return self._propose(MODE_UPDATE, update, new_state,
                             body_encoded, state_encoded)

    def propose_update_batch(self, updates: "list[Any]") -> "tuple[str, Output]":
        """Initiate coordination of an ordered batch of updates.

        The batch is one protocol run: the m1 body is the ordered list of
        update values, applied left-to-right through the merger as a
        single state transition with one state identifier and one
        signature per phase.  Recipients recompute every intermediate
        state and validate each step, so a batch is exactly as auditable
        as the equivalent sequence of single-update runs at a third of
        the messages per update (amortised).
        """
        if not updates:
            raise ValueError("an update batch must contain at least one update")
        frozen = [_frozen(update) for update in updates]
        body = [update for update, _ in frozen]
        new_state, state_encoded = self.current_state, None
        for update in body:
            new_state, state_encoded = _frozen(
                self.merger.apply(new_state, update))
        return self._propose(
            MODE_UPDATE_BATCH, body, new_state,
            Fragment([encoded for _, encoded in frozen]), state_encoded)

    def _propose(self, mode: str, body: Any, new_state: Any,
                 body_encoded: Fragment,
                 state_encoded: Fragment) -> "tuple[str, Output]":
        """Start a run; the fragments are the encodings *body* and
        *new_state* were frozen through."""
        if self.busy:
            raise ConcurrencyError(
                f"{self.party_id}: a coordination run is already active"
            )
        if self.membership_change_active:
            raise ConcurrencyError(
                f"{self.party_id}: a membership change is in progress"
            )
        output = Output()
        new_sid, _nonce = new_state_id(self.highest_seq_seen, state_encoded,
                                       self.ctx.rng)
        auth = self.ctx.rng.random_bytes(AUTH_BYTES)
        body_hash = hash_value(body_encoded)
        update_hash = body_hash if mode in UPDATE_MODES else None
        proposal_payload = build_proposal(
            proposer=self.party_id,
            object_name=self.object_name,
            gid=self.group.group_id,
            agreed_sid=self.agreed_sid,
            new_sid=new_sid,
            auth_commitment=hash_value(auth),
            mode=mode,
            update_hash=update_hash,
        )
        proposal = self._signed(proposal_payload)
        run_id = self._state_run_id(new_sid)
        recipients = self.group.others(self.party_id)
        now = self.ctx.clock.now()
        run = RunState(
            run_id=run_id,
            role=ROLE_PROPOSER,
            proposal=proposal,
            body=body,
            body_hash=body_hash,
            new_sid=new_sid,
            new_state=new_state,
            mode=mode,
            recipients=recipients,
            auth=auth,
            started_at=now,
            last_activity=now,
        )
        self._runs[run_id] = run
        self._active_run_id = run_id
        self._note_proposal_seen(new_sid)
        if self.ctx.obs.enabled:
            self.ctx.obs.run_started(self.party_id, self.object_name,
                                     run_id, ROLE_PROPOSER, mode)
            if mode == MODE_UPDATE_BATCH:
                self.ctx.obs.batch_proposed(self.party_id, self.object_name,
                                            run_id, len(body))

        # Invariant 2: the proposer's current state is the proposed state.
        self.current_state = new_state
        self.current_sid = new_sid

        # Journal the run's private material (notably the authenticator
        # preimage) so a full process restart can resume the run; see
        # recover_runs().
        self._journal_sent(run_id, self.party_id, {
            "msg_type": "run-keys",
            "object": self.object_name,
            "auth": auth,
            "mode": mode,
            "body": body_encoded,
            "new_state": state_encoded,
            "proposal": proposal.encoded,
        })
        self._log_evidence(
            "proposal-sent",
            {"run_id": run_id, "proposal": proposal.encoded, "mode": mode},
        )
        message = propose_message(proposal, body)
        self._trace_send(run_id, PHASE_M1, message, recipients)
        stored = spliced(message, proposal=proposal, body=body_encoded)
        for recipient in recipients:
            self._journal_sent(run_id, recipient, stored)
            output.send(recipient, message)
        self._obs_message(run_id, PHASE_M1, SENT, message,
                          count=len(recipients))

        if not recipients:
            # Singleton group: trivially unanimous.
            self._complete_as_proposer(run, output)
        return run_id, output

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------

    _PHASE_BY_TYPE = {PROPOSE: PHASE_M1, RESPOND: PHASE_M2, COMMIT: PHASE_M3}

    def handle(self, sender: str, message: dict) -> Output:
        """Process one inbound protocol message."""
        obs = self.ctx.obs
        if not obs.enabled:
            return self._dispatch(sender, message)
        phase = self._PHASE_BY_TYPE.get(message.get("msg_type"))
        if phase is not None:
            obs.protocol_message(self.party_id, self.object_name, "",
                                 phase, RECEIVED, approx_size_cached(message))
        started = time.perf_counter()
        output = self._dispatch(sender, message)
        if phase is not None:
            obs.phase_handled(self.party_id, self.object_name, phase,
                              time.perf_counter() - started)
        return output

    def _dispatch(self, sender: str, message: dict) -> Output:
        msg_type = message.get("msg_type")
        if msg_type == PROPOSE:
            return self._on_propose(sender, message)
        if msg_type == RESPOND:
            return self._on_respond(sender, message)
        if msg_type == COMMIT:
            return self._on_commit(sender, message)
        output = Output()
        self._misbehaviour(
            output, sender, "unknown-message",
            f"unrecognised msg_type {msg_type!r}",
        )
        return output

    # ------------------------------------------------------------------
    # m1: responder side
    # ------------------------------------------------------------------

    def _on_propose(self, sender: str, message: dict) -> Output:
        output = Output()
        proposal = self._parse_part(message, "proposal")
        if proposal is None:
            self._misbehaviour(output, sender, "malformed-message", "unparseable proposal")
            return output
        payload = proposal.payload
        proposer = str(payload.get("proposer", ""))
        if proposer != sender:
            self._misbehaviour(
                output, sender, "impersonation",
                f"proposal names proposer {proposer!r} but arrived from {sender!r}",
            )
            return output
        if not self._verify_part(proposal, proposer, "state proposal", output):
            return output

        try:
            new_sid = StateId.from_dict(payload["new_sid"])
            claimed_agreed = StateId.from_dict(payload["agreed_sid"])
            mode = str(payload["mode"])
        except (KeyError, TypeError, ValueError):
            self._misbehaviour(
                output, proposer, "malformed-message",
                "proposal missing required fields", "",
            )
            return output

        run_id = self._state_run_id(new_sid)
        self._trace_receive(run_id, PHASE_M1, sender, message)
        existing = self._runs.get(run_id)
        if existing is not None:
            return self._replay_responder_messages(existing, output)

        # One local encode of the received body serves its journal
        # record, its hash and the private copy the run keeps.
        body = message.get("body")
        body_encoded = Fragment(body)
        self._journal_received(
            run_id, sender,
            spliced(message, proposal=proposal, body=body_encoded))
        self._log_evidence(
            "proposal-received",
            {"run_id": run_id, "proposal": proposal.encoded, "mode": mode},
        )

        body_hash = hash_value(body_encoded)
        decision, new_state = self._evaluate_proposal(
            proposer, payload, new_sid, claimed_agreed, mode, body, body_hash
        )
        response_payload = build_response(
            responder=self.party_id,
            object_name=self.object_name,
            proposal_digest=proposal.digest(),
            new_sid=new_sid,
            body_hash=body_hash,
            decision=decision,
            gid=self.group.group_id,
            agreed_sid=self.agreed_sid,
            current_sid=self.current_sid,
        )
        response = self._signed(response_payload)
        now = self.ctx.clock.now()
        run = RunState(
            run_id=run_id,
            role=ROLE_RESPONDER,
            proposal=proposal,
            body=(from_canonical_bytes(body_encoded.data)
                  if body is not None else None),
            body_hash=body_hash,
            new_sid=new_sid,
            new_state=new_state,
            mode=mode,
            recipients=self.group.others(proposer),
            own_response=response,
            own_decision=decision,
            started_at=now,
            last_activity=now,
        )
        self._runs[run_id] = run
        self._note_proposal_seen(new_sid)
        if self.ctx.obs.enabled:
            self.ctx.obs.run_started(self.party_id, self.object_name,
                                     run_id, ROLE_RESPONDER, mode)
            self.ctx.obs.validation_decision(
                self.party_id, self.object_name, run_id,
                decision.accepted, list(decision.diagnostics),
            )
            decided = self.ctx.trace.local_event(run_id)
            self.ctx.obs.causal_decision(
                self.party_id, self.object_name, run_id,
                decided.trace_id, decided.lamport,
                decision.accepted, list(decision.diagnostics),
            )
        if decision.accepted:
            # An accepted proposal must settle before this replica takes
            # part in another run, or concurrent installs could diverge.
            self._active_run_id = run_id

        self._log_evidence(
            "response-sent", {"run_id": run_id, "response": response.encoded}
        )
        reply = respond_message(response)
        self._trace_send(run_id, PHASE_M2, reply, [proposer])
        self._journal_sent(run_id, proposer, spliced(reply, response=response))
        output.send(proposer, reply)
        self._obs_message(run_id, PHASE_M2, SENT, reply)
        return output

    def _replay_responder_messages(self, run: RunState, output: Output) -> Output:
        """Idempotent re-handling of a duplicated / recovered ``m1``."""
        if run.role == ROLE_RESPONDER and run.own_response is not None:
            reply = respond_message(run.own_response)
            self._trace_send(run.run_id, PHASE_M2, reply, [run.proposer])
            output.send(run.proposer, reply)
            self._obs_message(run.run_id, PHASE_M2, SENT, reply)
        return output

    def _evaluate_proposal(self, proposer: str, payload: dict, new_sid: StateId,
                           claimed_agreed: StateId, mode: str,
                           body: Any, body_hash: bytes) -> "tuple[Decision, Any]":
        """Systematic checks (section 4.2 invariants) + application upcall.

        Returns the decision and, when computable, the resulting state.
        *body_hash* is ``H(body)`` over the body as received.
        """
        diagnostics: "list[str]" = []

        if proposer not in self.group:
            diagnostics.append(f"proposer {proposer!r} is not a group member")
        gid = payload.get("gid")
        if gid != self.group.group_id.to_dict():
            diagnostics.append("inconsistent group identifier")

        if self.membership_change_active:
            diagnostics.append("busy: membership change in progress")
        elif self.busy:
            diagnostics.append("busy: concurrent coordination run active")

        # Invariant 1: our current state is our agreed state, and matches
        # the agreed state claimed by the proposer.
        if self.current_sid != self.agreed_sid:
            diagnostics.append("invariant-1: replica is mid-transition")
        if claimed_agreed != self.agreed_sid:
            diagnostics.append(
                "invariant-1: proposer's agreed state "
                f"{claimed_agreed.short()} != ours {self.agreed_sid.short()}"
            )
        # Invariant 3: the proposed sequence number must advance.
        if new_sid.seq <= self.agreed_sid.seq:
            diagnostics.append(
                f"invariant-3: seq {new_sid.seq} does not exceed agreed {self.agreed_sid.seq}"
            )
        # Invariant 4: the proposal tuple must be unique among all seen.
        if self._proposal_key(new_sid) in self._seen_proposal_keys:
            diagnostics.append("invariant-4: proposal tuple replayed")

        # While this replica is mid-transition (busy, or lagging behind a
        # commit in flight) its current state is not the agreed baseline
        # the proposer computed against, so re-applying an update here
        # would fail for reasons that are pure contention, not evidence
        # of a bad proposal.  The proposal is already rejected with the
        # transient diagnostics above; skip the meaningless recompute so
        # the veto stays recognisably benign (and retryable).
        contended = any(
            diag.startswith("busy:") or diag.startswith("invariant-1:")
            for diag in diagnostics
        )

        new_state: Any = None
        # For batches: the recomputed (pre_state, update, post_state) of
        # every step, so application validation can judge each step
        # against the state it actually transforms.
        batch_steps: "list[tuple[Any, Any, Any]]" = []
        if mode == MODE_OVERWRITE:
            if new_sid.state_hash != body_hash:
                diagnostics.append("body hash does not match proposed state identifier")
            else:
                new_state = freeze(body)
        elif mode == MODE_UPDATE_BATCH:
            update_hash = payload.get("update_hash")
            if not isinstance(body, list) or not body:
                diagnostics.append("batch body must be a non-empty list of updates")
            elif body_hash != update_hash:
                diagnostics.append("update hash does not match received batch")
            elif not contended:
                state = self.current_state
                for index, update in enumerate(body):
                    try:
                        candidate, encoded = _frozen(
                            self.merger.apply(state, update))
                    except Exception as exc:  # noqa: BLE001 - app merge may fail
                        diagnostics.append(
                            f"batch[{index}]: update could not be applied: {exc}"
                        )
                        break
                    batch_steps.append((state, update, candidate))
                    state = candidate
                else:
                    if not new_sid.matches_state(encoded):
                        diagnostics.append(
                            "applying the batch does not yield the claimed new state"
                        )
                    else:
                        new_state = state
        elif mode == MODE_UPDATE:
            update_hash = payload.get("update_hash")
            if body_hash != update_hash:
                diagnostics.append("update hash does not match received update")
            elif not contended:
                try:
                    candidate, encoded = _frozen(
                        self.merger.apply(self.current_state, body))
                except Exception as exc:  # noqa: BLE001 - app merge may fail
                    candidate = None
                    diagnostics.append(f"update could not be applied: {exc}")
                if candidate is not None:
                    if not new_sid.matches_state(encoded):
                        diagnostics.append(
                            "applying the update does not yield the claimed new state"
                        )
                    else:
                        new_state = candidate
        else:
            diagnostics.append(f"unknown proposal mode {mode!r}")

        # Null transition check (section 4.4): S_new == S_current.
        if (self.reject_null_transitions
                and new_sid.state_hash == self.agreed_sid.state_hash):
            diagnostics.append("null state transition")

        if diagnostics:
            return Decision.reject(*diagnostics), new_state

        # Application-specific validation upcall.  A batch is validated
        # step by step against the recomputed intermediate states: every
        # step must pass the same policy a single-update run would face.
        if mode == MODE_UPDATE_BATCH:
            step_diagnostics: "list[str]" = []
            for index, (pre_state, update, post_state) in enumerate(batch_steps):
                step = self.validator.validate_update(
                    update, post_state, pre_state, proposer
                )
                if not step.accepted:
                    for diag in step.diagnostics or ("rejected",):
                        step_diagnostics.append(f"batch[{index}]: {diag}")
            decision = (Decision.reject(*step_diagnostics)
                        if step_diagnostics else Decision.accept())
        elif mode == MODE_UPDATE:
            decision = self.validator.validate_update(
                body, new_state, self.current_state, proposer
            )
        else:
            decision = self.validator.validate_state(
                new_state, self.current_state, proposer
            )
        return decision, new_state

    # ------------------------------------------------------------------
    # m2: proposer side
    # ------------------------------------------------------------------

    def _on_respond(self, sender: str, message: dict) -> Output:
        output = Output()
        response = self._parse_part(message, "response")
        if response is None:
            self._misbehaviour(output, sender, "malformed-message", "unparseable response")
            return output
        payload = response.payload
        responder = str(payload.get("responder", ""))
        if responder != sender:
            self._misbehaviour(
                output, sender, "impersonation",
                f"response names responder {responder!r} but arrived from {sender!r}",
            )
            return output

        try:
            new_sid = StateId.from_dict(payload["new_sid"])
        except (KeyError, TypeError, ValueError):
            self._misbehaviour(output, responder, "malformed-message",
                               "response missing state identifier")
            return output
        run_id = self._state_run_id(new_sid)
        self._trace_receive(run_id, PHASE_M2, sender, message)
        run = self._runs.get(run_id)
        commit = (self._journalled_commit(run_id, responder)
                  if run is None else None)
        if commit is not None:
            # A run we closed before a restart: the responder evidently
            # missed m3, which the journal still holds.
            if self._verify_part(response, responder, "state response",
                                 output, run_id):
                self._trace_send(run_id, PHASE_M3, commit, [responder])
                output.send(responder, commit)
                self._obs_message(run_id, PHASE_M3, SENT, commit)
            return output
        if run is None or run.role != ROLE_PROPOSER:
            # A response to a run we never proposed: either stale or forged.
            self._misbehaviour(output, responder, "unsolicited-response",
                               f"no proposer run {run_id[:12]}", run_id)
            return output
        if run.outcome is not None:
            # Run already settled: the responder evidently missed m3
            # (e.g. it crashed and recovered) — re-send it.
            if run.commit is not None:
                self._trace_send(run_id, PHASE_M3, run.commit, [responder])
                output.send(responder, run.commit)
                self._obs_message(run_id, PHASE_M3, SENT, run.commit)
            return output
        if responder not in run.recipients:
            self._misbehaviour(output, responder, "unsolicited-response",
                               "responder is not a recipient of this proposal", run_id)
            return output
        if not self._verify_part(response, responder, "state response", output, run_id):
            return output

        previous = run.responses.get(responder)
        if previous is not None:
            if previous.payload != payload:
                self._misbehaviour(
                    output, responder, "equivocation",
                    "two different signed responses for one proposal", run_id,
                )
            return output

        self._journal_received(run_id, responder,
                               spliced(message, response=response))
        self._log_evidence(
            "response-received", {"run_id": run_id, "response": response.encoded}
        )
        run.responses[responder] = response
        run.last_activity = self.ctx.clock.now()

        if set(run.responses) == set(run.recipients):
            self._complete_as_proposer(run, output)
        return output

    def _journalled_commit(self, run_id: str,
                           recipient: str) -> "Optional[dict]":
        """The ``m3`` this party journalled as sent to *recipient*."""
        if not self.ctx.journal.knows(run_id):
            return None  # spare the scan for runs that were never ours
        for record in self.ctx.journal.messages(run_id):
            if (record["direction"] == SENT and record["peer"] == recipient
                    and record["message"].get("msg_type") == COMMIT):
                return record["message"]
        return None

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

    def force_completion(self, run_id: str) -> Output:
        """Proposer-side forced settlement with the responses received.

        Supports deadline/quorum termination extensions (section 7): the
        commit is issued over the partial response set and the decision
        rule aggregates whatever evidence exists.  Under the base
        unanimity rule a partial set always yields *invalid*.
        """
        output = Output()
        run = self._runs.get(run_id)
        if run is None or run.role != ROLE_PROPOSER or run.outcome is not None:
            return output
        missing = [p for p in run.recipients if p not in run.responses]
        if missing and self._require_complete_bundle():
            # Unanimity can never be demonstrated from a partial response
            # set: settle as invalid (local fail-safe abort).
            self._settle(run, False,
                         [f"aborted: no response from {missing}"], output)
            return output
        run.recipients = [p for p in run.recipients if p in run.responses]
        self._complete_as_proposer(run, output)
        return output

    def _complete_as_proposer(self, run: RunState, output: Output) -> None:
        """All responses are in: compute the decision, emit ``m3``."""
        responses = [run.responses[p] for p in run.recipients]
        unanimous, diagnostics = self._aggregate_decisions(responses)

        # Systematic cross-checks: every response must reference this exact
        # proposal and assert the body hash the proposer actually sent.
        expected_digest = run.proposal.digest()
        for part in responses:
            if bytes(part.payload.get("proposal_digest", b"")) != expected_digest:
                unanimous = False
                diagnostics.append(f"{part.signer}: response references a different proposal")
            if bytes(part.payload.get("body_hash", b"")) != run.body_hash:
                unanimous = False
                diagnostics.append(f"{part.signer}: body integrity assertion mismatch")

        commit = commit_message(
            self.object_name, run.new_sid, run.auth or b"", run.proposal, responses
        )
        run.commit = commit
        self._trace_send(run.run_id, PHASE_M3, commit, run.recipients)
        stored = spliced(commit, proposal=run.proposal, responses=responses)
        for recipient in run.recipients:
            self._journal_sent(run.run_id, recipient, stored)
            output.send(recipient, commit)
        self._obs_message(run.run_id, PHASE_M3, SENT, commit,
                          count=len(run.recipients))
        self._log_evidence(
            "commit-sent",
            {"run_id": run.run_id, "valid": unanimous, "diagnostics": diagnostics},
        )
        self._settle(run, unanimous, diagnostics, output)

    # ------------------------------------------------------------------
    # m3: responder side
    # ------------------------------------------------------------------

    def _on_commit(self, sender: str, message: dict) -> Output:
        output = Output()
        try:
            new_sid = StateId.from_dict(message["new_sid"])
        except (KeyError, TypeError, ValueError):
            self._misbehaviour(output, sender, "malformed-message",
                               "commit missing state identifier")
            return output
        run_id = self._state_run_id(new_sid)
        self._trace_receive(run_id, PHASE_M3, sender, message)
        run = self._runs.get(run_id)

        proposal = self._parse_part(message, "proposal")
        if proposal is None:
            self._misbehaviour(output, sender, "malformed-message",
                               "commit without signed proposal", run_id)
            return output

        if run is None:
            # We are seeing m3 for a run whose m1 never reached us: the
            # proposer selectively sent the proposal (section 4.4).  The
            # bundle itself proves the run happened without us.
            if self._verify_part(proposal, None, "commit proposal", output, run_id):
                self._misbehaviour(
                    output, str(proposal.payload.get("proposer", sender)),
                    "selective-send",
                    "received commit for a proposal we were never sent", run_id,
                )
            return output
        if run.outcome is not None:
            return output  # duplicate m3: already settled
        if run.role != ROLE_RESPONDER:
            self._misbehaviour(output, sender, "protocol-abuse",
                               "commit received for our own proposal", run_id)
            return output

        # Checking the bundle encodes each bundled part once, locally; the
        # journal record splices those encodings.  It is still written
        # before the commit is acted on (nothing settles above this line),
        # and a bundle that failed its checks is journalled as received.
        valid, diagnostics, responses = self._check_commit_bundle(run, message, output)
        self._journal_received(run_id, sender, spliced(
            message, proposal=run.proposal, responses=responses))
        run.commit = message
        self._log_evidence(
            "commit-received",
            {"run_id": run_id, "valid": valid, "diagnostics": diagnostics},
        )
        self._settle(run, valid, diagnostics, output, responses)
        return output

    def _check_commit_bundle(self, run: RunState, message: dict,
                             output: Output) -> "tuple[bool, list[str], list[SignedPart]]":
        """Verify an ``m3`` evidence bundle against our own run state."""
        diagnostics: "list[str]" = []
        proposer = run.proposer

        embedded = self._parse_part(message, "proposal")
        if embedded is None or embedded.payload != run.proposal.payload:
            diagnostics.append("commit embeds a different proposal than we received")
            self._misbehaviour(output, proposer, "inconsistent-message",
                               "commit/proposal mismatch", run.run_id)
            return False, diagnostics, []

        auth = bytes(message.get("auth", b""))
        commitment = bytes(run.proposal.payload.get("auth_commitment", b""))
        if not verify_auth_preimage(auth, commitment):
            diagnostics.append("authenticator does not match the committed hash")
            self._misbehaviour(output, proposer, "forged-commit",
                               "invalid authenticator preimage", run.run_id)
            return False, diagnostics, []

        raw_responses = message.get("responses", [])
        responses: "list[SignedPart]" = []
        for raw in raw_responses:
            try:
                responses.append(SignedPart.from_dict(raw))
            except (KeyError, TypeError, ValueError):
                diagnostics.append("malformed response in commit bundle")
                return False, diagnostics, []

        expected_responders = set(self.group.others(proposer))
        seen_responders: "set[str]" = set()
        expected_digest = run.proposal.digest()
        for part in responses:
            responder = str(part.payload.get("responder", ""))
            if responder == self.party_id:
                if run.own_response is None or part.payload != run.own_response.payload:
                    diagnostics.append("our own response was altered in the bundle")
                    self._misbehaviour(output, proposer, "evidence-tampering",
                                       "bundle alters our signed response", run.run_id)
                    return False, diagnostics, responses
            if not self._verify_part(part, responder, "bundled response",
                                     output, run.run_id):
                diagnostics.append(f"invalid signature on response by {responder!r}")
                return False, diagnostics, responses
            if bytes(part.payload.get("proposal_digest", b"")) != expected_digest:
                diagnostics.append(f"{responder}: response references a different proposal")
            seen_responders.add(responder)

        extra = sorted(seen_responders - expected_responders)
        if extra:
            diagnostics.append(f"bundle has responses from non-members {extra}")
            self._misbehaviour(output, proposer, "incomplete-bundle",
                               "; ".join(diagnostics), run.run_id)
            return False, diagnostics, responses
        missing = sorted(expected_responders - seen_responders)
        if missing and self._require_complete_bundle():
            diagnostics.append(f"bundle lacks responses from {missing}")
            self._misbehaviour(output, proposer, "incomplete-bundle",
                               "; ".join(diagnostics), run.run_id)
            return False, diagnostics, responses

        unanimous, veto_diags = self._aggregate_decisions(
            responses, run.own_decision
        )
        diagnostics.extend(veto_diags)

        # Cross-responder integrity: everyone must have received the same
        # body we did, or the proposer selectively sent different content.
        for part in responses:
            if bytes(part.payload.get("body_hash", b"")) != run.body_hash:
                unanimous = False
                detail = (
                    f"{part.signer} asserts a different body hash: "
                    "proposer sent divergent content"
                )
                diagnostics.append(detail)
                self._misbehaviour(output, proposer, "selective-send",
                                   detail, run.run_id)

        if (unanimous and not self._may_install_despite_own_veto()
                and run.own_decision is not None
                and not run.own_decision.accepted):
            # Defence in depth: a bundle can never make us install a state
            # we vetoed; with signatures verified this cannot trigger.
            unanimous = False
            diagnostics.append("bundle claims unanimity but we vetoed")

        if unanimous and run.new_state is None:
            unanimous = False
            diagnostics.append("no verified state value available to install")

        return unanimous, diagnostics, responses

    # ------------------------------------------------------------------
    # settlement
    # ------------------------------------------------------------------

    def _settle(self, run: RunState, valid: bool, diagnostics: "list[str]",
                output: Output,
                responses: "list[SignedPart] | None" = None) -> None:
        run.outcome = OUTCOME_VALID if valid else OUTCOME_INVALID
        run.diagnostics = diagnostics
        if self._active_run_id == run.run_id:
            self._active_run_id = None
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
            "kind": "state",
            "new_sid": run.new_sid.to_dict(),
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
        self._release(run.proposal, run.own_response, *run.responses.values())

        if valid:
            self.agreed_state = run.new_state
            self.agreed_sid = run.new_sid
            self.current_state = run.new_state
            self.current_sid = run.new_sid
            self.ctx.checkpoints.save(
                self.object_name, self.agreed_sid.to_dict(), self.agreed_state
            )
        # The close is the run's last record: recovery never looks at a
        # closed run again, so the decision evidence and the checkpoint
        # go first (the order PartyContext.commit syncs the files in).
        self._close_journal(run.run_id, run.outcome)
        if valid:
            output.emit(StateInstalled(
                object_name=self.object_name,
                state_id=self.agreed_sid.to_dict(),
                state=self.agreed_state,
                run_id=run.run_id,
            ))
        elif run.role == ROLE_PROPOSER:
            # Roll back the pre-applied state to the last agreed state.
            self.current_state = self.agreed_state
            self.current_sid = self.agreed_sid
            output.emit(StateRolledBack(
                object_name=self.object_name,
                state_id=self.agreed_sid.to_dict(),
                state=self.agreed_state,
                run_id=run.run_id,
            ))
        output.emit(RunCompleted(
            run_id=run.run_id,
            object_name=self.object_name,
            kind="state",
            valid=valid,
            role=run.role,
            diagnostics=list(diagnostics),
            evidence=evidence,
        ))

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
                    kind="state",
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
            if run.outcome is not None:
                continue
            if run.role == ROLE_PROPOSER:
                message = propose_message(run.proposal, run.body)
                waiting = run.waiting_on()
                self._trace_send(run.run_id, PHASE_M1, message, waiting)
                for recipient in waiting:
                    output.send(recipient, message)
                self._obs_message(run.run_id, PHASE_M1, SENT, message,
                                  count=len(waiting))
            elif run.own_response is not None:
                reply = respond_message(run.own_response)
                self._trace_send(run.run_id, PHASE_M2, reply, [run.proposer])
                output.send(run.proposer, reply)
                self._obs_message(run.run_id, PHASE_M2, SENT, reply)
        return output

    def recover_runs(self) -> Output:
        """Rebuild in-flight run state after a full process restart.

        The engine is expected to have been constructed from the latest
        checkpoint (agreed state + identifier).  This method then

        * rebuilds the replay-protection set from the evidence log;
        * resumes every open *proposer* run from the journalled run-keys
          record (which preserves the authenticator preimage), re-ingests
          the responses received before the crash and re-sends ``m1`` to
          the parties still owing one;
        * re-drives every open *responder* run by re-handling the
          journalled proposal (decisions are recomputed; deterministic
          validators yield byte-identical responses, which peers
          de-duplicate).

        The journal is the last file a commit barrier syncs, so a crash
        inside a barrier can leave it behind the evidence log and the
        checkpoints, never ahead of them:

        * evidence of a proposal whose run the journal does not know was
          cut off before anything was answered, and does not count as
          seen;
        * an open run whose state the checkpoint already holds was
          decided and installed; it is closed from the decision evidence
          (the proposer delivers ``m3`` first — it may never have left).
        """
        output = Output()
        self._recover_seen_proposals()
        for run_id in sorted(self.ctx.journal.open_runs()):
            if run_id in self._runs:
                continue
            if run_id == self._state_run_id(self.agreed_sid):
                self._finish_installed_run(run_id, output)
                continue
            messages = self.ctx.journal.messages(run_id)
            if not messages:
                continue
            run_keys = [m for m in messages
                        if m["message"].get("msg_type") == "run-keys"
                        and m["message"].get("object") == self.object_name]
            if run_keys:
                self._recover_proposer_run(run_id, run_keys[-1]["message"],
                                           messages, output)
                continue
            proposes = [m for m in messages
                        if m["direction"] == "received"
                        and m["message"].get("msg_type") == PROPOSE]
            for record in proposes:
                proposal = record["message"].get("proposal", {})
                payload = proposal.get("payload", {}) if isinstance(
                    proposal, dict) else {}
                if payload.get("object") != self.object_name:
                    continue
                # Re-driving our own open run is not a replay: lift its
                # tuple from the recovered seen-set for this one handling.
                try:
                    sid = StateId.from_dict(payload["new_sid"])
                    self._forget_proposal_seen(sid)
                except (KeyError, TypeError, ValueError):
                    pass
                output.merge(self.handle(record["peer"], record["message"]))
                break
        return output

    def _finish_installed_run(self, run_id: str, output: Output) -> None:
        """Close an open run whose new state is the checkpointed one."""
        decision = self.ctx.evidence.find(
            "authenticated-decision", run_id=run_id, valid=True)
        if decision is None:
            # Not reachable through a commit barrier (evidence is synced
            # before the checkpoint); leave the run to the operator.
            return
        proposal = SignedPart.from_dict(decision.payload["proposal"])
        if proposal.signer == self.party_id:
            responses = [SignedPart.from_dict(raw)
                         for raw in decision.payload["responses"]]
            recipients = [part.signer for part in responses]
            commit = commit_message(
                self.object_name, self.agreed_sid,
                bytes(decision.payload["auth"]), proposal, responses)
            self._trace_send(run_id, PHASE_M3, commit, recipients)
            for recipient in recipients:
                self._journal_sent(run_id, recipient, commit)
                output.send(recipient, commit)
            self._obs_message(run_id, PHASE_M3, SENT, commit,
                              count=len(recipients))
        self._close_journal(run_id, OUTCOME_VALID)

    def _recover_seen_proposals(self) -> None:
        for kind in ("proposal-sent", "proposal-received"):
            for entry in self.ctx.evidence.entries(kind):
                if not self.ctx.journal.knows(str(entry.payload.get("run_id"))):
                    continue
                proposal = entry.payload.get("proposal", {})
                payload = proposal.get("payload", {}) if isinstance(
                    proposal, dict) else {}
                if payload.get("object") != self.object_name:
                    continue
                try:
                    sid = StateId.from_dict(payload["new_sid"])
                except (KeyError, TypeError, ValueError):
                    continue
                self._note_proposal_seen(sid)

    def _recover_proposer_run(self, run_id: str, keys: dict,
                              messages: "list[dict]", output: Output) -> None:
        try:
            proposal = SignedPart.from_dict(keys["proposal"])
            new_sid = StateId.from_dict(proposal.payload["new_sid"])
        except (KeyError, TypeError, ValueError):
            self._close_journal(run_id, "unrecoverable")
            return
        if new_sid.seq <= self.agreed_sid.seq:
            # The group moved on without this run; it can never win.
            self._close_journal(run_id, "stale")
            return
        now = self.ctx.clock.now()
        run = RunState(
            run_id=run_id,
            role=ROLE_PROPOSER,
            proposal=proposal,
            body=keys.get("body"),
            body_hash=hash_value(keys.get("body")),
            new_sid=new_sid,
            new_state=keys.get("new_state"),
            mode=str(keys.get("mode", MODE_OVERWRITE)),
            recipients=self.group.others(self.party_id),
            auth=bytes(keys.get("auth", b"")),
            started_at=now,
            last_activity=now,
        )
        self._runs[run_id] = run
        self._active_run_id = run_id
        self._note_proposal_seen(new_sid)
        # Invariant 2 still holds: the proposer remains committed.
        self.current_state = run.new_state
        self.current_sid = new_sid
        # Re-ingest the responses that arrived before the restart.
        for record in messages:
            message = record["message"]
            if record["direction"] != "received" \
                    or message.get("msg_type") != RESPOND:
                continue
            response = self._parse_part(message, "response")
            if response is None:
                continue
            responder = str(response.payload.get("responder", ""))
            if responder in run.recipients and responder not in run.responses:
                if self._verify_part(response, responder,
                                     "recovered response", output, run_id):
                    run.responses[responder] = response
        if set(run.responses) == set(run.recipients):
            self._complete_as_proposer(run, output)
        else:
            message = propose_message(proposal, run.body)
            waiting = run.waiting_on()
            self._trace_send(run_id, PHASE_M1, message, waiting)
            for recipient in waiting:
                output.send(recipient, message)
            self._obs_message(run_id, PHASE_M1, SENT, message,
                              count=len(waiting))

    def abort_active_run(self, reason: str) -> Output:
        """Locally abandon a blocked run we proposed (fail-safe abort).

        The run is marked invalid locally and the proposer rolls back; the
        logged evidence still shows the run as unresolved group-wide.
        """
        output = Output()
        run = self.active_run()
        if run is None:
            return output
        self._settle(run, False, [f"aborted: {reason}"], output)
        return output

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _state_run_id(self, new_sid: StateId) -> str:
        # m2 and m3 nearly always belong to the run in progress, whose
        # identifier (a hash of the same tuple) is already known.
        run = self.active_run()
        if run is not None and run.new_sid == new_sid:
            return run.run_id
        return self._run_id("state", self.object_name, new_sid.to_dict())

    @staticmethod
    def _proposal_key(sid: StateId) -> bytes:
        return hash_value(["proposal-key", sid.seq, sid.rand_hash])

    def _note_proposal_seen(self, sid: StateId) -> None:
        key = self._proposal_key(sid)
        if key not in self._seen_proposal_keys:
            self._seen_proposal_keys.add(key)
            self._seen_proposal_order.append(key)
            while len(self._seen_proposal_order) > self.seen_window:
                self._seen_proposal_keys.discard(
                    self._seen_proposal_order.popleft()
                )
        if sid.seq > self.highest_seq_seen:
            self.highest_seq_seen = sid.seq

    def _forget_proposal_seen(self, sid: StateId) -> None:
        """Lift a tuple from the replay window (recovery re-drive only)."""
        key = self._proposal_key(sid)
        if key in self._seen_proposal_keys:
            self._seen_proposal_keys.discard(key)
            try:
                self._seen_proposal_order.remove(key)
            except ValueError:
                pass
