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

The three steps, their journalling, settlement and recovery are the run
machine of :mod:`repro.protocol.engine_base`;
:class:`StateCoordinationEngine` adds what is particular to object
state: building proposals, the section 4.2 invariants and the validation
upcall, and installing (or rolling back) the state.  The engine is
sans-IO: :meth:`StateCoordinationEngine.handle` consumes a message and
returns an :class:`~repro.protocol.events.Output` of messages to
transmit and events to surface.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.crypto.hashing import hash_value
from repro.errors import ConcurrencyError, ProtocolError
from repro.obs.hooks import PHASE_M1, PHASE_M2, PHASE_M3
from repro.protocol.context import PartyContext
from repro.protocol.engine_base import (  # noqa: F401 - re-exported
    AUTH_BYTES,
    OUTCOME_INVALID,
    OUTCOME_VALID,
    EngineBase,
    Run,
)
from repro.protocol.events import Output, StateInstalled, StateRolledBack
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
    UPDATE_MODES,
)
from repro.protocol.validation import Decision, StateMerger, Validator
from repro.util.encoding import Fragment, freeze, from_canonical_bytes

ROLE_PROPOSER = "proposer"
ROLE_RESPONDER = "responder"

#: A state run's record is the machine's :class:`Run` (``new_sid`` and
#: ``proposer`` are its ``new_id`` and ``initiator``).
RunState = Run


def _frozen(value: Any) -> "tuple[Any, Fragment]":
    """:func:`freeze` that also keeps the encoding the copy came from.

    A proposed body or state is hashed, journalled and sent right after
    it is copied; the fragment lets all of those reuse this one encode.
    """
    encoded = Fragment(value)
    return from_canonical_bytes(encoded.data), encoded


class StateCoordinationEngine(EngineBase):
    """One party's state-coordination engine for one shared object."""

    _LABEL = "state"
    _INITIATOR = ROLE_PROPOSER
    _RESPONDER = ROLE_RESPONDER
    _M1_KEY = "proposal"
    _M2_KEY = "response"
    _ID_KEY = "new_sid"
    _ID_TYPE = StateId
    _PHASES = {PROPOSE: PHASE_M1, RESPOND: PHASE_M2, COMMIT: PHASE_M3}

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

    # The e2e ledger wraps handle and the two propose_update* below where
    # this class body defines them; keep all three here.
    def handle(self, sender: str, message: dict) -> Output:
        """Process one inbound protocol message."""
        return super().handle(sender, message)

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
        new_sid, _nonce = new_state_id(self.highest_seq_seen, state_encoded,
                                       self.ctx.rng)
        auth = self.ctx.rng.random_bytes(AUTH_BYTES)
        body_hash = hash_value(body_encoded)
        proposal = self._signed(build_proposal(
            proposer=self.party_id,
            object_name=self.object_name,
            gid=self.group.group_id,
            agreed_sid=self.agreed_sid,
            new_sid=new_sid,
            auth_commitment=hash_value(auth),
            mode=mode,
            update_hash=body_hash if mode in UPDATE_MODES else None,
        ))
        run = self._new_run(
            ROLE_PROPOSER, proposal, new_sid, new_state=new_state,
            state_encoded=state_encoded, mode=mode, body=body,
            body_hash=body_hash, auth=auth)
        if mode == MODE_UPDATE_BATCH and self.ctx.obs.enabled:
            self.ctx.obs.batch_proposed(self.party_id, self.object_name,
                                        run.run_id, len(body))
        keys = {"mode": mode, "new_state": state_encoded}
        return run.run_id, self._start_run(run, keys, body_encoded)

    # ------------------------------------------------------------------
    # policy hooks of the run machine
    # ------------------------------------------------------------------

    def _installed_id(self) -> StateId:
        return self.agreed_sid

    def _describe(self, run: Run, source: dict) -> None:
        payload = run.proposal.payload
        run.mode = str(payload["mode"])
        StateId.from_dict(payload["agreed_sid"])
        # Only our own run-keys record carries the state it proposed; a
        # responder computes it in _evaluate.
        run.new_state = source.get("new_state")

    def _response_payload(self, run: Run, decision: Decision) -> dict:
        return build_response(
            responder=self.party_id,
            object_name=self.object_name,
            proposal_digest=run.proposal.digest(),
            new_sid=run.new_id,
            body_hash=run.body_hash,
            decision=decision,
            gid=self.group.group_id,
            agreed_sid=self.agreed_sid,
            current_sid=self.current_sid,
        )

    def _response_run_id(self, payload: dict) -> str:
        return self._run_id_of(StateId.from_dict(payload["new_sid"]))

    def _m1_message(self, run: Run) -> dict:
        return propose_message(run.proposal, run.body)

    def _m2_message(self, run: Run) -> dict:
        return respond_message(run.own_response)

    def _m3_message(self, run: Run, responses: "list[SignedPart]") -> dict:
        return commit_message(self.object_name, run.new_id, run.auth or b"",
                              run.proposal, responses)

    def _preapply(self, run: Run) -> None:
        # Invariant 2: the proposer's current state is the proposed state.
        self.current_state = run.new_state
        self.current_sid = run.new_id

    def _install(self, run: Run) -> None:
        self.agreed_state = self.current_state = run.new_state
        self.agreed_sid = self.current_sid = run.new_id
        self.ctx.checkpoints.save(
            self.object_name, self.agreed_sid.to_dict(), self.agreed_state,
            run.state_encoded,
        )

    def _announce(self, run: Run, valid: bool, output: Output) -> None:
        if valid:
            event, encoded = StateInstalled, run.state_encoded
        elif run.role == ROLE_PROPOSER:
            # Roll back the pre-applied state to the last agreed state.
            self.current_state = self.agreed_state
            self.current_sid = self.agreed_sid
            event, encoded = StateRolledBack, None
        else:
            return
        output.emit(event(
            object_name=self.object_name,
            state_id=self.agreed_sid.to_dict(),
            state=self.agreed_state,
            run_id=run.run_id,
            encoded=encoded,
        ))

    def _evaluate(self, run: Run) -> Decision:
        """Systematic checks (section 4.2 invariants) + application upcall.

        Leaves the resulting state, when computable, in ``run.new_state``.
        """
        payload = run.proposal.payload
        proposer, new_sid, mode = run.initiator, run.new_id, run.mode
        body, body_hash = run.body, run.body_hash
        claimed_agreed = StateId.from_dict(payload["agreed_sid"])
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
        encoded = None  # the fragment a computed new_state came from
        # For batches: the recomputed (pre_state, update, post_state) of
        # every step, so application validation can judge each step
        # against the state it actually transforms.
        batch_steps: "list[tuple[Any, Any, Any]]" = []
        if mode == MODE_OVERWRITE:
            if new_sid.state_hash != body_hash:
                diagnostics.append("body hash does not match proposed state identifier")
            else:
                new_state, encoded = _frozen(body)
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
        run.new_state = new_state
        run.state_encoded = encoded if new_state is not None else None

        # Null transition check (section 4.4): S_new == S_current.
        if (self.reject_null_transitions
                and new_sid.state_hash == self.agreed_sid.state_hash):
            diagnostics.append("null state transition")

        if diagnostics:
            return Decision.reject(*diagnostics)

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
            return (Decision.reject(*step_diagnostics)
                    if step_diagnostics else Decision.accept())
        if mode == MODE_UPDATE:
            return self.validator.validate_update(
                body, new_state, self.current_state, proposer
            )
        return self.validator.validate_state(
            new_state, self.current_state, proposer
        )

    # ------------------------------------------------------------------
    # forced termination (section 7 extensions, fail-safe abort)
    # ------------------------------------------------------------------

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
        missing = run.waiting_on()
        if missing and self._require_complete_bundle():
            # Unanimity can never be demonstrated from a partial response
            # set: settle as invalid (local fail-safe abort).
            self._settle(run, False,
                         [f"aborted: no response from {missing}"], output)
            return output
        run.recipients = [p for p in run.recipients if p in run.responses]
        self._complete(run, output)
        return output

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
    # replay protection (invariant 4)
    # ------------------------------------------------------------------

    @staticmethod
    def _proposal_key(sid: StateId) -> bytes:
        return hash_value(["proposal-key", sid.seq, sid.rand_hash])

    def _note_seen(self, sid: StateId) -> None:
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

    def _recover_seen(self) -> None:
        # Only closed runs: a proposal logged by a handler whose journal
        # record a crash cut off was never taken up, and may come again.
        for entry in self.ctx.evidence.entries():
            if (entry.kind not in ("proposal-sent", "proposal-received")
                    or self.ctx.journal.outcome(
                        str(entry.payload.get("run_id"))) is None):
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
            self._note_seen(sid)
