"""Shared machinery for the coordination and membership engines."""

from __future__ import annotations

from typing import Optional

from repro.crypto.hashing import hash_value
from repro.errors import (
    InconsistentMessageError,
    SignatureError,
    TimestampError,
)
from repro.obs.hooks import RECEIVED as OBS_RECEIVED
from repro.obs.hooks import SENT as OBS_SENT
from repro.obs.hooks import approx_size_cached
from repro.obs.trace import TraceContext
from repro.protocol.context import PartyContext
from repro.protocol.events import MisbehaviourEvent, Output
from repro.protocol.messages import (
    SignedPart,
    attach_trace_context,
    extract_trace_context,
    make_signed,
    verify_signed,
)
from repro.storage.journal import RECEIVED, SENT


class EngineBase:
    """Evidence-logging, journalling and signature plumbing."""

    def __init__(self, ctx: PartyContext, object_name: str) -> None:
        self.ctx = ctx
        self.object_name = object_name

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
            culprit = expected_signer or part.signature.signer
            self._log_evidence(
                "misbehaviour",
                {
                    "party": culprit,
                    "kind": "invalid-signature",
                    "detail": str(exc),
                    "context": context,
                },
            )
            output.emit(
                MisbehaviourEvent(
                    party=culprit,
                    kind="invalid-signature",
                    detail=str(exc),
                    object_name=self.object_name,
                    run_id=run_id,
                )
            )
            return False

    def _misbehaviour(self, output: Output, party: str, kind: str,
                      detail: str, run_id: str = "") -> None:
        """Record and surface provable misbehaviour."""
        self._log_evidence(
            "misbehaviour",
            {"party": party, "kind": kind, "detail": detail, "run_id": run_id},
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

    def _log_evidence(self, kind: str, payload: dict) -> None:
        record = dict(payload)
        record.setdefault("object", self.object_name)
        record.setdefault("at_ms", int(self.ctx.clock.now() * 1000))
        self.ctx.evidence.record(kind, record)

    def _journal_sent(self, run_id: str, peer: str, message: dict) -> None:
        self.ctx.journal.record_message(run_id, SENT, peer, message)

    def _journal_received(self, run_id: str, peer: str, message: dict) -> None:
        self.ctx.journal.record_message(run_id, RECEIVED, peer, message)

    def _close_journal(self, run_id: str, outcome: str) -> None:
        if self.ctx.journal.is_open(run_id):
            self.ctx.journal.close_run(run_id, outcome)

    @staticmethod
    def _release(*parts: "Optional[SignedPart]") -> None:
        """Drop the encodings a settled run's parts retain: its evidence
        is logged, and the run table keeps the parts for bookkeeping only."""
        for part in parts:
            if part is not None:
                part.release()

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------

    def _obs_message(self, run_id: str, phase: str, direction: str,
                     message: dict, count: int = 1) -> None:
        """Count *count* copies of one protocol message, sized once."""
        obs = self.ctx.obs
        if not obs.enabled:
            return
        size = approx_size_cached(message)
        for _ in range(count):
            obs.protocol_message(self.ctx.party_id, self.object_name,
                                 run_id, phase, direction, size)

    # ------------------------------------------------------------------
    # causal tracing
    # ------------------------------------------------------------------

    def _trace_send(self, run_id: str, phase: str, message: dict,
                    recipients: "list[str]") -> None:
        """Attach causal context to an outbound wire message.

        One broadcast is one Lamport event: every recipient receives the
        same context, and the message dict (shared by journal and all
        sends) gains exactly one unsigned ``trace_ctx`` field.  Re-sends
        re-enter here and stamp a fresh context — each transmission is a
        new event on the timeline.
        """
        if not self.ctx.obs.enabled:
            return
        ctx = self.ctx.trace.begin_send(run_id)
        attach_trace_context(message, ctx.to_dict())
        for peer in recipients:
            self.ctx.obs.causal_message(
                self.ctx.party_id, self.object_name, run_id, phase,
                OBS_SENT, peer, ctx.trace_id, ctx.span_id, "", ctx.lamport,
            )

    def _trace_receive(self, run_id: str, phase: str, sender: str,
                       message: dict) -> "TraceContext | None":
        """Absorb the carried context of an inbound message and record it."""
        if not self.ctx.obs.enabled:
            return None
        ctx = self.ctx.trace.receive(run_id, extract_trace_context(message))
        self.ctx.obs.causal_message(
            self.ctx.party_id, self.object_name, run_id, phase,
            OBS_RECEIVED, sender, ctx.trace_id, ctx.span_id,
            ctx.parent_span_id, ctx.lamport,
        )
        return ctx

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _run_id(kind: str, object_name: str, identity: dict) -> str:
        return hash_value(["run", kind, object_name, identity]).hex()

    @staticmethod
    def _parse_part(message: dict, key: str) -> "Optional[SignedPart]":
        raw = message.get(key)
        if not isinstance(raw, dict):
            return None
        try:
            return SignedPart.from_dict(raw)
        except (KeyError, TypeError, ValueError):
            return None
