"""Evidence verification and extra-protocol dispute resolution."""

from __future__ import annotations

import pytest

from repro.errors import DisputeError
from repro.protocol.dispute import (
    RULING_REJECTED,
    RULING_UNDECIDABLE,
    RULING_UPHELD,
    Arbiter,
)
from repro.protocol.evidence import find_equivocation, verify_authenticated_decision
from repro.protocol.events import RunCompleted
from repro.protocol.messages import SignedPart, make_signed
from repro.protocol.validation import CallbackValidator, Decision
from repro.util.encoding import canonical_bytes, from_canonical_bytes

from tests.engine_helpers import EngineHarness, found


def run_and_get_bundle(harness, proposer="P1", state=None, expect_valid=True):
    engine = harness.party(proposer).session("obj").state
    run_id, output = engine.propose_overwrite(state or {"v": 1})
    harness.pump(proposer, output)
    completed = [e for e in harness.events_of(proposer, RunCompleted)
                 if e.run_id == run_id]
    assert completed and completed[0].valid == expect_valid
    return run_id, completed[0].evidence


def make_harness(names=("P1", "P2", "P3"), seed=0):
    harness = EngineHarness(list(names), seed=seed)
    found(harness, "obj", list(names), {"v": 0})
    return harness


class TestVerifyAuthenticatedDecision:
    def test_valid_bundle(self):
        harness = make_harness()
        _, bundle = run_and_get_bundle(harness)
        verdict = verify_authenticated_decision(
            bundle, harness._resolve, tsa_verifier=harness.tsa.verifier
        )
        assert verdict.authentic and verdict.valid
        assert verdict.proposer == "P1"
        assert set(verdict.responders) == {"P2", "P3"}

    def test_vetoed_bundle_is_authentic_but_invalid(self):
        harness = make_harness()
        harness.party("P2").session("obj").state.validator = CallbackValidator(
            state=lambda p, c, pr: Decision.reject("veto")
        )
        _, bundle = run_and_get_bundle(harness, expect_valid=False)
        verdict = verify_authenticated_decision(
            bundle, harness._resolve, tsa_verifier=harness.tsa.verifier
        )
        assert verdict.authentic and not verdict.valid
        assert any("veto" in d for d in verdict.diagnostics)

    def test_tampered_decision_in_bundle_detected(self):
        harness = make_harness()
        harness.party("P2").session("obj").state.validator = CallbackValidator(
            state=lambda p, c, pr: Decision.reject("veto")
        )
        _, bundle = run_and_get_bundle(harness, expect_valid=False)
        tampered = from_canonical_bytes(canonical_bytes(bundle))
        for response in tampered["responses"]:
            response["payload"]["decision"] = {"verdict": "accept",
                                               "diagnostics": []}
        tampered["valid"] = True
        verdict = verify_authenticated_decision(
            tampered, harness._resolve, tsa_verifier=harness.tsa.verifier
        )
        assert not verdict.authentic
        assert any("signature" in p for p in verdict.problems)

    def test_wrong_auth_preimage_detected(self):
        harness = make_harness()
        _, bundle = run_and_get_bundle(harness)
        tampered = from_canonical_bytes(canonical_bytes(bundle))
        tampered["auth"] = b"\x00" * 32
        verdict = verify_authenticated_decision(
            tampered, harness._resolve, tsa_verifier=harness.tsa.verifier
        )
        assert not verdict.authentic
        assert any("authenticator" in p for p in verdict.problems)

    def test_missing_response_detected_with_expected_set(self):
        harness = make_harness()
        _, bundle = run_and_get_bundle(harness)
        pruned = from_canonical_bytes(canonical_bytes(bundle))
        pruned["responses"] = pruned["responses"][:1]
        verdict = verify_authenticated_decision(
            pruned, harness._resolve, tsa_verifier=harness.tsa.verifier,
            expected_recipients={"P2", "P3"},
        )
        assert not verdict.valid
        assert any("missing responses" in p for p in verdict.problems)

    def test_malformed_bundle(self):
        verdict = verify_authenticated_decision({}, lambda p: None)
        assert not verdict.authentic


class TestFindEquivocation:
    def _signed_response(self, harness, name, digest, verdict):
        payload = {
            "type": "state-response",
            "responder": name,
            "proposal_digest": digest,
            "decision": {"verdict": verdict, "diagnostics": []},
        }
        signer = harness.party(name).ctx.signer
        return make_signed(payload, signer, None)

    def test_conflicting_responses_found(self):
        harness = make_harness()
        a = self._signed_response(harness, "P2", b"d1", "accept")
        b = self._signed_response(harness, "P2", b"d1", "reject")
        hit = find_equivocation([a, b])
        assert hit is not None and hit[0] == "P2"

    def test_consistent_duplicates_are_fine(self):
        harness = make_harness()
        a = self._signed_response(harness, "P2", b"d1", "accept")
        assert find_equivocation([a, a]) is None

    def test_different_proposals_are_not_equivocation(self):
        harness = make_harness()
        a = self._signed_response(harness, "P2", b"d1", "accept")
        b = self._signed_response(harness, "P2", b"d2", "reject")
        assert find_equivocation([a, b]) is None


class TestArbiter:
    def _arbiter(self, harness):
        return Arbiter(harness._resolve, tsa_verifier=harness.tsa.verifier)

    def test_validity_claim_upheld(self):
        harness = make_harness()
        run_id, _ = run_and_get_bundle(harness)
        arbiter = self._arbiter(harness)
        arbiter.submit("P1", harness.party("P1").ctx.evidence)
        ruling = arbiter.rule_on_state_validity("obj", run_id, "P1")
        assert ruling.outcome == RULING_UPHELD

    def test_validity_claim_upheld_for_any_member(self):
        # every member holds the full bundle after m3
        harness = make_harness()
        run_id, _ = run_and_get_bundle(harness)
        arbiter = self._arbiter(harness)
        arbiter.submit("P3", harness.party("P3").ctx.evidence)
        assert arbiter.rule_on_state_validity("obj", run_id, "P3").upheld

    def test_vetoed_state_cannot_be_claimed_valid(self):
        harness = make_harness()
        harness.party("P2").session("obj").state.validator = CallbackValidator(
            state=lambda p, c, pr: Decision.reject("veto")
        )
        run_id, _ = run_and_get_bundle(harness, expect_valid=False)
        arbiter = self._arbiter(harness)
        arbiter.submit("P1", harness.party("P1").ctx.evidence)
        ruling = arbiter.rule_on_state_validity("obj", run_id, "P1")
        assert ruling.outcome == RULING_REJECTED
        assert any("not unanimously" in r for r in ruling.reasons)

    def test_unknown_run_is_undecidable(self):
        harness = make_harness()
        arbiter = self._arbiter(harness)
        arbiter.submit("P1", harness.party("P1").ctx.evidence)
        ruling = arbiter.rule_on_state_validity("obj", "nonexistent", "P1")
        assert ruling.outcome == RULING_UNDECIDABLE

    def test_tampered_log_rejected_and_attributed(self):
        harness = make_harness()
        run_id, _ = run_and_get_bundle(harness)
        log = harness.party("P1").ctx.evidence
        records = log._store._records
        first = next(index for index, blob in enumerate(records)
                     if "entry_hash" in from_canonical_bytes(blob))
        record = from_canonical_bytes(records[first])
        record["payload"]["tampered"] = True
        records[first] = canonical_bytes(record)
        arbiter = self._arbiter(harness)
        arbiter.submit("P1", log)
        ruling = arbiter.rule_on_state_validity("obj", run_id, "P1")
        assert ruling.outcome == RULING_REJECTED
        assert ruling.culprits == ["P1"]

    def test_no_submission_raises(self):
        harness = make_harness()
        arbiter = self._arbiter(harness)
        with pytest.raises(DisputeError):
            arbiter.rule_on_state_validity("obj", "r", "P1")

    def test_participation_claim(self):
        harness = make_harness()
        run_id, _ = run_and_get_bundle(harness)
        arbiter = self._arbiter(harness)
        arbiter.submit("P2", harness.party("P2").ctx.evidence)
        assert arbiter.rule_on_participation("obj", run_id, "P1").upheld
        assert arbiter.rule_on_participation("obj", run_id, "P3").upheld
        ghost = arbiter.rule_on_participation("obj", run_id, "P9")
        assert ghost.outcome == RULING_UNDECIDABLE

    def test_misbehaviour_unsupported_claim_rejected(self):
        harness = make_harness()
        run_and_get_bundle(harness)
        arbiter = self._arbiter(harness)
        for name in harness.names:
            arbiter.submit(name, harness.party(name).ctx.evidence)
        ruling = arbiter.rule_on_misbehaviour("P2")
        assert ruling.outcome == RULING_REJECTED

    def test_testimony_alone_is_undecidable(self):
        harness = make_harness()
        # P1 unilaterally records an (unproven) misbehaviour entry
        harness.party("P1").ctx.evidence.record(
            "misbehaviour", {"party": "P2", "kind": "made-up", "detail": ""}
        )
        arbiter = self._arbiter(harness)
        arbiter.submit("P1", harness.party("P1").ctx.evidence)
        ruling = arbiter.rule_on_misbehaviour("P2")
        assert ruling.outcome == RULING_UNDECIDABLE


class TestArbiterEquivocationProof:
    def test_cross_log_equivocation_upholds_misbehaviour(self):
        """Two different orgs hold two *different* signed responses by the
        accused to the same proposal: irrefutable equivocation."""
        harness = make_harness()
        run_id, _ = run_and_get_bundle(harness)
        # Fabricate the conflict: take P2's genuine response from the run
        # and forge a second, different response signed with P2's real key
        # (the accused is the key-holder, so it *can* produce this).
        engine1 = harness.party("P1").session("obj").state
        run = engine1.run(run_id)
        genuine = run.responses["P2"]
        conflicting_payload = dict(genuine.payload)
        conflicting_payload["decision"] = {"verdict": "reject",
                                           "diagnostics": ["changed my mind"]}
        conflicting = make_signed(conflicting_payload,
                                  harness.party("P2").ctx.signer,
                                  harness.tsa)
        # P3's log records having received the conflicting version.
        harness.party("P3").ctx.evidence.record(
            "response-received",
            {"run_id": run_id, "response": conflicting.to_dict(),
             "object": "obj"},
        )
        arbiter = Arbiter(harness._resolve, tsa_verifier=harness.tsa.verifier)
        for name in harness.names:
            arbiter.submit(name, harness.party(name).ctx.evidence)
        ruling = arbiter.rule_on_misbehaviour("P2")
        assert ruling.upheld
        assert ruling.culprits == ["P2"]

    def test_unverifiable_conflict_carries_no_weight(self):
        """A 'conflicting response' with a bad signature cannot convict."""
        harness = make_harness()
        run_id, _ = run_and_get_bundle(harness)
        engine1 = harness.party("P1").session("obj").state
        genuine = engine1.run(run_id).responses["P2"]
        forged_payload = dict(genuine.payload)
        forged_payload["decision"] = {"verdict": "reject", "diagnostics": []}
        # signed by P3 but claiming to be P2's response
        forged = make_signed(forged_payload, harness.party("P3").ctx.signer,
                             harness.tsa)
        from repro.crypto.signature import Signature
        impostor = SignedPart(
            forged.payload,
            Signature(forged.signature.scheme, "P2", forged.signature.value),
            forged.timestamp,
        )
        harness.party("P3").ctx.evidence.record(
            "response-received",
            {"run_id": run_id, "response": impostor.to_dict(),
             "object": "obj"},
        )
        arbiter = Arbiter(harness._resolve, tsa_verifier=harness.tsa.verifier)
        for name in harness.names:
            arbiter.submit(name, harness.party(name).ctx.evidence)
        ruling = arbiter.rule_on_misbehaviour("P2")
        assert not ruling.upheld
