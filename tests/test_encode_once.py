"""Encode-once: retained bytes are reused, never stale, never foreign.

A signed part keeps the canonical bytes it was signed or verified over
and journal/evidence records splice them.  These tests pin the two
sides of that bargain: the reuse really happens (one walk per part),
and nothing mutated after the fact can change, or hide behind, what
was already signed, hashed or stored.
"""

from __future__ import annotations

import copy
import sys
import threading

import pytest

import repro.util.encoding as encoding
from repro.core import Community, DictB2BObject, SimRuntime
from repro.crypto.prng import DeterministicRandomSource
from repro.crypto.signature import generate_party_keypair
from repro.crypto.timestamp import TimestampService
from repro.errors import SignatureError
from repro.obs.recording import RecordingInstrumentation
from repro.protocol.messages import (
    TRACE_CTX,
    SignedPart,
    make_signed,
    respond_message,
    spliced,
    verify_signed,
)
from repro.storage.backends import FileRecordStore
from repro.storage.checkpoint import CheckpointStore
from repro.storage.journal import SENT, MessageJournal
from repro.storage.log import NonRepudiationLog
from repro.util.clocks import VirtualClock
from repro.util.encoding import Fragment, canonical_bytes
from tests.reference_encoder import reference_canonical_bytes

RNG = DeterministicRandomSource("encode-once-tests")
ALICE = generate_party_keypair("Alice", bits=512, rng=RNG)
TSA = TimestampService("TSA", clock=VirtualClock(start=1000.0),
                       keypair=generate_party_keypair("TSA", bits=512, rng=RNG))


def _resolver(party_id):
    assert party_id == "Alice"
    return ALICE.verifier()


def _payload():
    return {"type": "state-response", "responder": "Alice",
            "decision": {"verdict": "accept", "diagnostics": []},
            "body_hash": b"\x01" * 32}


def _verify(part):
    verify_signed(part, _resolver, tsa_verifier=TSA.verifier,
                  expected_signer="Alice", context="test")


@pytest.fixture
def walks(monkeypatch):
    """Every dict the writer walks (spliced fragments are not walked)."""
    seen = []
    real = encoding._write

    def spy(value, kind=None):
        if type(value) is dict:
            seen.append(value)
        return real(value, kind)

    monkeypatch.setattr(encoding, "_write", spy)
    return seen


class TestPartOwnsItsBytes:
    def test_signed_part_is_walked_once_however_often_it_is_embedded(self, walks):
        payload = _payload()
        part = make_signed(payload, ALICE.signer(), TSA)
        part.digest()
        message = respond_message(part)
        journal = MessageJournal("Alice")
        log = NonRepudiationLog("Alice")
        for peer in ("Bob", "Carol"):
            journal.record_message("r1", SENT, peer, spliced(message, response=part))
        log.record("response-sent", {"run_id": "r1", "response": part.encoded})
        log.record("authenticated-decision",
                   {"responses": [part.encoded], "valid": True})
        assert sum(1 for seen in walks if seen is payload) == 1
        # ... and what was stored is what the two-pass encoder would store.
        stored = journal.messages("r1")[0]["message"]
        assert stored == message
        assert canonical_bytes(part.encoded) == reference_canonical_bytes(part.to_dict())
        assert log.verify_chain() == 2

    def test_received_part_is_encoded_once_by_verification(self, walks):
        wire = copy.deepcopy(make_signed(_payload(), ALICE.signer(), TSA).to_dict())
        del walks[:]
        part = SignedPart.from_dict(wire)
        _verify(part)
        part.digest()
        canonical_bytes({"proposal": part.encoded})
        canonical_bytes(spliced({"msg_type": "respond", "response": wire},
                                response=part))
        assert sum(1 for seen in walks if seen is part.payload) == 1

    def test_release_forgets_bytes_but_not_meaning(self):
        part = make_signed(_payload(), ALICE.signer(), TSA)
        before = part.encoded.data
        digest = part.digest()
        part.release()
        assert "_sealed" not in part.__dict__
        assert part.encoded.data == before and part.digest() == digest

    def test_spliced_falls_back_to_the_message_when_a_part_does_not_match(self):
        part = make_signed(_payload(), ALICE.signer(), TSA)
        echoed = copy.deepcopy(part.to_dict())
        echoed["extra"] = "field a peer added"
        message = {"msg_type": "respond", "response": echoed, "responses": [echoed]}
        stored = spliced(message, response=part, responses=[part],
                         body=Fragment("no such key"))
        assert stored == message  # nothing replaced, nothing added
        assert canonical_bytes(stored) == reference_canonical_bytes(message)


class TestTamperingAfterConstruction:
    """The retained bytes may not become a way to verify one thing and
    act on, send or log another."""

    def test_payload_changed_after_signing_fails_verification(self):
        part = make_signed(_payload(), ALICE.signer(), TSA)
        _verify(part)
        part.payload["decision"]["verdict"] = "reject"
        with pytest.raises(SignatureError):
            _verify(part)
        assert not ALICE.verifier().verify(part.payload, part.signature)

    def test_payload_changed_after_parsing_fails_verification(self):
        wire = copy.deepcopy(make_signed(_payload(), ALICE.signer(), TSA).to_dict())
        part = SignedPart.from_dict(wire)
        part.digest()  # bytes retained before the tampering
        part.payload["body_hash"] = b"\x02" * 32
        with pytest.raises(SignatureError):
            _verify(part)

    def test_callers_dict_changed_after_make_signed_fails_verification(self):
        payload = _payload()
        part = make_signed(payload, ALICE.signer(), TSA)
        payload["responder"] = "Mallory"
        with pytest.raises(SignatureError):
            verify_signed(part, _resolver, tsa_verifier=TSA.verifier)

    def test_what_is_logged_after_verification_is_what_was_verified(self):
        part = SignedPart.from_dict(copy.deepcopy(
            make_signed(_payload(), ALICE.signer(), TSA).to_dict()))
        _verify(part)
        verified = reference_canonical_bytes(part.to_dict())
        part.payload["decision"]["verdict"] = "reject"  # after the check
        log = NonRepudiationLog("Alice")
        log.record("response-received", {"response": part.encoded})
        (entry,) = log.entries()
        assert reference_canonical_bytes(entry.payload["response"]) == verified
        logged = SignedPart.from_dict(entry.payload["response"])
        _verify(logged)  # the log holds a part that verifies
        with pytest.raises(SignatureError):
            _verify(part)  # and the tampered one is caught at its next check

    def test_re_verification_replaces_stale_bytes(self):
        part = make_signed(_payload(), ALICE.signer(), TSA)
        original = copy.deepcopy(part.payload)
        part.payload["decision"]["verdict"] = "reject"
        with pytest.raises(SignatureError):
            _verify(part)
        part.payload.clear()
        part.payload.update(original)
        _verify(part)
        assert part.encoded.data == reference_canonical_bytes(part.to_dict())
        assert part.digest() == make_signed(original, ALICE.signer(), TSA).digest()


class TestStoredRecordsIgnoreLaterMutation:
    def test_log_evidence_defaults_do_not_touch_the_callers_payload(self, make_community):
        community = make_community(["A", "B"], seed=5)
        community.found_object("doc", {n: DictB2BObject() for n in "AB"})
        engine = community.node("A").party.session("doc").state
        part = make_signed(_payload(), ALICE.signer(), TSA)
        payload = {"run_id": "r9", "response": part.encoded}
        engine._log_evidence("probe", payload)
        assert set(payload) == {"run_id", "response"}
        entry = community.node("A").ctx.evidence.find("probe", run_id="r9")
        assert entry.payload["object"] == "doc" and "at_ms" in entry.payload
        assert entry.payload["response"] == part.to_dict()
        # An explicit value wins over the default, as before.
        engine._log_evidence("probe", {"run_id": "r10", "object": "other"})
        assert community.node("A").ctx.evidence.find(
            "probe", run_id="r10").payload["object"] == "other"

    def test_trace_ctx_attached_after_journalling_leaves_the_journal_alone(self):
        community = Community(["A", "B", "C"], runtime=SimRuntime(seed=9),
                              obs=RecordingInstrumentation())
        community.found_object("doc", {n: DictB2BObject() for n in "ABC"})
        ticket = community.node("A").submit_update("doc", {"k": 1})
        community.settle()
        assert ticket.done and ticket.valid
        engine = community.node("A").party.session("doc").state
        (run,) = [r for r in engine.runs() if r.role == "proposer"]
        journal = community.node("A").ctx.journal
        before = list(journal.all_records())
        decision = community.node("A").ctx.evidence.find(
            "authenticated-decision", run_id=run.run_id)
        (late,) = [raw for raw in decision.payload["responses"]
                   if raw["payload"]["responder"] == "B"]
        # A late duplicate m2 makes the proposer re-send the commit it
        # sent, each time with a fresh trace context attached.
        stamps = []
        for _ in range(2):
            ((_, resent),) = engine.handle(
                "B", respond_message(SignedPart.from_dict(late))).messages
            stamps.append(resent[TRACE_CTX])
        assert stamps[0] != stamps[1]
        assert list(journal.all_records()) == before
        assert [record["run_id"] for record in before] == [run.run_id] * 2
        for name in "ABC":
            community.node(name).ctx.evidence.verify_chain()

    def test_state_dict_mutated_after_submit_update_changes_nothing(self, make_community):
        community = make_community(["A", "B", "C"], seed=6)
        community.found_object("doc", {n: DictB2BObject() for n in "ABC"})
        update = {"lines": [{"sku": "A-1", "qty": 2}]}
        ticket = community.node("A").submit_update("doc", update)
        update["lines"][0]["qty"] = 2000  # after the proposal was signed
        update["smuggled"] = True
        community.settle()
        assert ticket.done and ticket.valid
        expected = {"lines": [{"sku": "A-1", "qty": 2}]}
        for name in "ABC":
            ctx = community.node(name).ctx
            assert community.node(name).party.session(
                "doc").state.agreed_state == expected
            assert ctx.checkpoints.latest("doc").state == expected
            ctx.evidence.verify_chain()
        proposed = [record["stub"] for record in
                    community.node("B").ctx.journal.all_records()
                    if record.get("stub", {}).get("msg_type") == "propose"]
        assert [message["body"] for message in proposed] == [expected]


class TestSharedStoresAreAtomic:
    """More writers than cores, short switch interval: a lost update
    would break the chain, leave a run open or lose a checkpoint."""

    WORKERS, EACH = 8, 40

    def _hammer(self, work):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(index,))
                       for index in range(self.WORKERS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)

    def test_evidence_log(self):
        log = NonRepudiationLog("Alice")
        self._hammer(lambda w: [log.record("evt", {"w": w, "i": i})
                                for i in range(self.EACH)])
        assert log.verify_chain() == len(log) == self.WORKERS * self.EACH

    def test_journal(self):
        journal = MessageJournal("Alice")

        def work(worker):
            for index in range(self.EACH):
                run_id = f"run-{worker}-{index}"
                journal.record_message(run_id, SENT, "Bob", {"msg_type": "x"})
                journal.close_run(run_id, "valid")

        self._hammer(work)
        assert journal.open_runs() == set()
        assert sum(1 for _ in journal.all_records()) == 2 * self.WORKERS * self.EACH

    def test_checkpoints(self, tmp_path):
        store = FileRecordStore(str(tmp_path / "checkpoints.jsonl"), fsync=False)
        checkpoints = CheckpointStore(store)
        self._hammer(lambda w: [checkpoints.save(f"obj-{w}", {"seq": i}, {"i": i})
                                for i in range(self.EACH)])
        assert len(store) == self.WORKERS * self.EACH
        for worker in range(self.WORKERS):
            assert checkpoints.history_length(f"obj-{worker}") == self.EACH
            assert [c.sequence for c in checkpoints.history(f"obj-{worker}")] == list(
                range(self.EACH))
        store.close()
