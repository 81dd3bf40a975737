"""Verify-once: a run's part table is where a signed part lives.

An ``m3`` bundle carries the proposal and our own response back to us.
Equal on payload, signature and time-stamp token to what the run holds,
the held object stands in — not parsed twice, not sealed, not verified
again.  These tests pin both sides: the saving is exactly the parts a
party already holds, and anything that differs in any field is judged
as it always was.
"""

from __future__ import annotations

import copy
import gc
import tracemalloc

import pytest

import repro.protocol.engine_base as engine_base
from repro.core import DictB2BObject
from repro.crypto.signature import RsaVerifier
from repro.protocol.events import MisbehaviourEvent, RunCompleted
from repro.protocol.messages import SignedPart, spliced
from repro.util.encoding import Fragment, canonical_bytes
from tests.engine_helpers import EngineHarness, found
from tests.test_golden_evidence import GOLDEN, deterministic_run

MEMBERS = ["A", "B", "C"]


@pytest.fixture
def verifies(monkeypatch):
    """The claimed signer of every signature handed to an RSA verifier."""
    seen = []
    real = RsaVerifier.verify_bytes

    def counting(self, data, signature):
        seen.append(signature.signer)
        return real(self, data, signature)

    monkeypatch.setattr(RsaVerifier, "verify_bytes", counting)
    return seen


def state(harness, name):
    return harness.party(name).session("obj").state


def bundle_for_b():
    """A 3-party run driven up to, not including, B's receipt of m3."""
    harness = EngineHarness(MEMBERS, seed=23)
    found(harness, "obj", MEMBERS, {"v": 0})
    _, proposed = state(harness, "A").propose_update({"k": 1})
    m3 = None
    for responder, m1 in proposed.messages:
        (_, m2), = harness.party(responder).handle("A", m1).messages
        for recipient, message in harness.party("A").handle(responder, m2).messages:
            if recipient == "B":
                m3 = copy.deepcopy(message)
    (own,) = [raw for raw in m3["responses"]
              if raw["payload"]["responder"] == "B"]
    return harness, m3, own


def deliver(harness, m3):
    output = harness.party("B").handle("A", m3)
    (done,) = [e for e in output.events if isinstance(e, RunCompleted)]
    kinds = [e.kind for e in output.events if isinstance(e, MisbehaviourEvent)]
    return done, kinds


class TestOnlyWhatTheRunHoldsStandsIn:
    def test_untouched_bundle_verifies_the_other_responder_only(self, verifies):
        harness, m3, _own = bundle_for_b()
        held = state(harness, "B").active_run().own_response
        del verifies[:]
        done, kinds = deliver(harness, m3)
        assert done.valid and kinds == []
        assert verifies == ["C", "TSA"]
        # The stored decision embeds the object B signed, not a re-parse.
        assert done.evidence["responses"][0] is held.to_dict()

    def test_same_payload_other_token_is_judged_by_verify_signed(self, verifies):
        harness, m3, own = bundle_for_b()
        harness.clock.advance(5.0)
        own["timestamp"] = harness.tsa.stamp(own["signature"]).to_dict()
        del verifies[:]
        done, kinds = deliver(harness, m3)
        # A genuine second token: accepted as the parent accepted it, after
        # both of B's checks, and the evidence keeps the bundled copy.
        assert done.valid and kinds == []
        assert sorted(verifies) == ["B", "C", "TSA", "TSA"]
        assert own in done.evidence["responses"]

    def test_same_payload_other_signature_is_judged_by_verify_signed(self, verifies):
        harness, m3, own = bundle_for_b()
        value = own["signature"]["value"]
        own["signature"]["value"] = value[:-1] + bytes([value[-1] ^ 1])
        del verifies[:]
        done, kinds = deliver(harness, m3)
        assert not done.valid and kinds == ["invalid-signature"]
        assert verifies[0] == "B"

    def test_altered_own_payload_is_evidence_tampering(self, verifies):
        harness, m3, own = bundle_for_b()
        own["payload"]["decision"] = {"verdict": "reject",
                                      "diagnostics": ["forged"]}
        del verifies[:]
        done, kinds = deliver(harness, m3)
        assert not done.valid and kinds == ["evidence-tampering"]
        assert verifies == []
        assert state(harness, "B").agreed_state == {"v": 0}

    def test_proposal_with_another_signature_is_stored_as_verified(self):
        harness, m3, _own = bundle_for_b()
        m3["proposal"]["signature"]["value"] = b"\x00" * 64
        done, _kinds = deliver(harness, m3)
        assert done.valid  # the payload is what B verified at m1
        # The decision evidence holds the proposal B verified, and the
        # journal keeps no copy of the bundle as it arrived: no record of
        # it, and no signature in any record.
        assert done.evidence["proposal"] != m3["proposal"]
        records = list(harness.party("B").ctx.journal.all_records())
        assert [r["stub"]["msg_type"] for r in records if "stub" in r] \
            == ["propose"]
        assert b'"signature"' not in b"".join(map(canonical_bytes, records))


class TestVerifyCounts:
    """2(n-1)n signature checks per settled n-party run: each of n
    parties checks every signed part but its own, twice (signature and
    time-stamp).  It was 2(n-1)(n+1) while responders re-verified the
    response they had signed."""

    def _settled_update(self, make_community, parties, verifies):
        community = make_community(parties, seed=parties)
        names = community.names()
        community.found_object("doc", {n: DictB2BObject() for n in names})
        node = community.node(names[0])
        for round_ in range(2):
            del verifies[:]
            ticket = node.submit_update("doc", {"k": round_})
            community.settle()
            assert ticket.done and ticket.valid
        return community

    @pytest.mark.parametrize("parties, expected", [(3, 12), (5, 40)])
    def test_state_run(self, make_community, verifies, parties, expected):
        self._settled_update(make_community, parties, verifies)
        assert len(verifies) == expected
        assert verifies.count("TSA") == expected // 2

    def test_join_run(self, make_community, verifies):
        community = make_community(["A", "B", "C", "D"], seed=4)
        community.found_object("doc", {n: DictB2BObject() for n in "ABC"})
        del verifies[:]
        community.node("D").connect("doc", DictB2BObject(), "C")
        community.settle()
        # Certificate checks aside: 12 for the sponsor's run among three
        # members, as in a state run; the request, checked by all three;
        # and what the subject checks of its welcome.  It was 23: the two
        # responders re-verified their own responses, 2(n-1) = 4 checks.
        assert len([s for s in verifies if s != "CA"]) == 19


def reference_spliced(message, **parts):
    """``spliced`` as the parent wrote it: every part re-serialised and
    compared with what the message holds."""
    def fresh(part):
        return {"payload": part.payload,
                "signature": part.signature.to_dict(),
                "timestamp": part.timestamp.to_dict() if part.timestamp else None}

    stored = dict(message)
    for key, part in parts.items():
        held = message.get(key)
        if isinstance(part, Fragment):
            if key in message:
                stored[key] = part
        elif isinstance(part, list):
            if [fresh(item) for item in part] == held:
                stored[key] = [item.encoded for item in part]
        elif fresh(part) == held:
            stored[key] = part.encoded
    return stored


class TestSplicedByIdentity:
    def test_stores_what_the_comparison_stored(self, monkeypatch):
        """Journal, evidence and checkpoint files of the golden run
        (updates, a veto, a join) with the parent's rule swapped in."""
        monkeypatch.setattr(engine_base, "spliced", reference_spliced)
        assert deterministic_run(monkeypatch) == GOLDEN["run"]

    def test_agrees_with_the_comparison_entry_by_entry(self, monkeypatch):
        taken = []

        def both(message, **parts):
            stored = spliced(message, **parts)
            assert (canonical_bytes(stored)
                    == canonical_bytes(reference_spliced(message, **parts)))
            for key, part in parts.items():
                if isinstance(part, SignedPart):
                    taken.append(message[key] is part.to_dict())
            return stored

        monkeypatch.setattr(engine_base, "spliced", both)
        harness = EngineHarness(MEMBERS, seed=29)
        found(harness, "obj", MEMBERS, {"v": 0})
        _, proposed = state(harness, "A").propose_update({"k": 1})
        harness.pump("A", proposed)
        assert state(harness, "C").agreed_state == {"v": 0, "k": 1}
        # The proposal of the decision record at each of the three
        # parties, built from the part, then the m3 (proposer) or m2
        # (responders) each keeps for a duplicate.  Nothing parsed from
        # the wire is spliced: the journal refers to the evidence instead.
        assert taken == [True] * 6

    def test_one_dict_per_part(self, monkeypatch):
        built = []
        real = engine_base.EngineBase._retire

        def retire(self, run):
            if run.role == "proposer":
                built.append((run.proposal, dict(run.responses), run.commit))
            real(self, run)

        monkeypatch.setattr(engine_base.EngineBase, "_retire", retire)
        bundle_for_b()
        ((proposal, responses, commit),) = built
        assert commit["proposal"] is proposal.to_dict()
        assert all(raw is responses[raw["payload"]["responder"]].to_dict()
                   for raw in commit["responses"])


class TestRunTableDoesNotGrow:
    """ROADMAP 3(c), for this table: past the window a settled run
    costs the run table nothing, and inside it only what a duplicate
    may ask for."""

    @staticmethod
    def _reachable(root) -> int:
        seen, stack = {id(root)}, [root]
        while stack:
            for child in gc.get_referents(stack.pop()):
                if id(child) not in seen and not isinstance(child, type):
                    seen.add(id(child))
                    stack.append(child)
        return len(seen)

    def test_same_size_after_n_and_2n_updates_past_the_window(self, monkeypatch):
        monkeypatch.setattr(engine_base.EngineBase, "seen_window", 4)
        harness = EngineHarness(MEMBERS, seed=31)
        found(harness, "obj", MEMBERS, {"v": 0})

        def settle(count):
            for _ in range(count):
                _, proposed = state(harness, "A").propose_update({"k": 1})
                harness.pump("A", proposed)
            return {name: self._reachable(state(harness, name)._runs)
                    for name in MEMBERS}

        after_n = settle(8)
        assert settle(8) == after_n
        assert all(len(state(harness, name)._runs) == 4 for name in MEMBERS)

    @pytest.mark.parametrize("name, bound", [("A", 6000), ("B", 2800)])
    def test_bytes_held_per_retired_run(self, name, bound):
        """Traced bytes a full run table of settled runs gives back when
        it is emptied, per run: A's are proposer runs, B's responder
        runs.  It was ~6.8 KB and ~3.5 KB while retired runs kept their
        decoded parts; now a run record plus the fragments it kept."""
        harness = EngineHarness(MEMBERS, seed=47)
        found(harness, "obj", MEMBERS, {"v": 0})

        def settle(count):
            for index in range(count):
                _, proposed = state(harness, "A").propose_update({"k": index})
                harness.pump("A", proposed)

        settle(4)
        runs = 50
        tracemalloc.start()
        try:
            settle(runs)
            # The harness keeps every event; a RunCompleted shares its
            # evidence dicts with the parts the run once held.
            for events in harness.events.values():
                events.clear()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            engine = state(harness, name)
            engine._runs.clear()
            engine._settled.clear()
            engine._by_digest.clear()
            gc.collect()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0 < held / runs <= bound

    def test_retired_run_keeps_what_a_duplicate_asks_for(self):
        harness = EngineHarness(MEMBERS, seed=37)
        found(harness, "obj", MEMBERS, {"v": 0})
        _, proposed = state(harness, "A").propose_update({"k": 1})
        m1 = dict(proposed.messages)["B"]
        harness.pump("A", proposed)
        (kept,) = state(harness, "B").runs()
        (sent,) = state(harness, "A").runs()
        for run in (kept, sent):
            assert run.outcome == "valid"
            assert (run.proposal, run.commit, run.own_response,
                    run.own_decision, run.body, run.new_state,
                    run.responses) == (None,) * 6 + ({},)
        # Only fragments the evidence log already encoded, no decoded part.
        assert isinstance(kept.kept["response"], Fragment)
        assert isinstance(sent.kept["proposal"], Fragment)
        assert all(isinstance(part, Fragment)
                   for part in sent.kept["responses"])
        # A duplicate m1 still gets our m2; a late m2 still gets A's m3.
        (_, again), = harness.party("B").handle("A", m1).messages
        logged = harness.party("B").ctx.evidence.find("response-sent")
        assert again == {"msg_type": "respond",
                         "response": logged.payload["response"]}
        (_, m3), = harness.party("A").handle("B", again).messages
        decision = harness.party("A").ctx.evidence.find(
            "authenticated-decision")
        assert (m3["proposal"], m3["responses"], m3["auth"]) == (
            decision.payload["proposal"], decision.payload["responses"],
            decision.payload["auth"])
        assert harness.party("B").handle("A", m3).messages == []
