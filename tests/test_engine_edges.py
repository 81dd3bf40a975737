"""Edge cases of the coordination engine not covered elsewhere."""

from __future__ import annotations

import pytest

from repro.crypto.hashing import hash_value
from repro.protocol.coordination import OUTCOME_INVALID, freeze
from repro.protocol.events import MisbehaviourEvent, RunCompleted
from repro.protocol.messages import (
    MODE_UPDATE,
    SignedPart,
    build_proposal,
    make_signed,
    propose_message,
)
from repro.protocol.ids import new_state_id
from repro.protocol.validation import CallbackValidator, Decision, StateMerger

from tests.engine_helpers import EngineHarness, found


def make_harness(n=2, initial=None, seed=0, **kwargs):
    names = [f"P{i + 1}" for i in range(n)]
    harness = EngineHarness(names, seed=seed)
    found(harness, "obj", names, initial if initial is not None else {"v": 0},
          **kwargs)
    return harness


def engine(harness, name):
    return harness.party(name).session("obj").state


class TestFreeze:
    def test_freeze_deep_copies(self):
        original = {"a": [1, {"b": 2}]}
        frozen = freeze(original)
        original["a"][1]["b"] = 99
        assert frozen == {"a": [1, {"b": 2}]}

    def test_freeze_rejects_unencodable(self):
        with pytest.raises(TypeError):
            freeze({"bad": object()})


class TestUpdateModeEdges:
    def test_lying_update_hash_rejected(self):
        """m1 whose update_hash does not match the shipped update body."""
        harness = make_harness(seed=1)
        proposer = engine(harness, "P1")
        update = {"b": 2}
        resulting = {"v": 0, "b": 2}
        new_sid, _ = new_state_id(0, resulting, harness.party("P1").ctx.rng)
        payload = build_proposal(
            "P1", "obj", proposer.group.group_id, proposer.agreed_sid,
            new_sid, auth_commitment=hash_value(b"a" * 32),
            mode=MODE_UPDATE, update_hash=hash_value({"something": "else"}),
        )
        part = make_signed(payload, harness.party("P1").ctx.signer,
                           harness.tsa)
        harness.deliver("P1", "P2", propose_message(part, update))
        run = engine(harness, "P2").runs()[0]
        assert not run.own_decision.accepted
        assert any("update hash does not match" in d
                   for d in run.own_decision.diagnostics)

    def test_update_that_does_not_yield_claimed_state_rejected(self):
        harness = make_harness(seed=2)
        proposer = engine(harness, "P1")
        update = {"b": 2}
        lied_state = {"v": 0, "b": 999}  # not what applying the update gives
        new_sid, _ = new_state_id(0, lied_state, harness.party("P1").ctx.rng)
        payload = build_proposal(
            "P1", "obj", proposer.group.group_id, proposer.agreed_sid,
            new_sid, auth_commitment=hash_value(b"a" * 32),
            mode=MODE_UPDATE, update_hash=hash_value(update),
        )
        part = make_signed(payload, harness.party("P1").ctx.signer,
                           harness.tsa)
        harness.deliver("P1", "P2", propose_message(part, update))
        run = engine(harness, "P2").runs()[0]
        assert any("does not yield the claimed new state" in d
                   for d in run.own_decision.diagnostics)

    def test_responder_with_failing_merger_rejects_cleanly(self):
        class ExplodingMerger(StateMerger):
            def apply(self, state, update):
                raise RuntimeError("merge machinery broke")

        names = ["P1", "P2"]
        harness = EngineHarness(names, seed=3)
        harness.party("P1").create_object("obj", names, {"v": 0})
        harness.party("P2").create_object("obj", names, {"v": 0},
                                          merger=ExplodingMerger())
        run_id, output = engine(harness, "P1").propose_update({"b": 1})
        harness.pump("P1", output)
        run = engine(harness, "P2").run(run_id)
        assert run.outcome == OUTCOME_INVALID
        assert any("P2: update could not be applied" in d
                   for d in run.diagnostics)
        # the proposer rolled back and both replicas stay consistent
        assert engine(harness, "P1").current_state == {"v": 0}
        assert engine(harness, "P2").agreed_state == {"v": 0}


class TestProposeUpdateProposerFailure:
    def test_propose_update_with_broken_merger_raises(self):
        class ExplodingMerger(StateMerger):
            def apply(self, state, update):
                raise RuntimeError("merge machinery broke")

        harness = EngineHarness(["P1", "P2"], seed=4)
        harness.party("P1").create_object("obj", ["P1", "P2"], {"v": 0},
                                          merger=ExplodingMerger())
        harness.party("P2").create_object("obj", ["P1", "P2"], {"v": 0})
        with pytest.raises(RuntimeError):
            engine(harness, "P1").propose_update({"b": 1})
        assert not engine(harness, "P1").busy  # nothing half-started


class TestForceCompletionEdges:
    def test_unknown_run_is_noop(self):
        harness = make_harness(seed=10)
        output = engine(harness, "P1").force_completion("nope")
        assert output.messages == [] and output.events == []

    def test_settled_run_is_noop(self):
        harness = make_harness(seed=11)
        run_id, output = engine(harness, "P1").propose_overwrite({"v": 1})
        harness.pump("P1", output)
        output = engine(harness, "P1").force_completion(run_id)
        assert output.messages == [] and output.events == []

    def test_responder_side_is_noop(self):
        harness = make_harness(3, seed=12)
        harness.blocked_edges = {("P1", "P3")}
        run_id, output = engine(harness, "P1").propose_overwrite({"v": 1})
        harness.pump("P1", output)
        output = engine(harness, "P2").force_completion(run_id)
        assert output.events == []


class TestAbortEdges:
    def test_abort_with_no_active_run_is_noop(self):
        harness = make_harness(seed=20)
        output = engine(harness, "P1").abort_active_run("why not")
        assert output.events == []

    def test_responder_can_locally_abandon_blocked_run(self):
        harness = make_harness(3, seed=21)
        # P2 accepted but m3 never arrives (P1 -> P2 blocked for commit).
        harness.blocked_edges = {("P1", "P2")}
        _, output = engine(harness, "P1").propose_overwrite({"v": 1})
        harness.pump("P1", output)
        assert engine(harness, "P2").busy is False  # P2 never got m1 at all
        # Instead: block only the commit by letting m1 through first.
        harness = make_harness(3, seed=22)
        _, output = engine(harness, "P1").propose_overwrite({"v": 1})
        # deliver m1 to P2 but drop everything after
        for recipient, message in output.messages:
            if recipient == "P2":
                harness.deliver("P1", "P2", message)
        assert engine(harness, "P2").busy
        abort_output = engine(harness, "P2").abort_active_run("timeout")
        harness.pump("P2", abort_output)
        assert not engine(harness, "P2").busy
        assert engine(harness, "P2").agreed_state == {"v": 0}


class TestMiscHandling:
    def test_commit_for_own_proposal_flagged(self):
        harness = make_harness(seed=30)
        run_id, output = engine(harness, "P1").propose_overwrite({"v": 1})
        harness.pump("P1", output)
        run = engine(harness, "P1").run(run_id)
        # reflect P1's own commit back at it under a fresh... P1's run is
        # settled, so the commit is simply ignored; craft an open one:
        harness2 = make_harness(3, seed=31)
        harness2.blocked_edges = {("P3", "P1")}
        run_id2, output2 = engine(harness2, "P1").propose_overwrite({"v": 1})
        harness2.pump("P1", output2)
        # P1's run is open (P3's response missing); now P2 echoes a fake
        # commit for it back to P1:
        fake_commit = {
            "msg_type": "commit",
            "object": "obj",
            "new_sid": engine(harness2, "P1").active_run().new_sid.to_dict(),
            "auth": b"",
            "proposal": engine(harness2, "P1").active_run().proposal.to_dict(),
            "responses": [],
        }
        harness2.deliver("P2", "P1", fake_commit)
        events = harness2.events_of("P1", MisbehaviourEvent)
        assert any(e.kind == "protocol-abuse" for e in events)
        assert engine(harness2, "P1").busy  # still waiting, not corrupted

    def test_proposal_from_non_member_rejected(self):
        harness = make_harness(2, seed=32)
        outsider = EngineHarness(["P3"], seed=33)
        found(outsider, "obj", ["P3"], {"v": 0})
        # P3 crafts a proposal for the P1/P2 object and sends it to P2.
        rogue = outsider.party("P3").session("obj").state
        run_id, output = rogue.propose_overwrite({"v": 666})
        logged = outsider.party("P3").ctx.evidence.find("proposal-sent",
                                                        run_id=run_id)
        message = propose_message(
            SignedPart.from_dict(logged.payload["proposal"]), {"v": 666})
        harness.deliver("P3", "P2", message)
        run = [r for r in engine(harness, "P2").runs()
               if r.proposer == "P3"]
        assert run and not run[0].own_decision.accepted
        assert any("not a group member" in d
                   for d in run[0].own_decision.diagnostics)

    def test_run_completed_events_carry_evidence(self):
        harness = make_harness(seed=34)
        run_id, output = engine(harness, "P1").propose_overwrite({"v": 1})
        harness.pump("P1", output)
        completed = harness.events_of("P1", RunCompleted)[0]
        assert completed.evidence is not None
        assert completed.evidence["type"] == "authenticated-decision"
        assert completed.evidence["valid"] is True
