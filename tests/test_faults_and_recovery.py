"""Safety under misbehaviour (section 4.4) and liveness under bounded
temporary failures (section 4.1)."""

from __future__ import annotations

import pytest

from repro.core import DictB2BObject
from repro.errors import ValidationFailed
from repro.faults import (
    DivergentBody,
    DolevYaoIntruder,
    FaultSchedule,
    ForgedCommitAuth,
    MessageRecorder,
    SelectiveCommit,
    SelectiveProposal,
    SuppressCommits,
    SuppressResponses,
    TamperedCommitResponses,
    bounded_failure_schedule,
    tamper_body,
    tamper_commit_auth,
)
from repro.protocol.validation import CallbackValidator, Decision


def found_dict(community, object_name="shared"):
    objects = {name: DictB2BObject() for name in community.names()}
    controllers = community.found_object(object_name, objects)
    return controllers, objects


def write(controllers, objects, org, **attrs):
    controller = controllers[org]
    controller.enter()
    controller.overwrite()
    for key, value in attrs.items():
        objects[org].set_attribute(key, value)
    return controller.leave()


class TestByzantineSafety:
    """Every attack of section 4.4: honest replicas never install invalid
    state, and detection produces attributable evidence."""

    def test_suppressed_commit_blocks_but_preserves_safety(self, make_community):
        community = make_community(3, seed=50)
        controllers, objects = found_dict(community)
        SuppressCommits(community.node("Org1"))
        write(controllers, objects, "Org1", x=1)
        community.settle(2.0)
        for org in ["Org2", "Org3"]:
            engine = community.node(org).party.session("shared").state
            assert engine.agreed_state == {}
            assert engine.busy  # evidence that the run is still active
        blocked = community.node("Org2").check_progress(timeout=0.5)
        assert blocked

    def test_suppressed_response_blocks_proposer(self, make_community):
        community = make_community(2, seed=51)
        controllers, objects = found_dict(community)
        SuppressResponses(community.node("Org2"))
        from repro.core import DEFERRED_SYNCHRONOUS
        controllers["Org1"].mode = DEFERRED_SYNCHRONOUS
        ticket = write(controllers, objects, "Org1", x=1)
        community.settle(2.0)
        assert not ticket.done
        # Org2 got the content but can never demonstrate validity
        assert community.node("Org2").party.session("shared").state.agreed_state == {}

    def test_selective_proposal_cannot_reach_unanimity(self, make_community):
        community = make_community(3, seed=52)
        controllers, objects = found_dict(community)
        SelectiveProposal(community.node("Org1"), excluded=["Org3"])
        from repro.core import DEFERRED_SYNCHRONOUS
        controllers["Org1"].mode = DEFERRED_SYNCHRONOUS
        ticket = write(controllers, objects, "Org1", x=1)
        community.settle(2.0)
        assert not ticket.done  # cannot complete without Org3's response
        assert community.node("Org3").party.session("shared").state.agreed_state == {}

    def test_selective_commit_detected_by_excluded_member(self, make_community):
        community = make_community(3, seed=53)
        controllers, objects = found_dict(community)
        SelectiveCommit(community.node("Org1"), excluded=["Org3"])
        write(controllers, objects, "Org1", x=1)
        community.settle(2.0)
        # Org2 installed (it received a complete valid bundle)...
        assert community.node("Org2").party.session("shared").state.agreed_state == {"x": 1}
        # ...Org3 can show the run is still active.
        engine3 = community.node("Org3").party.session("shared").state
        assert engine3.busy and engine3.agreed_state == {}
        # Any honest party that received m3 can relay it (section 4.4),
        # from its evidence log: the decision holds every part of m3 and
        # the authenticator.
        (decision,) = [entry.payload for entry in community.node(
            "Org2").ctx.evidence.entries("authenticated-decision")]
        commit = {"msg_type": "commit", "object": "shared",
                  **{key: decision[key] for key in
                     ("new_sid", "auth", "proposal", "responses")}}
        output = community.node("Org3").party.handle("Org2", commit)
        community.node("Org3")._process_output(output)
        community.settle(0.5)
        assert engine3.agreed_state == {"x": 1}

    def test_divergent_bodies_invalidate_and_attribute(self, make_community):
        community = make_community(3, seed=54)
        controllers, objects = found_dict(community)
        DivergentBody(community.node("Org1"), victim="Org2")
        with pytest.raises(ValidationFailed):
            write(controllers, objects, "Org1", x=1)
        community.settle(1.0)
        for org in community.names():
            assert community.node(org).party.session("shared").state.agreed_state == {}
        # the cross-responder body-hash check attributes the divergence
        assert any(r.kind == "selective-send"
                   for r in community.node("Org3").misbehaviour_reports)

    def test_forged_commit_rejected(self, make_community):
        community = make_community(2, seed=55)
        controllers, objects = found_dict(community)
        ForgedCommitAuth(community.node("Org1"))
        write(controllers, objects, "Org1", x=1)
        community.settle(1.0)
        engine2 = community.node("Org2").party.session("shared").state
        assert engine2.agreed_state == {}
        assert any(r.kind == "forged-commit"
                   for r in community.node("Org2").misbehaviour_reports)

    def test_veto_flipped_in_bundle_detected(self, make_community):
        community = make_community(3, seed=56)
        controllers, objects = found_dict(community)
        community.node("Org3").party.session("shared").state.validator = (
            CallbackValidator(state=lambda p, c, pr: Decision.reject("veto"))
        )
        TamperedCommitResponses(community.node("Org1"))
        with pytest.raises(ValidationFailed):
            write(controllers, objects, "Org1", x=1)
        community.settle(1.0)
        # no honest party can be made to install the vetoed state
        for org in ["Org2", "Org3"]:
            assert community.node(org).party.session("shared").state.agreed_state == {}
        assert any(r.kind == "invalid-signature"
                   for r in community.node("Org2").misbehaviour_reports)

    def test_replayed_proposal_is_idempotent(self, make_community):
        community = make_community(2, seed=57)
        controllers, objects = found_dict(community)
        recorder = MessageRecorder(community.node("Org1"), msg_type="propose")
        write(controllers, objects, "Org1", x=1)
        community.settle(0.5)
        before = community.node("Org2").party.session("shared").state.agreed_sid
        recorder.replay()
        community.settle(0.5)
        after = community.node("Org2").party.session("shared").state.agreed_sid
        assert before == after  # replay had no effect

    def test_null_transition_vetoed(self, make_community):
        community = make_community(2, seed=58)
        controllers, objects = found_dict(community)
        write(controllers, objects, "Org1", x=1)
        community.settle(0.5)
        controller = controllers["Org1"]
        controller.enter()
        controller.overwrite()  # no actual change
        with pytest.raises(ValidationFailed) as excinfo:
            controller.leave()
        assert any("null" in d for d in excinfo.value.diagnostics)


class TestDolevYaoIntruder:
    def test_eavesdropping_on_insecure_channels(self, make_community):
        community = make_community(2, seed=60)
        controllers, objects = found_dict(community)
        intruder = DolevYaoIntruder(community.runtime.network)
        write(controllers, objects, "Org1", secret="s3cret")
        community.settle(0.5)
        learned = intruder.knowledge()
        proposals = [m for m in learned if m.get("msg_type") == "propose"]
        assert proposals and proposals[0]["body"]["secret"] == "s3cret"

    def test_body_tampering_detected(self, make_community):
        community = make_community(2, seed=61)
        controllers, objects = found_dict(community)
        intruder = DolevYaoIntruder(community.runtime.network)
        intruder.rewrite_payloads(tamper_body)
        with pytest.raises(ValidationFailed):
            write(controllers, objects, "Org1", x=1)
        community.settle(0.5)
        assert community.node("Org2").party.session("shared").state.agreed_state == {}
        assert intruder.modified > 0

    def test_commit_auth_tampering_detected(self, make_community):
        community = make_community(2, seed=62)
        controllers, objects = found_dict(community)
        intruder = DolevYaoIntruder(community.runtime.network)
        intruder.rewrite_payloads(tamper_commit_auth)
        write(controllers, objects, "Org1", x=1)
        community.settle(1.0)
        engine2 = community.node("Org2").party.session("shared").state
        assert engine2.agreed_state == {}
        assert any(r.kind == "forged-commit"
                   for r in community.node("Org2").misbehaviour_reports)

    def test_secure_channels_prevent_rewriting(self, make_community):
        community = make_community(2, seed=63)
        controllers, objects = found_dict(community)
        intruder = DolevYaoIntruder(community.runtime.network,
                                    secure_channels=True)
        intruder.rewrite_payloads(tamper_body)
        write(controllers, objects, "Org1", x=1)
        community.settle(0.5)
        assert intruder.modified == 0
        assert community.node("Org2").party.session("shared").state.agreed_state == {"x": 1}

    def test_message_removal_only_delays(self, make_community):
        community = make_community(2, seed=64)
        controllers, objects = found_dict(community)
        intruder = DolevYaoIntruder(community.runtime.network)
        window = {"active": True}
        intruder.drop_when(lambda env: window["active"])
        community.runtime.network.schedule(
            1.0, lambda: window.update(active=False)
        )
        write(controllers, objects, "Org1", x=1)
        community.settle(5.0)
        assert community.node("Org2").party.session("shared").state.agreed_state == {"x": 1}
        assert intruder.dropped > 0

    def test_delaying_messages_preserves_outcome(self, make_community):
        community = make_community(2, seed=65)
        controllers, objects = found_dict(community)
        intruder = DolevYaoIntruder(community.runtime.network)
        intruder.delay_when(
            lambda env: 0.4 if env.payload.get("type") == "data" else 0.0
        )
        write(controllers, objects, "Org1", x=1)
        community.settle(3.0)
        assert community.node("Org2").party.session("shared").state.agreed_state == {"x": 1}
        assert intruder.delayed > 0

    def test_injected_forgery_is_dropped(self, make_community):
        community = make_community(2, seed=66)
        controllers, objects = found_dict(community)
        intruder = DolevYaoIntruder(community.runtime.network)
        intruder.inject("Org1", "Org2", {
            "msg_type": "propose", "object": "shared", "proposal": "garbage",
        })
        community.settle(0.5)
        assert community.node("Org2").party.session("shared").state.agreed_state == {}


class TestLiveness:
    """If no party misbehaves, agreed interactions take place despite a
    bounded number of temporary failures."""

    def test_crash_and_recovery_of_responder(self, make_community):
        community = make_community(3, seed=70)
        controllers, objects = found_dict(community)
        node2 = community.node("Org2")
        network = community.runtime.network
        network.schedule(0.001, node2.crash)
        network.schedule(1.0, node2.recover)
        write(controllers, objects, "Org1", x=1)
        community.settle(2.0)
        for org in community.names():
            assert community.node(org).party.session("shared").state.agreed_state == {"x": 1}

    def test_crash_and_recovery_of_proposer(self, make_community):
        from repro.core import DEFERRED_SYNCHRONOUS
        community = make_community(3, seed=71)
        controllers, objects = found_dict(community)
        controllers["Org1"].mode = DEFERRED_SYNCHRONOUS
        node1 = community.node("Org1")
        network = community.runtime.network
        # crash the proposer immediately after it proposes, recover later
        ticket = write(controllers, objects, "Org1", x=1)
        node1.crash()
        community.settle(1.0)
        node1.recover()
        community.settle(5.0)
        assert ticket.done and ticket.valid
        for org in community.names():
            assert community.node(org).party.session("shared").state.agreed_state == {"x": 1}

    def test_partition_heals_and_run_completes(self, make_community):
        community = make_community(3, seed=72)
        controllers, objects = found_dict(community)
        network = community.runtime.network
        network.schedule(0.0, lambda: network.partition({"Org1", "Org2"}, {"Org3"}))
        network.schedule(1.5, network.heal_partition)
        write(controllers, objects, "Org1", x=1)
        community.settle(3.0)
        for org in community.names():
            assert community.node(org).party.session("shared").state.agreed_state == {"x": 1}

    def test_fault_schedule_round_robin(self, make_community):
        community = make_community(3, seed=73)
        controllers, objects = found_dict(community)
        schedule = bounded_failure_schedule(
            community, community.names(), failures=3,
            period=1.0, downtime=0.3, kind="crash",
        )
        schedule.arm()
        assert schedule.total_downtime() == pytest.approx(0.9)
        for i in range(3):
            write(controllers, objects, "Org1", **{f"k{i}": i})
        community.settle(6.0)
        for org in community.names():
            state = community.node(org).party.session("shared").state.agreed_state
            assert state == {"k0": 0, "k1": 1, "k2": 2}

    def test_partition_schedule(self, make_community):
        community = make_community(4, seed=74)
        controllers, objects = found_dict(community)
        schedule = FaultSchedule(community)
        schedule.partition([["Org1", "Org2"], ["Org3", "Org4"]], 0.05, 1.2)
        schedule.arm()
        write(controllers, objects, "Org1", x=1)
        community.settle(5.0)
        for org in community.names():
            assert community.node(org).party.session("shared").state.agreed_state == {"x": 1}

    def test_liveness_over_lossy_network(self, make_community, lossy_profile):
        community = make_community(3, seed=75, profile=lossy_profile)
        controllers, objects = found_dict(community)
        for i in range(5):
            write(controllers, objects, "Org1", **{f"k{i}": i})
        community.settle(30.0)
        expected = {f"k{i}": i for i in range(5)}
        for org in community.names():
            assert community.node(org).party.session("shared").state.agreed_state == expected


class TestRecoveryFromDurableState:
    def test_file_backed_party_recovers_evidence_and_checkpoints(self, tmp_path):
        from repro.storage.backends import FileRecordStore
        from repro.storage.checkpoint import CheckpointStore
        from repro.storage.journal import MessageJournal
        from repro.storage.log import NonRepudiationLog
        from repro.protocol.context import PartyContext
        from tests.engine_helpers import _keypair

        def build_ctx():
            store = FileRecordStore(str(tmp_path / "log.jsonl"))
            return PartyContext(
                party_id="A",
                signer=_keypair("A").signer(),
                resolver=lambda pid: _keypair(pid).verifier(),
                evidence=NonRepudiationLog("A", store),
                journal=MessageJournal("A", store),
                checkpoints=CheckpointStore(store),
            )

        ctx = build_ctx()
        ctx.evidence.record("proposal-sent", {"run_id": "r1"})
        ctx.journal.record_message("r1", "sent", "B", {"m": 1})
        ctx.checkpoints.save("obj", {"seq": 1, "rh": b"", "sh": b""}, {"v": 1})
        ctx.evidence.store.close()

        recovered = build_ctx()
        assert recovered.evidence.verify_chain() == 1
        assert recovered.journal.open_runs() == {"r1"}
        assert recovered.checkpoints.require_latest("obj").state == {"v": 1}


class TestPermanentFailure:
    """Section 7: 'relaxing failure assumptions (for example: a crashed
    node not recovering)' — the remedy available today is eviction."""

    def test_evict_permanently_crashed_member_and_make_progress(self, make_community):
        community = make_community(3, seed=99)
        controllers, objects = found_dict(community)
        write(controllers, objects, "Org1", before=1)
        community.settle(1.0)
        # Org3 dies and never comes back.
        community.runtime.network.crash("Org3")
        # New state changes block (unanimity needs Org3)...
        from repro.core import DEFERRED_SYNCHRONOUS
        controllers["Org1"].mode = DEFERRED_SYNCHRONOUS
        ticket = write(controllers, objects, "Org1", stuck=1)
        community.settle(2.0)
        assert not ticket.done
        # ...so the survivors abort the blocked run and evict Org3.
        engine1 = community.node("Org1").party.session("shared").state
        out = engine1.abort_active_run("Org3 presumed dead")
        community.node("Org1")._process_output(out)
        # Org2 is also stuck awaiting m3 for the blocked run; it abandons
        # it locally too (operator decision backed by blocked-run
        # evidence).
        engine2 = community.node("Org2").party.session("shared").state
        out = engine2.abort_active_run("Org3 presumed dead")
        community.node("Org2")._process_output(out)
        controllers["Org1"].evict(["Org3"])
        community.settle(2.0)
        assert controllers["Org1"].members() == ["Org1", "Org2"]
        # Progress resumes among the survivors.
        controllers["Org1"].mode = "synchronous"
        write(controllers, objects, "Org1", after=2)
        community.settle(1.0)
        assert objects["Org2"].get_attribute("after") == 2
        # Safety for the departed: Org3 never saw anything invalid; its
        # replica simply stopped at the last state it agreed.
        engine3 = community.node("Org3").party.session("shared").state
        assert engine3.agreed_state == {"before": 1}
