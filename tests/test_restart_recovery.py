"""Full process restart: rebuilding engines from durable state.

Beyond transient crash/recovery (tested in test_faults_and_recovery),
these tests model losing *all in-memory state*: a node is rebuilt from
its checkpoint store, journal and evidence log via
``Community.restart_node`` + ``OrganisationNode.restore_object``.
"""

from __future__ import annotations

import pytest

from repro.core import (
    DEFERRED_SYNCHRONOUS,
    Community,
    DictB2BObject,
    SimRuntime,
)
from repro.errors import CheckpointError, MembershipError
from repro.protocol.validation import CallbackValidator, Decision
from repro.storage.journal import MessageJournal


def build(names=("A", "B", "C"), seed=0, mode=DEFERRED_SYNCHRONOUS):
    community = Community(list(names), runtime=SimRuntime(seed=seed))
    objects = {name: DictB2BObject() for name in names}
    controllers = community.found_object("ledger", objects, mode=mode)
    return community, controllers, objects


def write(community, controllers, objects, org, wait=True, **attrs):
    controller = controllers[org]
    controller.enter()
    controller.overwrite()
    for key, value in attrs.items():
        objects[org].set_attribute(key, value)
    ticket = controller.leave()
    if wait:
        controller.coord_commit(ticket)
        community.settle(1.0)
    return ticket


class TestQuiescentRestart:
    def test_agreed_state_and_group_restored(self):
        community, controllers, objects = build(seed=1)
        write(community, controllers, objects, "A", k=1)
        write(community, controllers, objects, "B", m=2)

        node = community.restart_node("B")
        replica = DictB2BObject()
        controller = node.restore_object("ledger", replica)
        assert replica.attributes() == {"k": 1, "m": 2}
        session = node.party.session("ledger")
        assert session.group.members == ["A", "B", "C"]
        assert session.state.agreed_sid.seq == 2

    def test_restarted_node_can_propose(self):
        community, controllers, objects = build(seed=2)
        write(community, controllers, objects, "A", k=1)
        node = community.restart_node("B")
        replica = DictB2BObject()
        controller = node.restore_object("ledger", replica)
        controller.enter()
        controller.overwrite()
        replica.set_attribute("after", "restart")
        controller.coord_commit(controller.leave())
        community.settle(1.0)
        assert objects["A"].get_attribute("after") == "restart"

    def test_restarted_node_can_respond(self):
        community, controllers, objects = build(seed=3)
        write(community, controllers, objects, "A", k=1)
        node = community.restart_node("C")
        node.restore_object("ledger", DictB2BObject())
        write(community, controllers, objects, "A", k2=2)
        assert node.party.session("ledger").state.agreed_state == {
            "k": 1, "k2": 2}

    def test_restore_without_checkpoints_fails(self):
        community, controllers, objects = build(seed=4)
        node = community.restart_node("A")
        with pytest.raises(CheckpointError):
            node.restore_object("ghost-object", DictB2BObject())

    def test_double_restore_rejected(self):
        community, controllers, objects = build(seed=5)
        write(community, controllers, objects, "A", k=1)
        node = community.restart_node("A")
        node.restore_object("ledger", DictB2BObject())
        with pytest.raises(MembershipError):
            node.restore_object("ledger", DictB2BObject())

    def test_unknown_node_restart_rejected(self):
        community, controllers, objects = build(seed=6)
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            community.restart_node("Nobody")


class TestInFlightProposerRestart:
    def test_open_run_resumes_and_completes(self):
        community, controllers, objects = build(seed=10)
        write(community, controllers, objects, "A", k=1)
        # C is down; A's next proposal blocks mid-run.
        community.runtime.network.crash("C")
        ticket = write(community, controllers, objects, "A", wait=False, k=2)
        community.settle(1.0)
        assert not ticket.done
        # Full restart of A: in-memory run state is gone.
        node = community.restart_node("A")
        replica = DictB2BObject()
        node.restore_object("ledger", replica)
        engine = node.party.session("ledger").state
        assert engine.busy  # the run was resumed from the journal
        assert engine.current_state == {"k": 2}  # invariant 2 preserved
        assert engine.agreed_state == {"k": 1}
        # C returns; the resumed run completes everywhere.
        community.runtime.network.recover("C")
        community.node("C").recover()
        community.settle(5.0)
        for name in community.names():
            state = community.node(name).party.session("ledger").state
            assert state.agreed_state == {"k": 2}, name
        assert replica.get_attribute("k") == 2

    def test_recovered_run_reuses_original_identifiers(self):
        community, controllers, objects = build(seed=11)
        community.runtime.network.crash("C")
        ticket = write(community, controllers, objects, "A", wait=False, k=1)
        community.settle(1.0)
        original = community.node("A").party.session("ledger").state
        original_sid = original.active_run().new_sid
        node = community.restart_node("A")
        node.restore_object("ledger", DictB2BObject())
        resumed = node.party.session("ledger").state.active_run()
        assert resumed.new_sid == original_sid
        assert resumed.auth is not None  # authenticator survived via journal

    def test_responses_received_before_restart_are_kept(self):
        community, controllers, objects = build(seed=12)
        community.runtime.network.crash("C")
        write(community, controllers, objects, "A", wait=False, k=1)
        community.settle(1.0)  # B's response arrives, C's does not
        node = community.restart_node("A")
        node.restore_object("ledger", DictB2BObject())
        run = node.party.session("ledger").state.active_run()
        assert "B" in run.responses
        assert run.waiting_on() == ["C"]

    def test_stale_open_run_is_discarded(self):
        # A proposes while C is down, then A crashes; the OTHERS later
        # move on is impossible under unanimity, but the group moving past
        # the run is modelled by completing it before the restart: here we
        # simply verify a run whose seq is not beyond agreed is closed.
        community, controllers, objects = build(seed=13)
        write(community, controllers, objects, "A", k=1)
        community.runtime.network.crash("C")
        ticket = write(community, controllers, objects, "A", wait=False, k=2)
        community.settle(1.0)
        # Manually mark the agreed state as having advanced to seq 2
        # (as if the run had completed but the close record was lost).
        node_a = community.node("A")
        engine = node_a.party.session("ledger").state
        run = engine.active_run()
        from repro.protocol.events import Output
        output = Output()
        engine._settle(run, True, [], output)
        node_a._process_output(output)
        node = community.restart_node("A")
        node.restore_object("ledger", DictB2BObject())
        restored = node.party.session("ledger").state
        assert not restored.busy
        assert restored.agreed_state == {"k": 2}


class TestInFlightResponderRestart:
    def test_responder_rebuilds_and_answers_retransmission(self):
        from repro.transport.inmemory import LinkProfile
        community, controllers, objects = build(seed=20)
        write(community, controllers, objects, "A", k=1)
        # B receives A's proposal but its outbound responses are lost
        # before B's process dies: an asymmetric B -> A fault.
        network = community.runtime.network
        network.set_link_profile("B", "A", LinkProfile(drop_probability=0.999999))
        ticket = write(community, controllers, objects, "A", wait=False, k2=2)
        community.settle(1.0)
        assert not ticket.done
        engine_old = community.node("B").party.session("ledger").state
        open_runs = [r for r in engine_old.runs() if r.outcome is None]
        assert open_runs  # B accepted and is awaiting m3
        node = community.restart_node("B")
        node.restore_object("ledger", DictB2BObject())
        engine = node.party.session("ledger").state
        # B re-drove the proposal from its journal: decision recomputed
        # and the run is live again.
        assert any(r.outcome is None for r in engine.runs())
        network.set_link_profile("B", "A", LinkProfile())
        community.settle(10.0)
        for name in community.names():
            state = community.node(name).party.session("ledger").state
            assert state.agreed_state == {"k": 1, "k2": 2}, (
                name, state.agreed_state)
        assert ticket.done and ticket.valid

    def test_replay_protection_survives_restart(self):
        community, controllers, objects = build(seed=21)
        from repro.faults import MessageRecorder
        recorder = MessageRecorder(community.node("A"), msg_type="propose")
        write(community, controllers, objects, "A", k=1)
        node = community.restart_node("B")
        node.restore_object("ledger", DictB2BObject())
        engine = node.party.session("ledger").state
        before = engine.agreed_sid
        recorder.replay()  # replay the old m1 at the restarted B
        community.settle(1.0)
        assert engine.agreed_sid == before
        # the replayed tuple was already in the recovered seen-set
        assert engine._proposal_key(before) in engine._seen_proposal_keys


class TestFileBackedRestart:
    def test_restart_from_disk_stores(self, tmp_path):
        """End-to-end durability: the party's records on disk, node
        rebuilt from the file only."""
        from repro.storage.backends import FileRecordStore
        from repro.storage.checkpoint import CheckpointStore
        from repro.storage.journal import MessageJournal
        from repro.storage.log import NonRepudiationLog

        community = Community(["A", "B"], runtime=SimRuntime(seed=30))
        ctx = community.node("A").ctx

        def rewire() -> None:
            store = FileRecordStore(str(tmp_path / "log.jsonl"))
            ctx.evidence = NonRepudiationLog("A", store)
            ctx.journal = MessageJournal("A", store)
            ctx.checkpoints = CheckpointStore(store)

        rewire()  # onto a file-backed store before any activity

        objects = {name: DictB2BObject() for name in community.names()}
        controllers = community.found_object("ledger", objects)
        controller = controllers["A"]
        controller.enter()
        controller.overwrite()
        objects["A"].set_attribute("k", 1)
        controller.leave()
        community.settle(1.0)

        # "power cycle": close the file, rebuild the views from disk
        ctx.evidence.store.close()
        rewire()

        node = community.restart_node("A")
        replica = DictB2BObject()
        node.restore_object("ledger", replica)
        assert replica.get_attribute("k") == 1
        assert node.ctx.evidence.verify_chain() > 0


class TestStorageDirCommunity:
    def test_community_with_storage_dir_is_durable(self, tmp_path):
        import os

        from repro.core import Community, SimRuntime

        storage = str(tmp_path / "stores")
        community = Community(["A", "B"], runtime=SimRuntime(seed=50),
                              storage_dir=storage)
        objects = {name: DictB2BObject() for name in community.names()}
        controllers = community.found_object("ledger", objects)
        controller = controllers["A"]
        controller.enter()
        controller.overwrite()
        objects["A"].set_attribute("k", 7)
        controller.leave()
        community.settle(1.0)
        # the durable files exist on disk
        for kind in ("evidence", "journal", "checkpoints"):
            assert os.path.exists(os.path.join(storage, "A", f"{kind}.jsonl"))
        # restart A over the same stores and restore the object
        node = community.restart_node("A")
        replica = DictB2BObject()
        node.restore_object("ledger", replica)
        assert replica.get_attribute("k") == 7
        assert node.ctx.evidence.verify_chain() > 0


class TestDuplicateAfterRestart:
    """A duplicate that reaches a party which settled the run and then
    restarted is a duplicate, not misbehaviour: the run is gone from the
    run table, but the journal still knows it was closed."""

    @staticmethod
    def _restart(community, name):
        node = community.restart_node(name)
        node.restore_object("ledger", DictB2BObject())
        return node

    def test_duplicate_state_commit_is_no_selective_send(self):
        from repro.faults import MessageRecorder
        community, controllers, objects = build(seed=40)
        recorder = MessageRecorder(community.node("A"), msg_type="commit")
        write(community, controllers, objects, "A", k=1)
        assert [to for to, _ in recorder.recorded] == ["B", "C"]
        node = self._restart(community, "B")
        recorder.replay(0)
        community.settle(1.0)
        assert node.misbehaviour_reports == []
        assert node.party.session("ledger").state.agreed_state == {"k": 1}
        # The same duplicate at C's live engine is ignored, as before.
        recorder.replay(1)
        community.settle(1.0)
        assert community.node("C").misbehaviour_reports == []

    def test_duplicate_connect_commit_is_no_selective_send(self):
        from repro.faults import MessageRecorder
        community, controllers, objects = build(seed=43)
        write(community, controllers, objects, "A", k=1)
        community.add_organisation("D")
        recorder = MessageRecorder(community.node("C"),
                                   msg_type="connect_commit")
        community.node("D").connect("ledger", DictB2BObject(), "C")
        community.settle(1.0)
        assert [to for to, _ in recorder.recorded] == ["A", "B"]
        node = self._restart(community, "B")
        assert node.party.session("ledger").group.members == ["A", "B", "C", "D"]
        recorder.replay(1)
        community.settle(1.0)
        assert node.misbehaviour_reports == []
        assert not node.party.session("ledger").membership.busy


class TestSponsorRestartMidJoin:
    """Membership runs resume from the journal like state runs do."""

    def _blocked_join(self, seed):
        community, controllers, objects = build(seed=seed)
        write(community, controllers, objects, "A", k=1)
        community.add_organisation("D")
        # B is down: the sponsor's run collects A's response and blocks.
        community.runtime.network.crash("B")
        joined = DictB2BObject()
        ticket = community.node("D").propagate_connect("ledger", joined, "C")
        community.settle(1.0)
        assert not ticket.done
        return community, controllers, objects, joined, ticket

    def _assert_quiescent(self, community, members):
        for name in members:
            node = community.node(name)
            session = node.party.session("ledger")
            assert session.group.members == members, name
            assert not session.membership.busy, name
            assert not session.state.busy, name
            assert not session.state.membership_change_active, name
            assert node.ctx.journal.open_runs() == set(), name
            assert node.misbehaviour_reports == [], name

    def test_sponsor_restart_resumes_the_join(self):
        community, controllers, objects, joined, ticket = self._blocked_join(50)
        sponsor = community.restart_node("C")
        sponsor.restore_object("ledger", DictB2BObject())
        membership = sponsor.party.session("ledger").membership
        state = sponsor.party.session("ledger").state
        (run,) = membership.runs()
        assert membership.busy and state.membership_change_active
        assert run.role == "sponsor" and run.kind == "connect"
        assert run.auth is not None and run.subjects == ["D"]
        assert "A" in run.responses and run.waiting_on() == ["B"]

        community.runtime.network.recover("B")
        community.node("B").recover()
        community.settle(5.0)
        assert ticket.done and ticket.valid
        assert joined.attributes() == {"k": 1}
        self._assert_quiescent(community, ["A", "B", "C", "D"])
        # The object takes updates again, from old and new members.
        later = community.node("D").submit_update("ledger", {"after": "join"})
        community.settle(5.0)
        assert later.done and later.valid
        assert objects["A"].get_attribute("after") == "join"

    def test_member_restart_mid_join_answers_again(self):
        community, controllers, objects, joined, ticket = self._blocked_join(51)
        member = community.restart_node("A")
        member.restore_object("ledger", DictB2BObject())
        session = member.party.session("ledger")
        assert session.membership.busy
        assert session.state.membership_change_active
        community.runtime.network.recover("B")
        community.node("B").recover()
        community.settle(5.0)
        assert ticket.done and ticket.valid
        self._assert_quiescent(community, ["A", "B", "C", "D"])


class TestRequestEntriesAreClosed:
    """A request to a sponsor is journalled under
    ``<kind>-request:<digest>``; the entry closes when the request is
    decided or refused, so ``open_runs`` does not grow with requests."""

    class Policy(DictB2BObject):
        def validate_connect(self, subject, members):
            return (Decision.reject("no E") if subject == "E"
                    else Decision.accept())

        def validate_disconnect(self, subject, voluntary, proposer):
            return (Decision.reject("C stays") if subject == "C"
                    else Decision.accept())

    def test_join_eviction_and_leave_requests_close(self):
        names = ["A", "B", "C"]
        community = Community(names, runtime=SimRuntime(seed=70))
        community.found_object(
            "ledger", {name: self.Policy() for name in names})

        def settled(ticket, valid: bool) -> None:
            community.settle(5.0)
            assert ticket.done and ticket.valid is valid, ticket.diagnostics

        community.add_organisation("D")
        settled(community.node("D").propagate_connect(
            "ledger", self.Policy(), "C"), True)
        community.add_organisation("E")
        settled(community.node("E").propagate_connect(
            "ledger", self.Policy(), "D"), False)
        # D, the newest member, sponsors what A asks for: an eviction it
        # refuses outright, one the group agrees to, and A's departure.
        settled(community.node("A").propagate_eviction("ledger", ["C"]), False)
        settled(community.node("A").propagate_eviction("ledger", ["B"]), True)
        settled(community.node("A").propagate_disconnect("ledger"), True)
        assert community.node("D").party.session("ledger").group.members \
            == ["C", "D"]

        requests = {"A": ["evict-request:", "evict-request:",
                          "disconnect-request:"],
                    "D": ["connect-request:"], "E": ["connect-request:"]}
        for name, kinds in requests.items():
            journal = community.node(name).ctx.journal
            records = [record for record in journal.all_records()
                       if "-request:" in record["run_id"]]
            assert sorted(record["run_id"].split(":")[0] + ":"
                          for record in records
                          if record["event"] == "message") == sorted(kinds)
            assert sum(record["event"] == "close"
                       for record in records) == len(kinds), name
            assert journal.open_runs() == set(), name
            # ... and for a journal that re-scans the records, as a
            # restarted process does.
            assert MessageJournal(name, journal.store).open_runs() == set()

        node = community.restart_node("D")
        node.restore_object("ledger", self.Policy())
        assert node.ctx.journal.open_runs() == set()
        settled(node.submit_update("ledger", {"after": "restart"}), True)
