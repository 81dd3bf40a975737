"""The proposal pipeline: batched runs, busy retries, replay window."""

from __future__ import annotations

import pytest

from repro.core import Community, DictB2BObject
from repro.obs.recording import RecordingInstrumentation
from repro.protocol.coordination import OUTCOME_INVALID
from repro.protocol.events import MisbehaviourEvent, RunCompleted
from repro.protocol.pipeline import (
    Overwrite,
    ProposalPipeline,
    is_transient_rejection,
)
from repro.protocol.validation import CallbackValidator, Decision

from tests.engine_helpers import EngineHarness, OffsetClock, found


def make_harness(n=3, initial=None, seed=0, **kwargs):
    names = [f"P{i + 1}" for i in range(n)]
    harness = EngineHarness(names, seed=seed)
    found(harness, "obj", names, initial if initial is not None else {"v": 0},
          **kwargs)
    return harness


def engine(harness, name):
    return harness.party(name).session("obj").state


def completed_run(harness, name, run_id):
    for event in harness.events_of(name, RunCompleted):
        if event.run_id == run_id:
            return event
    raise AssertionError(f"no RunCompleted for {run_id} at {name}")


class TestBatchedProposals:
    def test_batch_folds_updates_in_order(self):
        harness = make_harness(3, initial={"v": 0})
        run_id, output = engine(harness, "P1").propose_update_batch(
            [{"a": 1}, {"b": 2}, {"v": 9}]
        )
        harness.pump("P1", output)
        for name in harness.names:
            assert engine(harness, name).agreed_state == {
                "a": 1, "b": 2, "v": 9,
            }
        assert completed_run(harness, "P1", run_id).valid

    def test_batch_costs_one_run(self):
        harness = make_harness(2, initial={"v": 0})
        _, output = engine(harness, "P1").propose_update_batch(
            [{"k": i} for i in range(10)]
        )
        harness.pump("P1", output)
        assert engine(harness, "P2").agreed_state == {"v": 0, "k": 9}
        # Ten updates advanced the agreed sequence by exactly one.
        assert engine(harness, "P2").agreed_sid.seq == 1

    def test_empty_batch_rejected_locally(self):
        harness = make_harness(2)
        with pytest.raises(ValueError):
            engine(harness, "P1").propose_update_batch([])

    def test_per_step_validation_names_the_offending_step(self):
        harness = make_harness(2, initial={"v": 0})
        engine(harness, "P2").validator = CallbackValidator(
            update=lambda update, resulting, current, proposer:
                Decision.reject("negative values forbidden")
                if update.get("v", 0) < 0 else Decision.accept()
        )
        run_id, output = engine(harness, "P1").propose_update_batch(
            [{"v": 1}, {"v": -5}, {"v": 2}]
        )
        harness.pump("P1", output)
        event = completed_run(harness, "P1", run_id)
        assert not event.valid
        assert any("batch[1]" in diag and "negative values forbidden" in diag
                   for diag in event.diagnostics), event.diagnostics
        # A policy veto rolls everyone back; no misbehaviour is implied.
        for name in harness.names:
            assert engine(harness, name).agreed_state == {"v": 0}
            assert not harness.events_of(name, MisbehaviourEvent)

    def test_replayed_batch_proposal_vetoed(self):
        harness = make_harness(2, initial={"v": 0})
        run_id, output = engine(harness, "P1").propose_update_batch(
            [{"a": 1}, {"b": 2}]
        )
        replay = [msg for _, msg in output.messages][0]
        harness.pump("P1", output)
        assert completed_run(harness, "P1", run_id).valid
        # A replay while the run record exists is answered idempotently;
        # the seen-tuple window defends the case where the record is gone
        # (post-restart recovery re-notes seen tuples from the journal).
        engine(harness, "P2")._runs.pop(run_id)
        harness.deliver("P1", "P2", replay)
        rejected = [run for run in engine(harness, "P2").runs()
                    if run.outcome == OUTCOME_INVALID]
        *_, veto = harness.party("P2").ctx.evidence.entries("response-sent")
        decision = veto.payload["response"]["payload"]["decision"]
        assert rejected and any(
            "invariant-4" in diag for diag in decision["diagnostics"])


class TestSeenWindow:
    def test_window_bounds_the_replay_set(self):
        harness = make_harness(2, initial={"v": 0})
        for name in harness.names:
            engine(harness, name).seen_window = 3
        for i in range(10):
            _, output = engine(harness, "P1").propose_update({"k": i})
            harness.pump("P1", output)
        for name in harness.names:
            state = engine(harness, name)
            assert len(state._seen_proposal_keys) <= 3
            assert len(state._seen_proposal_order) <= 3

    def test_settled_runs_are_bounded_and_old_duplicates_still_answered(
            self, monkeypatch):
        """The run table keeps open runs plus ``seen_window`` settled
        ones; a duplicate for an evicted run is answered from the journal
        and the decision evidence exactly as for a retained run."""
        from repro.protocol.engine_base import EngineBase
        monkeypatch.setattr(EngineBase, "seen_window", 3)
        harness = make_harness(2, initial={"v": 0})
        p1, p2 = harness.party("P1"), harness.party("P2")
        history = []
        for i in range(9):
            run_id, output = engine(harness, "P1").propose_update({"k": i})
            (_, m1), = output.messages
            (_, m2), = p2.handle("P1", m1).messages
            (_, m3), = p1.handle("P2", m2).messages
            assert not p2.handle("P1", m3).messages
            history.append((run_id, m2, m3))
        for name in harness.names:
            assert engine(harness, name).agreed_sid.seq == 9
            assert len(engine(harness, name).runs()) <= 3
        evicted, retained = history[0], history[-1]
        assert engine(harness, "P1").run(evicted[0]) is None
        assert engine(harness, "P1").run(retained[0]) is not None
        for run_id, m2, m3 in (evicted, retained):
            again = p1.handle("P2", m2)  # a late m2: m3 is re-issued
            assert again.messages == [("P2", m3)] and not again.events
            late = p2.handle("P1", m3)  # a late m3: nothing to do
            assert not late.messages and not late.events
        # An m2 for a run that never was is still unsolicited.
        forged = engine(harness, "P2")._signed(dict(
            evicted[1]["response"]["payload"],
            new_sid=dict(evicted[1]["response"]["payload"]["new_sid"], seq=77)))
        stray = p1.handle("P2", {"msg_type": "respond",
                                 "response": forged.to_dict()})
        assert [e.kind for e in stray.events] == ["unsolicited-response"]

    def test_recent_replay_still_caught_after_eviction(self):
        harness = make_harness(2, initial={"v": 0})
        for name in harness.names:
            engine(harness, name).seen_window = 3
        replay = None
        replay_run_id = None
        for i in range(10):
            run_id, output = engine(harness, "P1").propose_update({"k": i})
            if i == 9:
                replay = [msg for _, msg in output.messages][0]
                replay_run_id = run_id
            harness.pump("P1", output)
        engine(harness, "P2")._runs.pop(replay_run_id)
        harness.deliver("P1", "P2", replay)
        rejected = [run for run in engine(harness, "P2").runs()
                    if run.outcome == OUTCOME_INVALID]
        assert rejected
        # An evicted tuple is still blocked by invariant 3 (stale seq).
        _, output = engine(harness, "P1").propose_update({"done": True})
        harness.pump("P1", output)
        assert engine(harness, "P2").agreed_state["done"] is True


class TestTransientRejection:
    def test_busy_and_invariant1_are_transient(self):
        assert is_transient_rejection(["P2: busy: concurrent run active"])
        assert is_transient_rejection([
            "P2: busy: concurrent run active",
            "P3: invariant-1: replica is mid-transition",
        ])

    def test_policy_vetoes_are_not_transient(self):
        assert not is_transient_rejection([])
        assert not is_transient_rejection(["P2: policy says no"])
        assert not is_transient_rejection([
            "P2: busy: concurrent run active",
            "P3: policy says no",
        ])


class TestPipelineCoalescing:
    def test_submissions_during_a_run_batch_into_one_follow_up(self):
        harness = make_harness(2, initial={"v": 0})
        pipe = ProposalPipeline(engine(harness, "P1"))
        first_ticket, first_output = pipe.submit({"k": 0})
        assert pipe.inflight_run_id is not None
        # Four more submissions arrive while the first run is in flight.
        later = []
        for i in range(1, 5):
            ticket, output = pipe.submit({"k": i})
            assert not output.messages  # queued, not proposed
            later.append(ticket)
        assert pipe.depth == 4
        harness.pump("P1", first_output)
        event = completed_run(harness, "P1", pipe.inflight_run_id)
        batch_output = pipe.on_event(event)
        assert first_ticket.done and first_ticket.valid
        batch_run_id = pipe.inflight_run_id
        harness.pump("P1", batch_output)
        batch_event = completed_run(harness, "P1", batch_run_id)
        pipe.on_event(batch_event)
        assert all(t.done and t.valid for t in later)
        # One initial run plus one batched run settled all five updates.
        assert engine(harness, "P2").agreed_sid.seq == 2
        assert engine(harness, "P2").agreed_state == {
            "v": 0, "k": 4,
        }

    def test_max_batch_splits_the_queue(self):
        harness = make_harness(2, initial={"v": 0})
        pipe = ProposalPipeline(engine(harness, "P1"), max_batch=3)
        tickets = []
        first_output = None
        for i in range(7):
            ticket, output = pipe.submit({"k": i})
            if i == 0:
                first_output = output
            tickets.append(ticket)
        outputs = [first_output]
        for _ in range(10):
            if all(t.done for t in tickets):
                break
            harness.pump("P1", outputs[-1])
            event = completed_run(harness, "P1", pipe.inflight_run_id)
            outputs.append(pipe.on_event(event))
        assert all(t.done and t.valid for t in tickets)
        # 1 single + batches of at most 3 for the remaining 6 updates.
        assert engine(harness, "P2").agreed_sid.seq == 3


    def test_batch_whose_merge_raises_fails_as_a_whole_and_wedges_nothing(
            self):
        """The engine folds a batch through the merger before it starts
        a run; an update it cannot apply must not take the batch's
        tickets with it unresolved."""
        harness = make_harness(2, initial={"v": 0})
        pipe = ProposalPipeline(engine(harness, "P1"))
        first, output = pipe.submit({"k": 0})
        bad, _ = pipe.submit("not a dict")  # the default merger raises
        innocent, _ = pipe.submit({"k": 2})
        harness.pump("P1", output)
        follow_up = pipe.on_event(
            completed_run(harness, "P1", pipe.inflight_run_id))
        assert first.done and first.valid
        for ticket in (bad, innocent):
            assert ticket.done and ticket.valid is False
            assert ticket.run_id is None
            assert ticket.diagnostics[0].startswith("merge-failed: TypeError")
        assert not follow_up.messages
        assert pipe.depth == 0 and pipe.inflight_run_id is None
        assert not engine(harness, "P1").busy
        # Nothing is wedged: the next write goes through.
        again, output = pipe.submit({"k": 3})
        harness.pump("P1", output)
        pipe.on_event(completed_run(harness, "P1", pipe.inflight_run_id))
        assert again.valid
        assert engine(harness, "P2").agreed_state == {"v": 0, "k": 3}

    def test_enqueue_and_poll_leave_tickets_to_the_caller(self):
        """The queue-only form: nothing is proposed until ``poll``, and
        what ``poll`` could not propose comes back unresolved, once."""
        harness = make_harness(2, initial={"v": 0})
        pipe = ProposalPipeline(engine(harness, "P1"))
        bad = pipe.enqueue("not a dict")
        assert pipe.depth == 1 and pipe.inflight_run_id is None
        assert not pipe.poll().messages
        (ticket, diagnostics), = pipe.take_failed()
        assert ticket is bad and not bad.done
        assert diagnostics[0].startswith("merge-failed:")
        assert pipe.take_failed() == [] and pipe.depth == 0
        good = pipe.enqueue({"k": 1})
        assert pipe.inflight_run_id is None
        harness.pump("P1", pipe.poll())
        pipe.on_event(completed_run(harness, "P1", pipe.inflight_run_id))
        assert good.valid


def drain(harness, pipe, output, name="P1"):
    """Pump *output* and every follow-up proposal until the pipeline has
    nothing in flight; returns the ids of the runs that carried them."""
    runs = []
    while pipe.inflight_run_id is not None:
        runs.append(pipe.inflight_run_id)
        harness.pump(name, output)
        output = pipe.on_event(completed_run(harness, name, runs[-1]))
    return runs


def proposed_modes(harness, name="P1"):
    return {entry.payload["run_id"]: entry.payload["mode"]
            for entry in harness.party(name).ctx.evidence.entries(
                "proposal-sent")}


class TestOverwriteInTheQueue:
    def test_overwrite_keeps_its_place_and_rides_alone(self):
        """With a run in flight queue U1, U2, O, U3: three further runs,
        ``update_batch``, ``overwrite``, ``update``, FIFO across modes."""
        harness = make_harness(2, initial={"v": 0})
        pipe = ProposalPipeline(engine(harness, "P1"))
        first, output = pipe.submit({"k": 0})
        u1, u2, o, u3 = (pipe.enqueue(write) for write in (
            {"a": 1}, {"b": 2}, Overwrite({"v": 7}), {"c": 3}))
        assert pipe.depth == 4
        assert first.run_id == pipe.inflight_run_id  # known before it settles
        assert u1.run_id is None and not first.done
        runs = drain(harness, pipe, output)
        modes = proposed_modes(harness)
        assert [modes[run_id] for run_id in runs] == [
            "update", "update_batch", "overwrite", "update"]
        assert [t.run_id for t in (first, u1, u2, o, u3)] == [
            runs[0], runs[1], runs[1], runs[2], runs[3]]
        assert all(t.done and t.valid for t in (first, u1, u2, o, u3))
        for name in harness.names:
            # The overwrite replaced what U1 and U2 built; U3 came after.
            assert engine(harness, name).agreed_state == {"v": 7, "c": 3}

    def test_busy_vetoed_overwrite_goes_back_to_the_head(self):
        harness = make_harness(2, initial={"v": 0})
        proposer, responder = engine(harness, "P1"), engine(harness, "P2")
        pipe = ProposalPipeline(proposer)
        _, held = responder.propose_overwrite({"v": 100})  # P2 is mid-run
        ticket, output = pipe.submit(Overwrite({"v": 1}))
        later = pipe.enqueue({"k": 2})
        vetoed = ticket.run_id
        harness.pump("P1", output)
        assert not pipe.on_event(
            completed_run(harness, "P1", vetoed)).messages
        assert not ticket.done and pipe.busy_retries == 1
        assert [write for write, _ in pipe._queue] == [
            Overwrite({"v": 1}), {"k": 2}]
        harness.pump("P2", held)
        harness.clock.advance(pipe.retry_delay() + 1e-9)
        runs = drain(harness, pipe, pipe.poll())
        assert ticket.run_id == runs[0] != vetoed  # re-set by the retry
        modes = proposed_modes(harness)
        assert [modes[run_id] for run_id in runs] == ["overwrite", "update"]
        assert ticket.valid and later.valid
        assert responder.agreed_state == {"v": 1, "k": 2}


class TestBusyRetry:
    def test_no_backoff_is_not_a_point_in_time(self):
        """A party whose clock reads below zero proposes at once: "no
        backoff pending" used to be ``now() >= 0.0``."""
        harness = make_harness(2, initial={"v": 0})
        proposer = engine(harness, "P1")
        proposer.ctx.clock = OffsetClock(harness.clock, -3600.0)
        pipe = ProposalPipeline(proposer)
        ticket, output = pipe.submit({"k": 1})
        assert pipe.inflight_run_id is not None and pipe.retry_delay() is None
        drain(harness, pipe, output)
        assert ticket.valid
        # ... and after a settled run, not only before the first.
        again, output = pipe.submit({"k": 2})
        assert output.messages
        drain(harness, pipe, output)
        assert again.valid

    def test_benign_busy_veto_retries_without_misbehaviour(self):
        """The satellite scenario: a responder that is mid-run vetoes
        with ``busy:``; the pipeline retries once the responder's run
        settles, and neither party records misbehaviour evidence."""
        harness = make_harness(2, initial={"v": 0})
        proposer = engine(harness, "P1")
        responder = engine(harness, "P2")
        pipe = ProposalPipeline(proposer)

        # P2 starts its own run but its messages are withheld, so P2 is
        # busy and P1 does not know it.
        _, held = responder.propose_overwrite({"v": 100})

        ticket, output = pipe.submit({"mine": 1})
        run_id = pipe.inflight_run_id
        harness.pump("P1", output)
        event = completed_run(harness, "P1", run_id)
        assert not event.valid
        assert is_transient_rejection(event.diagnostics), event.diagnostics
        pipe.on_event(event)
        assert not ticket.done
        assert pipe.busy_retries == 1
        assert pipe.retry_delay() is not None

        # The responder's run now completes; contention is over.
        harness.pump("P2", held)
        assert proposer.agreed_state == {"v": 100}

        harness.clock.advance(pipe.retry_delay() + 1e-9)
        retry_output = pipe.poll()
        retry_run = pipe.inflight_run_id
        assert retry_run is not None and retry_run != run_id
        harness.pump("P1", retry_output)
        pipe.on_event(completed_run(harness, "P1", retry_run))
        assert ticket.done and ticket.valid
        for name in harness.names:
            assert engine(harness, name).agreed_state == {"v": 100, "mine": 1}
            assert not harness.events_of(name, MisbehaviourEvent)
            assert harness.party(name).ctx.evidence.find(
                "misbehaviour") is None

    def test_genuine_veto_resolves_tickets_invalid(self):
        harness = make_harness(2, initial={"v": 0})
        engine(harness, "P2").validator = CallbackValidator(
            update=lambda update, resulting, current, proposer:
                Decision.reject("policy says no")
        )
        pipe = ProposalPipeline(engine(harness, "P1"))
        ticket, output = pipe.submit({"k": 1})
        harness.pump("P1", output)
        pipe.on_event(completed_run(harness, "P1", ticket.run_id
                                    or pipe.inflight_run_id))
        assert ticket.done and ticket.valid is False
        assert any("policy says no" in diag for diag in ticket.diagnostics)
        assert pipe.busy_retries == 0

    def test_retry_attempts_are_bounded(self):
        harness = make_harness(2, initial={"v": 0})
        proposer = engine(harness, "P1")
        pipe = ProposalPipeline(proposer, max_busy_retries=2,
                                base_retry_delay=0.01)
        # P2 stays busy forever: its run is never delivered or settled.
        _, _held = engine(harness, "P2").propose_overwrite({"v": 100})

        ticket, output = pipe.submit({"mine": 1})
        for _ in range(3):
            if ticket.done:
                break
            harness.pump("P1", output)
            event = completed_run(harness, "P1", pipe.inflight_run_id)
            pipe.on_event(event)
            delay = pipe.retry_delay()
            if delay is not None:
                harness.clock.advance(delay + 1e-9)
                output = pipe.poll()
        assert ticket.done and ticket.valid is False
        assert pipe.busy_retries == 2


class TestAppsAdoptPipeline:
    def test_orders_pipelined_submission_respects_roles(self):
        from repro.apps.orders import (
            ROLE_CUSTOMER,
            ROLE_SUPPLIER,
            OrderClient,
            OrderObject,
        )

        roles = {"Customer": ROLE_CUSTOMER, "Supplier": ROLE_SUPPLIER}
        community = Community(list(roles), seed=31)
        try:
            controllers = community.found_object(
                "order", {name: OrderObject(roles) for name in roles})
            customer = OrderClient(controllers["Customer"])
            supplier = OrderClient(controllers["Supplier"])
            added = [customer.submit_add_item(f"part-{i}", i + 1)
                     for i in range(4)]
            assert all(customer.wait(t, timeout=60.0) for t in added)
            priced = supplier.submit_price_item("part-2", 30)
            assert supplier.wait(priced, timeout=60.0)
            # A role violation submitted through the pipeline is a
            # genuine veto: the ticket fails, nobody reports misbehaviour.
            bad = supplier.submit_change_quantity("part-0", 99)
            assert supplier.wait(bad, timeout=60.0) is False
            assert any("supplier may not" in diag
                       for diag in bad.diagnostics)
            community.settle()
            assert customer.order.item("part-2")["price"] == 30
            assert supplier.order.get_state() == customer.order.get_state()
            for name in roles:
                assert not community.node(name).misbehaviour_reports
        finally:
            community.close()

    def test_auction_pipelined_bids_validate_per_step(self):
        from repro.apps.auction import AuctionHouse, AuctionObject

        names = ["HouseA", "HouseB"]
        community = Community(names, seed=32)
        try:
            controllers = community.found_object(
                "auction",
                {name: AuctionObject(item="lot-1", reserve=50)
                 for name in names})
            house_a = AuctionHouse(controllers["HouseA"])
            house_b = AuctionHouse(controllers["HouseB"])
            assert house_a.wait(house_a.submit_bid("alice", 60), timeout=60.0)
            assert house_b.wait(house_b.submit_bid("bob", 75), timeout=60.0)
            low = house_a.submit_bid("carol", 70)
            assert house_a.wait(low, timeout=60.0) is False
            assert any("does not exceed" in diag for diag in low.diagnostics)
            assert house_a.wait(house_a.submit_close(), timeout=60.0)
            community.settle()
            assert house_b.auction.winner == {"bidder": "bob", "amount": 75}
            for name in names:
                assert not community.node(name).misbehaviour_reports
        finally:
            community.close()


class TestNodePipeline:
    def test_skewed_node_proposes_and_backs_off_in_its_own_time(self):
        """Org2's clock reads an hour below virtual time: its writes are
        proposed at once, and a busy veto backs off for tens of
        milliseconds, not until its clock reaches zero."""
        community = Community(["Org1", "Org2"], seed=40)
        try:
            node1, node2 = community.node("Org1"), community.node("Org2")
            node2.ctx.clock = OffsetClock(community.clock, -3600.0)
            community.found_object(
                "shared", {name: DictB2BObject() for name in community.names()})
            started = community.runtime.now()
            # Both propose at one instant and veto each other as busy.
            tickets = [node2.submit_update("shared", {"two": 1}),
                       node1.submit_update("shared", {"one": 1})]
            assert tickets[0].run_id is not None
            assert community.runtime.wait_until(
                lambda: all(ticket.done for ticket in tickets), 30.0)
            assert all(ticket.valid for ticket in tickets)
            assert node2.pipeline("shared").busy_retries >= 1
            assert community.runtime.now() - started < 5.0
        finally:
            community.close()

    def test_concurrent_proposers_converge_with_metrics(self):
        obs = RecordingInstrumentation()
        names = ["OrgA", "OrgB", "OrgC"]
        community = Community(names, seed=21, obs=obs)
        try:
            objects = {name: DictB2BObject() for name in names}
            community.found_object("ledger", objects)
            tickets = []
            for i in range(6):
                tickets.append(
                    community.node("OrgA").submit_update("ledger",
                                                         {f"a{i}": i}))
                tickets.append(
                    community.node("OrgB").submit_update("ledger",
                                                         {f"b{i}": i}))
            for ticket in tickets:
                community.node("OrgA").wait_for_pipeline(ticket, timeout=60.0)
                assert ticket.done and ticket.valid, ticket.diagnostics
            community.settle()
            reference = objects["OrgA"].get_state()
            assert len(reference) == 12
            for name in names:
                assert objects[name].get_state() == reference
                assert not community.node(name).misbehaviour_reports
            registry = obs.registry
            assert registry.counter_value("pipeline.batched_updates") > 0
            assert registry.histogram("pipeline.batch_size").summary()[
                "max"] >= 2
        finally:
            community.close()
