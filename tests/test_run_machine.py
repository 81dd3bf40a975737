"""Rules of the shared run machine that only show with two runs, or a
run the table no longer holds, in play."""

from __future__ import annotations

import pytest

from repro.protocol.events import (
    MembershipChanged,
    MisbehaviourEvent,
    RunBlocked,
)

from tests.engine_helpers import EngineHarness, found


def make_harness(members, seed=0):
    harness = EngineHarness(list(members), seed=seed)
    found(harness, "obj", list(members), {"v": 0})
    return harness


def session(harness, name):
    return harness.party(name).session("obj")


def step(harness, sender, output):
    """Deliver *output*'s messages without pumping the replies: returns
    ``{recipient: reply}``."""
    harness.events[sender].extend(output.events)
    replies = {}
    for recipient, message in output.messages:
        replies[recipient] = harness.party(recipient).handle(sender, message)
    return replies


class TestDecisionRuleFollowsTheRunDecided:
    """Voluntary-disconnect responses are receipts — for that run only.
    A member busy on a disconnect must still count the vetoes in the
    bundle of any other run that settles meanwhile."""

    def _leave_and_join_overlap(self):
        harness = make_harness(["A", "N", "L"], seed=7)
        # L asks to leave: N sponsors run X, A answers and goes busy; the
        # answer is held back, so X stays open at A and N.
        _, leaving = session(harness, "L").membership.request_disconnect()
        x_m1 = step(harness, "L", leaving)["N"]
        held = step(harness, "N", x_m1)["A"]
        assert session(harness, "A").membership.active_run().kind == "disconnect"
        # L is still the connect sponsor and sponsors J's join, run Y.
        harness.add_party("J")
        asked = harness.party("J").join_object("obj", "L")
        y_m1 = step(harness, "J", asked)["L"]
        vetoes = step(harness, "L", y_m1)
        assert sorted(vetoes) == ["A", "N"]
        y_m3 = None
        for member, veto in vetoes.items():
            y_m3 = step(harness, member, veto)["L"]
        return harness, held, y_m3

    def test_vetoed_connect_settles_invalid_at_members_busy_on_a_disconnect(self):
        harness, held, y_m3 = self._leave_and_join_overlap()
        assert not harness.party("J").is_connected("obj")
        step(harness, "L", y_m3)  # Y's m3 overtakes X's
        for name in ["A", "N", "L"]:
            membership = session(harness, name).membership
            (run,) = [r for r in membership.runs() if r.kind == "connect"]
            assert run.outcome == "invalid", name
            assert session(harness, name).group.members == ["A", "N", "L"], name
        # X then completes as it would have alone.
        harness.pump("A", held)
        for name in ["A", "N"]:
            assert session(harness, name).group.members == ["A", "N"], name
            assert not session(harness, name).membership.busy, name
            changed = harness.events_of(name, MembershipChanged)
            assert [event.change for event in changed] == ["disconnect"], name
            assert harness.events_of(name, MisbehaviourEvent) == [], name


class TestRunNoLongerInMemory:
    """What the journal and the decision evidence answer for a run the
    run table lost is answered to that run's own responders only."""

    def _join_then_forget(self, monkeypatch):
        from repro.protocol.engine_base import EngineBase
        monkeypatch.setattr(EngineBase, "seen_window", 0)
        harness = make_harness(["A", "B", "C"], seed=11)
        harness.add_party("D")
        asked = harness.party("D").join_object("obj", "C")
        m1s = step(harness, "C", step(harness, "D", asked)["C"])
        m2 = {name: reply.messages[0][1] for name, reply in m1s.items()}
        for name, reply in m1s.items():
            harness.pump(name, reply)
        assert session(harness, "D").group.members == ["A", "B", "C", "D"]
        assert session(harness, "C").membership.runs() == []
        return harness, m2

    def test_late_m2_of_a_responder_gets_m3_again(self, monkeypatch):
        harness, m2 = self._join_then_forget(monkeypatch)
        again = harness.party("C").handle("B", m2["B"])
        assert [(to, m["msg_type"]) for to, m in again.messages] == [
            ("B", "connect_commit")]
        assert not again.events

    def test_member_outside_the_run_gets_nothing(self, monkeypatch):
        harness, m2 = self._join_then_forget(monkeypatch)
        # D was the subject: it knows the proposal digest (the welcome
        # carried the bundle) but was no responder of the run.
        payload = dict(m2["B"]["part"]["payload"], responder="D")
        forged = session(harness, "D").membership._signed(payload)
        reply = harness.party("C").handle(
            "D", {"msg_type": "connect_respond", "part": forged.to_dict()})
        assert not reply.messages and not reply.events

    def test_unverifiable_m2_does_not_reach_the_evidence_log(
            self, monkeypatch):
        harness, m2 = self._join_then_forget(monkeypatch)
        evidence = harness.party("C").ctx.evidence
        monkeypatch.setattr(
            evidence, "entries",
            lambda *a, **k: pytest.fail("evidence scanned"))
        tampered = dict(m2["B"], part=dict(
            m2["B"]["part"],
            payload=dict(m2["B"]["part"]["payload"], extra=1)))
        reply = harness.party("C").handle("B", tampered)
        assert [e.kind for e in reply.events] == ["invalid-signature"]
        # A party outside the group is refused before any lookup, too.
        harness.add_party("X")
        stray = harness.party("X").ctx
        from repro.protocol.messages import make_signed
        part = make_signed(dict(m2["B"]["part"]["payload"], responder="X"),
                           stray.signer, harness.tsa)
        reply = harness.party("C").handle(
            "X", {"msg_type": "connect_respond", "part": part.to_dict()})
        assert [e.kind for e in reply.events] == ["unsolicited-response"]

    def test_m3_for_an_open_run_recovery_could_not_load_is_surfaced(self):
        harness = make_harness(["P1", "P2"], seed=13)
        p1, p2 = harness.party("P1"), harness.party("P2")
        run_id, output = session(harness, "P1").state.propose_update({"k": 1})
        (_, m1), = output.messages
        (_, m2), = p2.handle("P1", m1).messages
        (_, m3), = p1.handle("P2", m2).messages
        # As after a restart whose recover_runs skipped the run: open in
        # the journal, absent from the run table.
        responder = session(harness, "P2").state
        del responder._runs[run_id]
        responder._active_run_id = None
        assert p2.ctx.journal.is_open(run_id)
        late = p2.handle("P1", m3)
        assert not late.messages
        (event,) = late.events
        assert isinstance(event, RunBlocked) and event.run_id == run_id
        assert p2.ctx.journal.is_open(run_id)
