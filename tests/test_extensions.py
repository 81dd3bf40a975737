"""Section-7 extensions: majority termination and deadline/TTP abort."""

from __future__ import annotations

import pytest

from repro.core import DEFERRED_SYNCHRONOUS, DictB2BObject
from repro.errors import DisputeError, ValidationFailed
from repro.extensions import (
    DeadlineMonitor,
    MajorityCoordinationEngine,
    TerminationTTP,
    apply_certified_resolution,
    gather_run_evidence,
    make_majority_engine,
)
from repro.faults import SuppressCommits, SuppressResponses
from repro.protocol.validation import CallbackValidator, Decision


def found(community, engine_cls=None, mode=None, object_name="shared"):
    objects = {n: DictB2BObject() for n in community.names()}
    kwargs = {}
    if engine_cls is not None:
        kwargs["engine_cls"] = engine_cls
    if mode is not None:
        kwargs["mode"] = mode
    controllers = community.found_object(object_name, objects, **kwargs)
    return controllers, objects


def veto_everything(community, org, object_name="shared"):
    community.node(org).party.session(object_name).state.validator = (
        CallbackValidator(state=lambda p, c, pr: Decision.reject("never"))
    )


def write(controllers, objects, org, **attrs):
    controller = controllers[org]
    controller.enter()
    controller.overwrite()
    for key, value in attrs.items():
        objects[org].set_attribute(key, value)
    return controller.leave()


class TestMajorityVoting:
    def test_minority_veto_overridden(self, make_community):
        community = make_community(5, seed=80)
        controllers, objects = found(community,
                                     engine_cls=MajorityCoordinationEngine)
        veto_everything(community, "Org5")
        write(controllers, objects, "Org1", x=1)
        community.settle(1.0)
        for org in community.names():
            engine = community.node(org).party.session("shared").state
            assert engine.agreed_state == {"x": 1}, org

    def test_majority_veto_still_rejects(self, make_community):
        community = make_community(5, seed=81)
        controllers, objects = found(community,
                                     engine_cls=MajorityCoordinationEngine)
        for org in ["Org3", "Org4", "Org5"]:
            veto_everything(community, org)
        with pytest.raises(ValidationFailed):
            write(controllers, objects, "Org1", x=1)
        community.settle(1.0)
        for org in community.names():
            engine = community.node(org).party.session("shared").state
            assert engine.agreed_state == {}

    def test_unanimity_engine_rejects_what_majority_accepts(self, make_community):
        community = make_community(5, seed=82)
        controllers, objects = found(community)  # default unanimity
        veto_everything(community, "Org5")
        with pytest.raises(ValidationFailed):
            write(controllers, objects, "Org1", x=1)

    def test_supermajority_quorum(self, make_community):
        community = make_community(4, seed=83)
        engine_cls = make_majority_engine(0.75)
        controllers, objects = found(community, engine_cls=engine_cls)
        veto_everything(community, "Org4")
        # 3/4 accept == not strictly greater than 0.75 * 4 -> rejected
        with pytest.raises(ValidationFailed):
            write(controllers, objects, "Org1", x=1)

    def test_quorum_fraction_validated(self):
        with pytest.raises(ValueError):
            make_majority_engine(1.0)

    def test_force_completion_with_partial_responses(self, make_community):
        community = make_community(5, seed=84)
        controllers, objects = found(
            community, engine_cls=MajorityCoordinationEngine,
            mode=DEFERRED_SYNCHRONOUS,
        )
        SuppressResponses(community.node("Org5"))
        ticket = write(controllers, objects, "Org1", x=1)
        community.settle(1.0)
        assert not ticket.done
        engine1 = community.node("Org1").party.session("shared").state
        output = engine1.force_completion(ticket.run_id)
        community.node("Org1")._process_output(output)
        community.settle(1.0)
        assert ticket.done and ticket.valid  # 4/5 accepts > 0.5 quorum
        for org in ["Org1", "Org2", "Org3", "Org4"]:
            engine = community.node(org).party.session("shared").state
            assert engine.agreed_state == {"x": 1}

    def test_force_completion_under_unanimity_aborts(self, make_community):
        community = make_community(3, seed=85)
        controllers, objects = found(community, mode=DEFERRED_SYNCHRONOUS)
        SuppressResponses(community.node("Org3"))
        ticket = write(controllers, objects, "Org1", x=1)
        community.settle(1.0)
        engine1 = community.node("Org1").party.session("shared").state
        output = engine1.force_completion(ticket.run_id)
        community.node("Org1")._process_output(output)
        assert ticket.done and ticket.valid is False
        assert engine1.agreed_state == {}


class TestDeadlineTTP:
    def test_certified_abort_for_missing_response(self, make_community):
        community = make_community(3, seed=90)
        controllers, objects = found(community, mode=DEFERRED_SYNCHRONOUS)
        SuppressResponses(community.node("Org3"))
        ttp = TerminationTTP(resolver=community.resolver)
        monitor = DeadlineMonitor(list(community.nodes.values()), ttp,
                                  deadline=5.0)
        ticket = write(controllers, objects, "Org1", x=1)
        community.settle(10.0)
        assert monitor.sweep() == 1
        community.settle(0.5)
        assert ticket.done and ticket.valid is False
        for org in community.names():
            engine = community.node(org).party.session("shared").state
            assert engine.agreed_state == {} and not engine.busy

    def test_certified_decision_from_complete_evidence(self, make_community):
        community = make_community(3, seed=91)
        controllers, objects = found(community, mode=DEFERRED_SYNCHRONOUS)
        SuppressCommits(community.node("Org1"))  # proposer withholds m3
        ticket = write(controllers, objects, "Org1", x=1)
        community.settle(1.0)
        engine1 = community.node("Org1").party.session("shared").state
        evidence = gather_run_evidence(engine1, ticket.run_id)
        ttp = TerminationTTP(resolver=community.resolver)
        token = ttp.resolve(evidence, community.names())
        assert token.payload["resolution"] == "commit"
        for org in ["Org2", "Org3"]:
            node = community.node(org)
            output = apply_certified_resolution(
                node.party.session("shared").state, token, ttp.verifier)
            node._process_output(output)
        community.settle(0.5)
        for org in community.names():
            engine = community.node(org).party.session("shared").state
            assert engine.agreed_state == {"x": 1}

    def test_certified_abort_when_a_response_was_a_veto(self, make_community):
        community = make_community(3, seed=92)
        controllers, objects = found(community, mode=DEFERRED_SYNCHRONOUS)
        veto_everything(community, "Org3")
        SuppressCommits(community.node("Org1"))
        ticket = write(controllers, objects, "Org1", x=1)
        community.settle(1.0)
        engine1 = community.node("Org1").party.session("shared").state
        evidence = gather_run_evidence(engine1, ticket.run_id)
        ttp = TerminationTTP(resolver=community.resolver)
        token = ttp.resolve(evidence, community.names())
        assert token.payload["resolution"] == "abort"
        assert token.payload["valid"] is False

    def test_requester_cannot_shrink_the_electorate(self, make_community):
        community = make_community(3, seed=93)
        controllers, objects = found(community, mode=DEFERRED_SYNCHRONOUS)
        SuppressResponses(community.node("Org3"))
        ticket = write(controllers, objects, "Org1", x=1)
        community.settle(1.0)
        engine1 = community.node("Org1").party.session("shared").state
        evidence = gather_run_evidence(engine1, ticket.run_id)
        ttp = TerminationTTP(resolver=community.resolver)
        with pytest.raises(DisputeError, match="membership"):
            ttp.resolve(evidence, ["Org1", "Org2"])  # pretend Org3 is gone

    def test_token_signature_checked(self, make_community):
        community = make_community(2, seed=94)
        controllers, objects = found(community, mode=DEFERRED_SYNCHRONOUS)
        SuppressResponses(community.node("Org2"))
        ticket = write(controllers, objects, "Org1", x=1)
        community.settle(1.0)
        engine1 = community.node("Org1").party.session("shared").state
        evidence = gather_run_evidence(engine1, ticket.run_id)
        ttp = TerminationTTP(resolver=community.resolver)
        impostor = TerminationTTP(name="Impostor", resolver=community.resolver)
        token = impostor.resolve(evidence, community.names())
        from repro.errors import SignatureError
        with pytest.raises(SignatureError):
            apply_certified_resolution(engine1, token, ttp.verifier)

    def test_monitor_ignores_settled_runs(self, make_community):
        community = make_community(2, seed=95)
        controllers, objects = found(community)
        write(controllers, objects, "Org1", x=1)
        community.settle(20.0)
        ttp = TerminationTTP(resolver=community.resolver)
        monitor = DeadlineMonitor(list(community.nodes.values()), ttp,
                                  deadline=5.0)
        assert monitor.sweep() == 0
