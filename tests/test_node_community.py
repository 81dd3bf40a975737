"""Organisation nodes and community deployment."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import Community, DictB2BObject, SimRuntime, ThreadedRuntime
from repro.core.node import OrganisationNode
from repro.errors import ConfigurationError, NotConnectedError, ValidationFailed
from repro.protocol.events import MembershipChanged
from repro.protocol.validation import CallbackValidator, Decision


class TestCommunityConstruction:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            Community(["A", "A"])

    def test_nodes_created(self, make_community):
        community = make_community(["A", "B", "C"])
        assert community.names() == ["A", "B", "C"]
        assert community.node("A").party_id == "A"

    def test_certificates_cross_validated(self, make_community):
        community = make_community(["A", "B"])
        # A can verify B's signature through its certificate store
        signer = community.node("B").ctx.signer
        signature = signer.sign({"x": 1})
        verifier = community.node("A").ctx.resolver("B")
        assert verifier.verify({"x": 1}, signature)

    def test_add_organisation_later(self, make_community):
        community = make_community(["A"])
        community.add_organisation("B")
        assert "B" in community.names()
        with pytest.raises(ConfigurationError):
            community.add_organisation("B")

    def test_resolver_for_unknown_party(self, make_community):
        community = make_community(["A"])
        with pytest.raises(ConfigurationError):
            community.resolver("Ghost")

    def test_virtual_clock_shared_with_simulation(self, make_community):
        community = make_community(["A"])
        assert community.clock.now() == community.runtime.network.now()


class TestFoundObject:
    def test_divergent_initial_states_rejected(self, make_community):
        community = make_community(["A", "B"])
        objects = {"A": DictB2BObject({"x": 1}), "B": DictB2BObject({"x": 2})}
        with pytest.raises(ConfigurationError, match="disagree"):
            community.found_object("shared", objects)

    def test_subset_founding(self, make_community):
        community = make_community(["A", "B", "C"])
        objects = {"A": DictB2BObject(), "B": DictB2BObject()}
        controllers = community.found_object("shared", objects)
        assert set(controllers) == {"A", "B"}
        with pytest.raises(NotConnectedError):
            community.node("C").party.session("shared")


class TestNodeLifecycle:
    def test_connect_then_leave(self, make_community):
        community = make_community(["A", "B", "C"])
        objects = {"A": DictB2BObject(), "B": DictB2BObject()}
        controllers = community.found_object("shared", objects)
        c_obj = DictB2BObject()
        controller_c = community.node("C").connect("shared", c_obj, "B")
        community.settle()
        assert controller_c.members() == ["A", "B", "C"]
        controller_c.disconnect()
        community.settle()
        assert controllers["A"].members() == ["A", "B"]
        assert not controller_c.is_connected()

    def test_rejected_connection_raises(self, make_community):
        community = make_community(["A", "B", "C"])
        objects = {
            "A": DictB2BObject(), "B": DictB2BObject(),
        }
        community.found_object("shared", objects)
        # B (the sponsor) refuses admissions
        community.node("B").party.session("shared").membership.validator = (
            CallbackValidator(connect=lambda s, m: Decision.reject("closed"))
        )
        with pytest.raises(NotConnectedError):
            community.node("C").connect("shared", DictB2BObject(), "B")

    def test_eviction_through_controller(self, make_community):
        community = make_community(["A", "B", "C"])
        objects = {n: DictB2BObject() for n in community.names()}
        controllers = community.found_object("shared", objects)
        controllers["A"].evict(["B"])
        community.settle()
        assert controllers["A"].members() == ["A", "C"]

    def test_misbehaviour_reports_collected(self, make_community):
        community = make_community(["A", "B"])
        objects = {n: DictB2BObject() for n in community.names()}
        community.found_object("shared", objects)
        from repro.faults import ForgedCommitAuth
        ForgedCommitAuth(community.node("A"))
        c = community.node("A").controllers["shared"]
        c.enter(); c.overwrite()
        objects["A"].set_attribute("x", 1)
        c.leave()
        community.settle()
        assert any(r.kind == "forged-commit"
                   for r in community.node("B").misbehaviour_reports)

    def test_event_listeners(self, make_community):
        community = make_community(["A", "B", "C"])
        objects = {n: DictB2BObject() for n in community.names()}
        controllers = community.found_object("shared", objects)
        seen = []
        community.node("B").add_listener(seen.append)
        controllers["A"].evict(["C"])
        community.settle()
        assert any(isinstance(e, MembershipChanged) for e in seen)

    def test_check_progress_on_healthy_node(self, make_community):
        community = make_community(["A", "B"])
        objects = {n: DictB2BObject() for n in community.names()}
        community.found_object("shared", objects)
        assert community.node("A").check_progress(timeout=100.0) == []


class TestThreadedCommunity:
    def test_tcp_coordination_and_join(self):
        runtime = ThreadedRuntime()
        try:
            community = Community(["A", "B"], runtime=runtime,
                                  retransmit_interval=0.2)
            objects = {n: DictB2BObject() for n in ["A", "B"]}
            controllers = community.found_object("shared", objects)
            c = controllers["A"]
            c.enter(); c.overwrite()
            objects["A"].set_attribute("k", 1)
            c.leave()
            runtime.settle(0.2)
            assert objects["B"].get_attribute("k") == 1

            community.add_organisation("C")
            c_obj = DictB2BObject()
            controller_c = community.node("C").connect("shared", c_obj, "B")
            runtime.settle(0.2)
            assert controller_c.members() == ["A", "B", "C"]
            assert c_obj.get_attribute("k") == 1
        finally:
            runtime.close()

    def test_join_ticket_resolves_after_the_controller_is_installed(
            self, monkeypatch):
        """``connect()`` wakes on the join ticket's signal and reads the
        new controller at once, so the node installs it first."""
        finish = OrganisationNode._finish_join

        def slow_finish(node, event):
            time.sleep(0.05)
            finish(node, event)

        monkeypatch.setattr(OrganisationNode, "_finish_join", slow_finish)
        runtime = ThreadedRuntime()
        try:
            community = Community(["A", "B"], runtime=runtime,
                                  retransmit_interval=0.2)
            community.found_object(
                "shared", {n: DictB2BObject() for n in ["A", "B"]})
            community.add_organisation("C")
            controller = community.node("C").connect(
                "shared", DictB2BObject(), "B")
            assert controller.is_connected()
        finally:
            runtime.close()

    def test_tcp_community_runs_on_one_transport_thread(self):
        before = set(threading.enumerate())
        runtime = ThreadedRuntime()
        try:
            names = ["A", "B", "C"]
            community = Community(names, runtime=runtime,
                                  retransmit_interval=0.2)
            objects = {n: DictB2BObject() for n in names}
            c = community.found_object("shared", objects)["A"]
            c.enter(); c.overwrite()
            objects["A"].set_attribute("k", 1)
            c.leave()
            assert runtime.wait_until(
                lambda: all(o.get_attribute("k") == 1
                            for o in objects.values()))
            # Listeners, six connections and every retransmit timer:
            # all on the reactor loop, whatever the party count.
            started = [t.name for t in threading.enumerate()
                       if t not in before]
            assert started == ["tcp-reactor"]
        finally:
            runtime.close()

    def test_tcp_veto(self):
        runtime = ThreadedRuntime()
        try:
            community = Community(["A", "B"], runtime=runtime,
                                  retransmit_interval=0.2)
            objects = {n: DictB2BObject() for n in ["A", "B"]}
            controllers = community.found_object("shared", objects)
            community.node("B").party.session("shared").state.validator = (
                CallbackValidator(state=lambda p, c, pr: Decision.reject("no"))
            )
            c = controllers["A"]
            c.enter(); c.overwrite()
            objects["A"].set_attribute("k", 1)
            with pytest.raises(ValidationFailed):
                c.leave()
            assert objects["A"].get_attribute("k") is None
        finally:
            runtime.close()
