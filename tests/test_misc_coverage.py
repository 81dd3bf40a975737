"""Remaining integration paths: filters, skewed clocks, node progress."""

from __future__ import annotations

import pytest

from repro.core import Community, DictB2BObject, SimRuntime
from repro.protocol.events import RunBlocked
from repro.transport.base import Envelope, NetworkFilter, normalise_filter_result
from repro.transport.inmemory import SimNetwork
from tests.engine_helpers import OffsetClock


class TestNetworkFilters:
    def test_normalise_filter_result(self):
        envelope = Envelope("A", "B", {})
        assert normalise_filter_result(None) == []
        assert normalise_filter_result(envelope) == [envelope]
        assert normalise_filter_result([envelope, envelope]) == [envelope,
                                                                 envelope]

    def test_filter_can_duplicate_and_suppress(self):
        class Doubler(NetworkFilter):
            def on_send(self, envelope):
                if envelope.payload.get("dup"):
                    return [envelope, envelope]
                if envelope.payload.get("drop"):
                    return None
                return envelope

        network = SimNetwork(seed=1)
        got = []
        network.register("B", got.append)
        doubler = Doubler()
        network.add_filter(doubler)
        network.send(Envelope("A", "B", {"dup": True}))
        network.send(Envelope("A", "B", {"drop": True}))
        network.send(Envelope("A", "B", {}))
        network.run(max_time=1.0)
        assert len(got) == 3  # 2 duplicated + 1 plain, dropped one gone
        network.remove_filter(doubler)
        network.send(Envelope("A", "B", {"dup": True}))
        network.run(max_time=2.0)
        assert len(got) == 4  # filter no longer doubles

    def test_pending_events_counts_uncancelled(self):
        network = SimNetwork(seed=2)
        handle = network.schedule(1.0, lambda: None)
        network.schedule(2.0, lambda: None)
        assert network.pending_events() == 2
        handle.cancel()
        assert network.pending_events() == 1


class TestClockSkew:
    def test_skewed_local_clocks_do_not_break_evidence(self, make_community):
        """Evidence time-stamps come from the shared TSA, so per-node
        clock skew must not affect verification (section 4.2)."""
        community = make_community(2, seed=40)
        # Skew Org2's local clock by -1 hour.
        node2 = community.node("Org2")
        node2.ctx.clock = OffsetClock(community.clock, -3600.0)
        objects = {n: DictB2BObject() for n in community.names()}
        controllers = community.found_object("shared", objects)
        controller = controllers["Org2"]
        controller.enter()
        controller.overwrite()
        objects["Org2"].set_attribute("k", 1)
        controller.leave()
        community.settle(1.0)
        assert objects["Org1"].get_attribute("k") == 1
        for name in community.names():
            community.node(name).ctx.evidence.verify_chain()


class TestNodeProgress:
    def test_blocked_membership_run_surfaces_through_node(self, make_community):
        community = make_community(3, seed=41)
        objects = {n: DictB2BObject() for n in community.names()}
        community.found_object("shared", objects)
        from repro.faults import SuppressResponses
        SuppressResponses(community.node("Org2"))
        community.add_organisation("Org4")
        from repro.core import DictB2BObject as D
        ticket = community.node("Org4").propagate_connect(
            "shared", D(), "Org3"
        )
        community.settle(10.0)
        assert not ticket.done
        events = community.node("Org3").check_progress(timeout=5.0)
        blocked = [e for e in events if isinstance(e, RunBlocked)]
        assert blocked and blocked[0].kind == "connect"
        assert blocked[0].waiting_on == ["Org2"]

    def test_listener_sees_blocked_events(self, make_community):
        community = make_community(2, seed=42)
        objects = {n: DictB2BObject() for n in community.names()}
        community.found_object("shared", objects)
        from repro.faults import SuppressResponses
        SuppressResponses(community.node("Org2"))
        seen = []
        community.node("Org1").add_listener(seen.append)
        ticket = community.node("Org1").propagate_new_state("shared", {"x": 1})
        community.settle(10.0)
        community.node("Org1").check_progress(timeout=5.0)
        assert any(isinstance(e, RunBlocked) for e in seen)


class TestBrokeredNetworkCompatibility:
    def test_fault_schedule_rejects_non_sim_runtime(self, make_community):
        from repro.core import ThreadedRuntime
        from repro.errors import ConfigurationError
        from repro.faults import FaultSchedule
        runtime = ThreadedRuntime()
        try:
            community = Community(["A"], runtime=runtime)
            with pytest.raises(ConfigurationError):
                FaultSchedule(community)
        finally:
            runtime.close()

    def test_mom_network_with_sim_runtime_fault_injection(self):
        from repro.transport.mom import BrokeredSimNetwork
        network = BrokeredSimNetwork(seed=5)
        runtime = SimRuntime(network=network)
        community = Community(["A", "B"], runtime=runtime)
        objects = {n: DictB2BObject() for n in community.names()}
        controllers = community.found_object("shared", objects)
        # partitions apply to the path into the broker
        network.partition({"A"}, {"B"})
        from repro.core import DEFERRED_SYNCHRONOUS
        controllers["A"].mode = DEFERRED_SYNCHRONOUS
        controller = controllers["A"]
        controller.enter()
        controller.overwrite()
        objects["A"].set_attribute("k", 1)
        ticket = controller.leave()
        community.settle(1.0)
        assert not ticket.done
        network.heal_partition()
        community.settle(10.0)
        assert ticket.done and ticket.valid
        assert objects["B"].get_attribute("k") == 1
