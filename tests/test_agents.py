"""Trusted agents and TTP relays (Figures 1b and 6)."""

from __future__ import annotations

import pytest

from repro.agents import (
    DisclosurePolicy,
    FilterDisclosurePolicy,
    StateRelay,
    TrustedAgent,
    ValidatingTTP,
)
from repro.core import Community, DictB2BObject, SimRuntime
from repro.errors import ValidationFailed
from repro.protocol.events import RunCompleted
from repro.protocol.validation import Decision


def make_community(names, seed=0):
    return Community(list(names), runtime=SimRuntime(seed=seed))


class TestStateRelay:
    def test_relays_agreed_state(self):
        community = make_community(["A", "Hub", "B"])
        left = {n: DictB2BObject() for n in ["A", "Hub"]}
        right = {n: DictB2BObject() for n in ["Hub", "B"]}
        left_ctrl = community.found_object("left", left)
        community.found_object("right", right)
        StateRelay(community.node("Hub"), "left", "right")
        c = left_ctrl["A"]
        c.enter(); c.overwrite()
        left["A"].set_attribute("x", 1)
        c.leave()
        community.settle(2.0)
        assert right["B"].get_attribute("x") == 1

    def test_transform_none_withholds(self):
        community = make_community(["A", "Hub", "B"])
        left = {n: DictB2BObject() for n in ["A", "Hub"]}
        right = {n: DictB2BObject() for n in ["Hub", "B"]}
        left_ctrl = community.found_object("left", left)
        community.found_object("right", right)
        relay = StateRelay(community.node("Hub"), "left", "right",
                           transform=lambda state: None)
        c = left_ctrl["A"]
        c.enter(); c.overwrite()
        left["A"].set_attribute("x", 1)
        c.leave()
        community.settle(2.0)
        assert right["B"].attributes() == {}
        assert relay.withheld == 1 and relay.relayed == 0


    def test_relay_queues_behind_a_busy_target_with_no_timer(self):
        """The target is mid-run when the source settles: the relayed
        state waits in the target's write queue, not on a relay timer."""
        community = make_community(["A", "Hub", "B"], seed=3)
        left = {n: DictB2BObject() for n in ["A", "Hub"]}
        right = {n: DictB2BObject() for n in ["Hub", "B"]}
        community.found_object("left", left)
        community.found_object("right", right)
        hub, network = community.node("Hub"), community.runtime.network
        relay = StateRelay(hub, "left", "right")
        source = hub.party.session("left").state
        target = hub.party.session("right").state
        scheduled, schedule = [], network.schedule
        network.schedule = (
            lambda delay, callback:
            scheduled.append(callback) or schedule(delay, callback))
        marks = []

        def mark(event):
            if (isinstance(event, RunCompleted)
                    and event.object_name == "left"):
                pipe = hub.shards.pipeline_for("right")
                marks.append((relay.relayed, pipe.depth if pipe else 0,
                              target.busy, len(scheduled)))

        hub.listeners.insert(0, mark)  # before the relay's listener ...
        hub.add_listener(mark)         # ... and after it
        # B's run on "right" reaches the Hub one hop after A's on "left",
        # so "left" settles there while "right" is still mid-run.
        community.node("A").submit_update("left", {"x": 1})
        assert community.runtime.wait_until(lambda: source.busy, 5.0)
        community.node("B").submit_update("right", {"theirs": 2})
        assert community.runtime.wait_until(lambda: len(marks) == 2, 5.0)
        timers = marks[0][3]
        assert marks == [(0, 0, True, timers), (1, 1, True, timers)]
        assert hub._pipeline_timers == {}
        community.settle(2.0)
        assert relay.relayed == 1
        assert right["B"].attributes() == {"x": 1}


class TestValidatingTTP:
    def _setup_game(self, seed=0):
        from repro.apps import CROSS, NOUGHT, TicTacToeObject, TicTacToePlayer
        community = make_community(["Cross", "Nought", "TTP"], seed=seed)
        players = {"Cross": CROSS, "Nought": NOUGHT}
        side_c = {n: TicTacToeObject(players) for n in ["Cross", "TTP"]}
        side_n = {n: TicTacToeObject(players) for n in ["TTP", "Nought"]}
        ctrl_c = community.found_object("game_c", side_c)
        ctrl_n = community.found_object("game_n", side_n)
        ttp = ValidatingTTP(community.node("TTP"), ["game_c", "game_n"])
        cross = TicTacToePlayer(ctrl_c["Cross"], CROSS)
        nought = TicTacToePlayer(ctrl_n["Nought"], NOUGHT)
        return community, ttp, cross, nought, side_c, side_n

    def test_valid_moves_flow_through(self):
        community, ttp, cross, nought, side_c, side_n = self._setup_game()
        cross.save_move(4)
        community.settle(2.0)
        assert side_n["Nought"].board[4] == "X"
        nought.save_move(0)
        community.settle(2.0)
        assert side_c["Cross"].board[0] == "O"
        assert ttp.relayed == 2

    def test_invalid_move_never_disclosed_to_opponent(self):
        community, ttp, cross, nought, side_c, side_n = self._setup_game(seed=1)
        cross.save_move(4)
        community.settle(2.0)
        with pytest.raises(ValidationFailed):
            nought.save_move(4)  # already claimed; TTP vetoes
        community.settle(2.0)
        # Cross's replica never saw the attempt
        assert side_c["Cross"].board[4] == "X"
        assert side_c["Cross"].board.count("") == 8

    def test_requires_two_sides(self):
        community = make_community(["A"])
        with pytest.raises(ValueError):
            ValidatingTTP(community.node("A"), ["only"])


class TestTrustedAgents:
    def _setup(self, seed=0):
        """Figure 1b: three orgs behind three agents."""
        orgs = ["Org1", "Org2", "Org3"]
        agents = ["TA1", "TA2", "TA3"]
        community = make_community(orgs + agents, seed=seed)
        inner_ctrls = {}
        inner_objs = {}
        for org, agent in zip(orgs, agents):
            objects = {org: DictB2BObject(), agent: DictB2BObject()}
            ctrls = community.found_object(f"inner_{org}", objects)
            inner_ctrls[org] = ctrls[org]
            inner_objs[org] = objects
        outer_objs = {agent: DictB2BObject() for agent in agents}
        community.found_object("outer", outer_objs)
        tas = {}
        for org, agent in zip(orgs, agents):
            tas[agent] = TrustedAgent(
                community.node(agent), f"inner_{org}", "outer",
                policy=FilterDisclosurePolicy(
                    disclosed_keys=[f"public_{org}"],
                ),
            )
        return community, inner_ctrls, inner_objs, outer_objs, tas

    def test_disclosed_keys_propagate_to_all_orgs(self):
        community, ctrls, inner, outer, tas = self._setup()
        c = ctrls["Org1"]
        c.enter(); c.overwrite()
        inner["Org1"]["Org1"].set_attribute("public_Org1", "hello")
        c.leave()
        community.settle(5.0)
        assert outer["TA2"].get_attribute("public_Org1") == "hello"
        # and delivered onward into Org2's inner object
        assert inner["Org2"]["Org2"].get_attribute("public_Org1") == "hello"

    def test_private_keys_are_withheld(self):
        community, ctrls, inner, outer, tas = self._setup(seed=1)
        c = ctrls["Org1"]
        c.enter(); c.overwrite()
        inner["Org1"]["Org1"].set_attribute("public_Org1", "open")
        inner["Org1"]["Org1"].set_attribute("secret", "classified")
        c.leave()
        community.settle(5.0)
        assert outer["TA2"].get_attribute("public_Org1") == "open"
        assert outer["TA2"].get_attribute("secret") is None
        assert inner["Org3"]["Org3"].get_attribute("secret") is None

    def test_disclosure_policy_defaults(self):
        policy = DisclosurePolicy()
        assert policy.outbound({"a": 1}) == {"a": 1}
        assert policy.inbound({"a": 1}) == {"a": 1}

    def test_filter_policy_inbound_keys(self):
        policy = FilterDisclosurePolicy(["pub"], inbound_keys=["allowed"])
        assert policy.outbound({"pub": 1, "priv": 2}) == {"pub": 1}
        assert policy.inbound({"allowed": 1, "other": 2}) == {"allowed": 1}
