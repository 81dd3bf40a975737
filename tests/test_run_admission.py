"""Finish before you start: when a queued write becomes a run.

A node with queued writes keeps one run of its own in flight (the
floor) and starts further runs only when its transport reports nothing
inbound waiting (``Network.when_idle``), oldest-waiting pipeline first.
The deterministic half runs on a ``SimNetwork`` whose ``when_idle``
holds its callbacks until the test releases them; the adaptive half and
the reactor's idle signal run over real sockets.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.core import DEFERRED_SYNCHRONOUS, Community
from repro.core.runtime import SimRuntime, ThreadedRuntime
from repro.obs.recording import RecordingInstrumentation
from repro.protocol.events import RunCompleted
from repro.protocol.messages import PROPOSE
from repro.protocol.party import extract_object_name
from repro.transport.base import Envelope
from repro.transport.inmemory import LinkProfile, SimNetwork
from repro.transport.tcp import TcpNetwork
from repro.util.encoding import canonical_bytes

from tests.test_shards import CounterObject


class HeldIdleNetwork(SimNetwork):
    """A simulated network that is busy until the test says otherwise."""

    def __init__(self, seed=0):
        super().__init__(seed=seed,
                         default_profile=LinkProfile(latency=0.005))
        self.held = []
        self.idle_calls = 0

    def when_idle(self, callback):
        self.idle_calls += 1
        self.held.append(callback)

    def release(self):
        """Report idle once: run what was held, not what that registers."""
        held, self.held = self.held, []
        for callback in held:
            callback()


def held_community(parties, objects, seed, founders=None, **kwargs):
    network = HeldIdleNetwork(seed=seed)
    names = [f"Org{i + 1}" for i in range(parties)]
    community = Community(names, runtime=SimRuntime(network=network),
                          **kwargs)
    for object_name in objects:
        community.found_object(
            object_name,
            {name: CounterObject() for name in founders or names})
    return community, network


def own_runs(node):
    """Runs the node's pipelines have in flight, counted the slow way."""
    return sum(pipe.inflight_run_id is not None
               for shard in node.shards.shards
               for pipe in shard.pipelines.values())


def applied(node, object_name):
    return node.controllers[object_name].b2b_object.get_state()["applied"]


def spy_on_proposals(node):
    """(object, m1 body) of every proposal the node sends, in order."""
    proposals = []

    def spy(recipient, message):
        entry = (extract_object_name(message), message.get("body"))
        if message.get("msg_type") == PROPOSE and entry not in proposals:
            proposals.append(entry)
        return [(recipient, message)]

    node.outbound_interceptor = spy
    return proposals


# ---------------------------------------------------------------------------
# the rule, deterministically
# ---------------------------------------------------------------------------

class TestTheRule:
    def test_floor_alone_drains_every_queue(self):
        """(a) Idle never comes: every ticket still settles, one run of
        the node's own at a time."""
        objects = [f"obj-{i}" for i in range(4)]
        community, network = held_community(3, objects, seed=51)
        node = community.node("Org1")
        tickets = [node.submit_update(objects[i % 4], {"n": 1})
                   for i in range(12)]
        peak = []

        def watch():
            assert node._own_runs == own_runs(node)  # the O(1) count
            peak.append(node._own_runs)
            return all(ticket.done for ticket in tickets)

        assert community.runtime.wait_until(watch, 60.0)
        assert all(ticket.valid for ticket in tickets)
        assert max(peak) == 1
        assert network.held and network.idle_calls == len(network.held) == 1
        assert [applied(node, name) for name in objects] == [3, 3, 3, 3]
        # 5 runs, not 12: the first write went alone, what queued
        # behind the floor rode together.
        assert len({ticket.run_id for ticket in tickets}) == 5
        assert node._ready == {} and node._own_runs == 0

    def test_busy_node_defers_then_starts_oldest_first(self):
        """(b) With a run in flight, writes to B, C, B queue; one idle
        report starts B's run with both its writes, then C's."""
        community, network = held_community(3, ["A", "B", "C"], seed=52)
        node = community.node("Org1")
        proposals = spy_on_proposals(node)
        first = node.submit_update("A", {"n": 1})
        queued = [node.submit_update("B", {"n": 10}),
                  node.submit_update("C", {"n": 20}),
                  node.submit_update("B", {"n": 30})]
        assert [name for name, _ in proposals] == ["A"]
        assert own_runs(node) == 1 and list(node._ready) == ["B", "C"]
        assert node.shards.pipeline_for("B").depth == 2
        assert network.idle_calls == 1  # asked once, not per write
        network.release()
        assert proposals[1:] == [("B", [{"n": 10}, {"n": 30}]),
                                 ("C", {"n": 20})]
        assert own_runs(node) == node._own_runs == 3
        assert node._ready == {} and not network.held
        community.settle()
        assert all(t.done and t.valid for t in [first] + queued)
        assert queued[0].run_id == queued[2].run_id != queued[1].run_id

    def test_idle_node_proposes_inside_submit(self):
        """(c) The serial path: no run in flight, no idle asked for."""
        community, network = held_community(3, ["A", "B"], seed=53)
        node = community.node("Org1")
        for round_ in range(3):
            ticket = node.submit_update("AB"[round_ % 2], {"n": 1})
            assert own_runs(node) == 1  # proposed before submit returned
            community.settle()
            assert ticket.done and ticket.valid
        assert network.idle_calls == 0

    def test_controller_writes_enter_by_the_same_door(self):
        """A deferred ``leave()`` and a ``submit_update`` queued behind
        one run ride in one batch, and the controller's write is counted
        like any other: the O(1) own-run count holds at every event."""
        community, network = held_community(3, ["A", "B"], seed=56)
        node = community.node("Org1")
        controller = node.controllers["B"]
        controller.mode = DEFERRED_SYNCHRONOUS
        controller.b2b_object.get_update = lambda: {"n": 10}
        proposals = spy_on_proposals(node)
        controller.enter(); controller.update()
        first = node.submit_update("A", {"n": 1})  # the floor
        queued = [controller.leave(), node.submit_update("B", {"n": 30})]
        assert [name for name, _ in proposals] == ["A"]
        assert own_runs(node) == node._own_runs == 1
        assert list(node._ready) == ["B"]
        assert node.shards.pipeline_for("B").depth == 2

        def watch():
            assert node._own_runs == own_runs(node)
            return all(ticket.done for ticket in [first] + queued)

        assert community.runtime.wait_until(watch, 60.0)
        assert proposals[1:] == [("B", [{"n": 10}, {"n": 30}])]
        assert all(ticket.valid for ticket in [first] + queued)
        assert queued[0].run_id == queued[1].run_id
        assert applied(node, "B") == 2 and node._own_runs == 0

    def test_composite_children_enter_by_the_same_door(self):
        community, network = held_community(2, ["A", "B", "C"], seed=55,
                                            num_shards=4)
        node = community.node("Org1")
        node.submit_update("A", {"n": 1})
        ticket = node.submit_composite({"B": {"n": 2}, "C": {"n": 3}})
        assert not ticket.aborted and own_runs(node) == 1
        assert sorted(node._ready) == ["B", "C"]
        community.settle()  # the floor: no idle report ever comes
        assert ticket.done and ticket.valid
        assert network.held


class TestNoLostWakeUpWhileBusy:
    """``tests/test_shards.py::TestNoLostWakeUp``'s five reasons a queue
    sits queued-but-idle, each while the node is busy with other runs:
    the queue drains whether idle is reported or never is."""

    @pytest.mark.parametrize("idle", ["reported", "never"])
    @pytest.mark.parametrize("reason", [
        "own-run", "responder", "membership", "backoff", "crash-recover"])
    def test_queued_pipeline_wakes(self, reason, idle):
        objects = [f"obj-{i}" for i in range(4)]
        names = ["Org1", "Org2", "Org3"]
        founders = names[:2] if reason == "membership" else names
        community, network = held_community(
            3, objects, seed=41, founders=founders, num_shards=2)
        node, peer = community.node("Org1"), community.node("Org2")
        hot, siblings = objects[0], objects[1:]
        engine = node.party.session(hot).state
        wait = community.runtime.wait_until
        tickets = []
        if reason == "own-run":
            tickets.append(node.submit_update(hot, {"n": 1}))
        elif reason == "responder":
            tickets.append(peer.submit_update(hot, {"n": 1}))
            assert wait(lambda: engine.busy, 5.0)
        elif reason == "membership":
            tickets.append(community.node("Org3").propagate_connect(
                hot, CounterObject(), "Org2"))
            assert wait(lambda: engine.membership_change_active, 5.0)
        else:
            # Both idle, so both propose at once and veto each other as
            # busy; the peer retries within 50 ms, this node's backoff
            # outlasts everything below.
            pipe = node.pipeline(hot, base_retry_delay=4.0,
                                 max_retry_delay=4.0)
            tickets.append(peer.submit_update(hot, {"n": 1}))
            held = node.submit_update(hot, {"n": 1})
            assert wait(lambda: tickets[0].done and not engine.busy, 1.0)
            assert pipe.busy_retries == 1 and pipe.retry_delay() > 1.0
            tickets.append(held)
        # The node gets busy with its other objects ...
        tickets += [node.submit_update(name, {"n": 1}) for name in siblings]
        assert own_runs(node) >= 1
        # ... and the hot object's write can only queue.
        tickets.append(node.submit_update(hot, {"n": 1}))
        pipe = node.shards.pipeline_for(hot)
        assert pipe.depth >= 1
        if reason != "own-run":
            assert pipe.inflight_run_id is None
        if reason == "crash-recover":
            node.crash()  # cancels the backoff timer, empties the FIFO
            assert node._ready == {} and node._pipeline_timers == {}
            community.settle(5.0)  # the backoff runs out meanwhile
            node.recover()
        if idle == "reported":
            network.release()
        community.settle()
        while idle == "reported" and network.held:
            network.release()
            community.settle()
        assert all(ticket.done and ticket.valid for ticket in tickets)
        for name in founders:
            member = community.node(name)
            assert member._own_runs == own_runs(member) == 0
            assert member._ready == {} and member._pipeline_timers == {}
            for object_name in objects:
                queue = member.shards.pipeline_for(object_name)
                assert queue is None or queue.depth == 0
        expected = {"own-run": 2, "responder": 2, "membership": 1,
                    "backoff": 3, "crash-recover": 3}[reason]
        assert applied(node, hot) == expected
        assert [applied(node, name) for name in siblings] == [1, 1, 1]


# ---------------------------------------------------------------------------
# over real sockets: the rule adapts
# ---------------------------------------------------------------------------

def closed_loop(community, objects, total, window):
    """Drive *total* gateway writes, *window* outstanding, from one
    thread; returns (runs, time-sampled own runs in flight)."""
    node = community.node("Org1")
    session = node.gateway().session("loop")
    runs = []
    node.add_listener(
        lambda event: runs.append(event.run_id)
        if (isinstance(event, RunCompleted) and event.kind == "state"
            and event.role == "proposer") else None)
    samples = []
    stop = threading.Event()

    def sample():
        while not stop.wait(0.002):
            samples.append(own_runs(node))

    sampler = threading.Thread(target=sample, daemon=True)
    slots = threading.Semaphore(window)
    rng = random.Random(7)
    tickets = []
    sampler.start()
    try:
        for _ in range(total):
            assert slots.acquire(timeout=30.0)
            with node._lock:  # tickets resolve under it: no lost callback
                ticket = session.submit(rng.choice(objects), {"n": 1})
                ticket.on_done(lambda _ticket: slots.release())
            tickets.append(ticket)
        assert community.runtime.wait_until(
            lambda: all(ticket.done for ticket in tickets), 30.0)
    finally:
        stop.set()
        sampler.join(5.0)
    assert not sampler.is_alive()
    assert all(ticket.valid for ticket in tickets)
    assert sum(applied(node, name) for name in objects) == total
    return runs, samples


class TestTheRuleAdapts:
    def _community(self):
        names = [f"Org{i + 1}" for i in range(5)]
        community = Community(names, runtime=ThreadedRuntime(),
                              retransmit_interval=2.0)
        objects = [f"doc{i}" for i in range(8)]
        for object_name in objects:
            community.found_object(
                object_name, {name: CounterObject() for name in names})
        return community, objects

    def test_saturated_node_batches(self):
        """(f) No link delay: the proposer's reactor is busy whenever a
        run is in flight, so queued writes coalesce."""
        community, objects = self._community()
        try:
            runs, samples = closed_loop(community, objects, 300, 16)
            assert 300 / len(runs) >= 2.2, len(runs)
            assert max(samples) <= len(objects)
        finally:
            community.close()

    def test_waiting_on_the_link_brings_concurrency_back(self):
        """(g) 20 ms one way on every protocol send: the node is idle
        while its run waits on the link, so it starts the others."""
        community, objects = self._community()
        network = community.runtime.network
        try:
            for name in community.names():
                endpoint = community.node(name).endpoint

                def delayed(recipient, message, send=endpoint.send):
                    network.schedule(0.02, lambda: send(recipient, message))

                endpoint.send = delayed
            runs, samples = closed_loop(community, objects, 300, 16)
            assert sum(samples) / len(samples) >= 3.0
            assert max(samples) <= len(objects)
        finally:
            community.close()


    def test_with_shard_workers_idle_is_the_end_of_the_shard_queue(self):
        """The deferred step queues behind the shard's backlog."""
        community = Community(["Org1", "Org2"], runtime=ThreadedRuntime(),
                              retransmit_interval=2.0, num_shards=2)
        try:
            for object_name in ("A", "B"):
                community.found_object(
                    object_name,
                    {name: CounterObject() for name in community.names()})
            node = community.node("Org1")
            assert node.shards.workers
            gate = threading.Event()
            for shard in node.shards.shards:
                shard.submit(lambda: gate.wait(10.0))  # the backlog
            tickets = [node.submit_update("A", {"n": 1}),  # the floor
                       node.submit_update("B", {"n": 1})]
            time.sleep(0.05)
            pipe = node.shards.pipeline_for("B")
            assert pipe.inflight_run_id is None and pipe.depth == 1
            tickets.append(node.submit_update("B", {"n": 1}))
            gate.set()
            assert community.runtime.wait_until(
                lambda: all(ticket.done for ticket in tickets), 10.0)
            assert all(ticket.valid for ticket in tickets)
            assert tickets[1].run_id == tickets[2].run_id  # rode together
        finally:
            community.close()


# ---------------------------------------------------------------------------
# the reactor's idle signal
# ---------------------------------------------------------------------------

class TestReactorIdle:
    def test_fires_once_on_the_loop_after_everything_else(self):
        network = TcpNetwork()
        try:
            order = []
            arrived = threading.Event()

            def on_frame(envelope):
                order.append("frame")
                arrived.set()

            network.register("A", on_frame)
            import socket
            line = canonical_bytes(
                Envelope("B", "A", {"x": 1}).to_dict()) + b"\n"
            with socket.create_connection(network.address_of("A"),
                                          timeout=2.0) as conn:
                conn.sendall(line)  # warm-up: accepted, codec detected
                assert arrived.wait(5.0)
                order.clear()
                arrived.clear()
                reactor = network._reactor
                holding, go, idle = (threading.Event(), threading.Event(),
                                     threading.Event())

                def hold():
                    holding.set()
                    go.wait(5.0)

                def on_idle():
                    order.append(("idle", threading.current_thread().name))
                    idle.set()

                reactor._post(hold)
                assert holding.wait(5.0)
                # Registered first, while the loop is held: it must
                # still come after the command, the timer and the frame.
                network.when_idle(on_idle)
                reactor._post(lambda: order.append("command"))
                network.schedule(0.0, lambda: order.append("timer"))
                conn.sendall(line)
                time.sleep(0.05)  # the bytes are in A's socket buffer
                go.set()
                assert idle.wait(5.0) and arrived.wait(5.0)
                time.sleep(0.05)
            assert order[-1] == ("idle", "tcp-reactor")
            assert sorted(order[:-1]) == ["command", "frame", "timer"]
        finally:
            network.close()

    def test_foreign_registration_wakes_a_blocked_loop(self):
        network = TcpNetwork()
        try:
            network.register("A", lambda envelope: None)
            time.sleep(0.1)  # the loop is blocked in select, no timeout
            fired = threading.Event()
            network.when_idle(fired.set)
            assert fired.wait(2.0)
        finally:
            network.close()

    def test_raising_callback_is_counted_and_the_loop_survives(self):
        obs = RecordingInstrumentation()
        network = TcpNetwork(obs=obs)
        try:
            def boom():
                raise RuntimeError("bug")

            fired = threading.Event()
            network.when_idle(boom)
            network.when_idle(fired.set)
            assert fired.wait(2.0)
            counters = obs.registry.snapshot()["counters"]
            assert counters.get("transport.tcp.handler_errors.idle") == 1
            again = threading.Event()
            network.when_idle(again.set)
            assert again.wait(2.0)
        finally:
            network.close()

    def test_nothing_fires_after_stop(self):
        network = TcpNetwork()
        reactor = network._reactor
        holding, go = threading.Event(), threading.Event()
        fired = []

        def hold():
            holding.set()
            go.wait(5.0)

        reactor._post(hold)
        assert holding.wait(5.0)
        network.when_idle(lambda: fired.append("pending"))
        closer = threading.Thread(target=network.close)
        closer.start()
        time.sleep(0.05)  # stop() has set the flag and waits for the loop
        go.set()
        closer.join(5.0)
        assert not closer.is_alive() and not reactor.running
        network.when_idle(lambda: fired.append("late"))
        time.sleep(0.05)
        assert fired == []
