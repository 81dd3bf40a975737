"""Finish before you start: when a queued write becomes a run.

A node with queued writes keeps one run of its own in flight (the
floor) and starts further runs only when its transport reports nothing
inbound waiting (``Network.when_idle``), oldest-waiting pipeline first.
The deterministic half runs on a ``SimNetwork`` whose ``when_idle``
holds its callbacks until the test releases them; the adaptive half,
the reactor's idle signal and the rule that every run starts on the
reactor thread (``Network.call_in_loop``) run over real sockets.
"""

from __future__ import annotations

import gc
import itertools
import random
import sys
import threading
import time

import pytest

from repro.core import DEFERRED_SYNCHRONOUS, Community
from repro.core.readcache import bounded, cached
from repro.core.runtime import SimRuntime, ThreadedRuntime
from repro.crypto.signature import RsaSigner
from repro.obs.recording import RecordingInstrumentation
from repro.protocol.events import RunCompleted
from repro.protocol.messages import PROPOSE
from repro.protocol.party import extract_object_name
from repro.transport.base import Envelope
from repro.transport.inmemory import LinkProfile, SimNetwork
from repro.transport.tcp import TcpNetwork
from repro.wire import PREAMBLE, EnvelopeEncoder

from tests.test_composite import CounterObject, sim_community


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
               for pipe in node.pipelines.values())


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
        assert node.pipeline_for("B").depth == 2
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
        assert node.pipeline_for("B").depth == 2

        def watch():
            assert node._own_runs == own_runs(node)
            return all(ticket.done for ticket in [first] + queued)

        assert community.runtime.wait_until(watch, 60.0)
        assert proposals[1:] == [("B", [{"n": 10}, {"n": 30}])]
        assert all(ticket.valid for ticket in [first] + queued)
        assert queued[0].run_id == queued[1].run_id
        assert applied(node, "B") == 2 and node._own_runs == 0

    def test_writes_to_several_objects_enter_by_the_same_door(self):
        community, network = held_community(2, ["A", "B", "C"], seed=55)
        node = community.node("Org1")
        node.submit_update("A", {"n": 1})
        tickets = [node.submit_update("B", {"n": 2}),
                   node.submit_update("C", {"n": 3})]
        assert own_runs(node) == 1
        assert sorted(node._ready) == ["B", "C"]
        community.settle()  # the floor: no idle report ever comes
        assert all(ticket.done and ticket.valid for ticket in tickets)
        assert network.held


class TestNoLostWakeUp:
    """A settlement wakes only the pipeline it names, so every reason a
    pipeline can sit queued-but-idle must bring its own wake-up."""

    @pytest.mark.parametrize("reason", [
        "own-run", "responder", "membership", "backoff", "crash-recover"])
    def test_queued_but_idle_pipeline_always_wakes(self, reason):
        community = sim_community(3, seed=41)
        names = community.names()
        objects = [f"obj-{i}" for i in range(4)]
        founders = names[:2] if reason == "membership" else names
        for object_name in objects:
            community.found_object(
                object_name, {name: CounterObject() for name in founders})
        node, peer = community.node("Org1"), community.node("Org2")
        hot = objects[0]
        engine = node.party.session(hot).state
        wait = community.runtime.wait_until
        # Sibling traffic; nothing below leans on it.
        tickets = [node.submit_update(name, {"n": 1}) for name in objects[1:]]
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
            # Simultaneous proposals veto each other as busy.  The peer
            # retries within 50 ms and settles; this node's backoff is
            # made long enough to still be pending once all is quiet.
            pipe = node.pipeline(hot, base_retry_delay=4.0,
                                 max_retry_delay=4.0)
            tickets.append(peer.submit_update(hot, {"n": 1}))
            tickets.append(node.submit_update(hot, {"n": 1}))
            assert wait(lambda: all(t.done for t in tickets[:-1])
                        and not engine.busy, 1.0)  # peer's commit is in
            assert pipe.busy_retries == 1 and pipe.retry_delay() > 1.0
        tickets.append(node.submit_update(hot, {"n": 1}))
        pipe = node.pipeline_for(hot)
        assert pipe.depth >= 1  # queued ...
        if reason != "own-run":
            assert pipe.inflight_run_id is None  # ... but idle
        if reason == "crash-recover":
            node.crash()  # cancels the pending backoff timer
            community.settle(5.0)  # the backoff runs out meanwhile
            node.recover()
        community.settle()  # nothing else drives it
        assert all(ticket.done and ticket.valid for ticket in tickets)
        for name in founders:
            member = community.node(name)
            for object_name in objects:
                queue = member.pipeline_for(object_name)
                assert queue is None or (
                    queue.depth == 0 and queue.inflight_run_id is None)
        assert node._pipeline_timers == {}
        expected = {"applied": 3 if reason in ("backoff", "crash-recover")
                    else 2 if reason != "membership" else 1}
        state = node.controllers[hot].b2b_object.get_state()
        assert state["applied"] == expected["applied"]


class TestNoLostWakeUpWhileBusy:
    """:class:`TestNoLostWakeUp`'s five reasons a queue sits
    queued-but-idle, each while the node is busy with other runs: the
    queue drains whether idle is reported or never is."""

    @pytest.mark.parametrize("idle", ["reported", "never"])
    @pytest.mark.parametrize("reason", [
        "own-run", "responder", "membership", "backoff", "crash-recover"])
    def test_queued_pipeline_wakes(self, reason, idle):
        objects = [f"obj-{i}" for i in range(4)]
        names = ["Org1", "Org2", "Org3"]
        founders = names[:2] if reason == "membership" else names
        community, network = held_community(
            3, objects, seed=41, founders=founders)
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
        pipe = node.pipeline_for(hot)
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
                queue = member.pipeline_for(object_name)
                assert queue is None or queue.depth == 0
        expected = {"own-run": 2, "responder": 2, "membership": 1,
                    "backoff": 3, "crash-recover": 3}[reason]
        assert applied(node, hot) == expected
        assert [applied(node, name) for name in siblings] == [1, 1, 1]


class TestNodeTablesDoNotGrow:
    """Past warm-up a settled update leaves nothing behind in the node's
    own tables: the ready FIFO, the backoff timers, the membership
    ticket registry and the pipeline table."""

    @staticmethod
    def _sizes(community, names):
        nodes = {name: community.node(name) for name in names}
        return {name: (len(node._ready), len(node._pipeline_timers),
                       len(node._tickets), len(node.pipelines))
                for name, node in nodes.items()}

    @pytest.mark.parametrize("objects", [1, 8])
    def test_same_size_after_n_and_2n_updates(self, objects):
        community = sim_community(3, seed=61)
        names = community.names()
        object_names = [f"obj-{i}" for i in range(objects)]
        for object_name in object_names:
            community.found_object(
                object_name, {name: CounterObject() for name in names})
        rounds = itertools.count()

        def settle(updates):
            tickets = []
            for index in range(updates // 2):
                # Two proposers on one object: busy vetoes arm backoffs.
                object_name = object_names[next(rounds) % objects]
                tickets += [community.node(name).submit_update(
                    object_name, {"n": 1}) for name in names[:2]]
                if index % 4 == 3:
                    community.settle()
            # A newcomer joins one object and Org1 evicts it: a tracked
            # ticket at each end.
            joiner = community.add_organisation(f"Join{len(community.nodes)}")
            tickets.append(joiner.propagate_connect(
                object_names[0], CounterObject(), via="Org1"))
            community.settle()
            tickets.append(community.node("Org1").propagate_eviction(
                object_names[0], [joiner.party_id]))
            community.settle()
            assert all(ticket.done and ticket.valid for ticket in tickets)
            assert joiner._tickets == {}
            return self._sizes(community, names)

        settle(16)  # warm-up: every object written by both proposers
        after_n = settle(16)
        assert settle(16) == after_n
        assert after_n["Org1"][3] == objects


class TestInstrumentsDoNotGrow:
    """Past warm-up a settled update binds no new instrument: the
    recorder's bound-instrument cache and the registry behind it are
    keyed by label values, never by run or ticket."""

    @pytest.mark.parametrize("objects", [1, 8])
    def test_same_size_after_n_and_2n_updates(self, objects):
        obs = RecordingInstrumentation()
        community = sim_community(3, seed=62, obs=obs)
        names = community.names()
        object_names = [f"obj-{i}" for i in range(objects)]
        for object_name in object_names:
            community.found_object(
                object_name, {name: CounterObject() for name in names})
        rounds = itertools.count()

        def settle(updates):
            tickets = []
            for index in range(updates // 2):
                # Two proposers on one object: busy vetoes and retries.
                object_name = object_names[next(rounds) % objects]
                tickets += [community.node(name).submit_update(
                    object_name, {"n": 1}) for name in names[:2]]
                if index % 4 == 3:
                    community.settle()
                    community.examine(names[2], object_name, cached())
            community.settle()
            assert all(ticket.done and ticket.valid for ticket in tickets)
            snapshot = obs.registry.snapshot()
            return len(obs._bound), sum(map(len, snapshot.values()))

        settle(16)  # warm-up
        after_n = settle(16)
        assert settle(16) == after_n
        counters = obs.registry.snapshot()["counters"]
        assert counters["pipeline.busy_retries"] > 0
        assert counters["readcache.reads.cached"] > 0
        community.close()


class TestContainersDoNotGrow:
    """Past warm-up (and past each window, made small here) a settled
    update leaves the per-node containers outside the run table as they
    were: the reliable layer's dedup windows and outstanding map, the
    gateway's idempotency store, the read snapshots and the journal's
    open-run memory.  The journal's closed-run index grows by one entry
    per run by design, as the evidence log does."""

    WINDOW = 8

    @staticmethod
    def _reachable(root) -> int:
        """Objects reachable from *root*, numbers aside (whether two
        equal counts share one small-int object is not growth)."""
        seen, stack = {id(root)}, [root]
        while stack:
            for child in gc.get_referents(stack.pop()):
                if (id(child) not in seen
                        and not isinstance(child, (type, int, float))):
                    seen.add(id(child))
                    stack.append(child)
        return len(seen)

    def _sizes(self, node):
        delivered = node.endpoint._delivered
        idempotency = node.gateway().idempotency
        return {
            "dedup": (len(delivered), delivered.source_count,
                      len(node.endpoint._outstanding)),
            "idempotency": (idempotency.pending_count,
                            idempotency.completed_count),
            "snapshots": self._reachable(node.readcache._cells),
            "journal": self._reachable(node.ctx.journal._open),
        }

    @pytest.mark.parametrize("objects", [1, 4])
    def test_same_size_after_n_and_2n_updates(self, objects):
        from repro.transport.reliable import _DedupWindow

        community = sim_community(3, seed=63)
        names = community.names()
        object_names = [f"obj-{i}" for i in range(objects)]
        for object_name in object_names:
            community.found_object(
                object_name, {name: CounterObject() for name in names})
        for name in names:
            node = community.node(name)
            node.endpoint._delivered = _DedupWindow(window=self.WINDOW)
            node.gateway(idempotency_capacity=self.WINDOW)
        sessions = [community.node(name).gateway().session(f"client-{name}")
                    for name in names[:2]]
        rounds = itertools.count()

        def settle(updates):
            tickets = []
            for index in range(updates // 2):
                object_name = object_names[next(rounds) % objects]
                tickets += [session.submit(object_name, {"n": 1})
                            for session in sessions]
                if index % 4 == 3:
                    community.settle()
                    community.examine(names[2], object_name, cached())
                    community.examine(names[0], object_name, bounded(0.0))
            community.settle()
            assert all(ticket.done and ticket.valid for ticket in tickets)
            return {name: self._sizes(community.node(name)) for name in names}

        settle(32)  # warm-up: past every window
        after_n = settle(32)
        assert settle(32) == after_n
        assert after_n["Org1"]["idempotency"] == (0, self.WINDOW)
        assert after_n["Org3"]["dedup"][0] > self.WINDOW  # a window a peer
        community.close()


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


class TestCallbackDiscipline:
    def test_on_done_callbacks_are_serial_and_outside_the_engine_lock(self):
        """A closed-loop client that resubmits from inside ``on_done``:
        callbacks run one at a time under the node lock, never under the
        engine lock, and nothing deadlocks."""
        community = Community(["Org1", "Org2"], runtime=ThreadedRuntime(),
                              retransmit_interval=2.0)
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            objects = [f"obj-{i}" for i in range(8)]
            for object_name in objects:
                community.found_object(
                    object_name,
                    {name: CounterObject() for name in community.names()})
            node = community.node("Org1")
            session = node.gateway().session("loop")
            total, window = 200, 16
            loop = {"submitted": 0, "settled": 0, "active": False}
            errors: "list[BaseException]" = []
            finished = threading.Event()

            def submit_next():
                index = loop["submitted"]
                loop["submitted"] = index + 1
                session.submit(objects[index % len(objects)],
                               {"n": 1}).on_done(on_done)

            def on_done(ticket):
                try:
                    assert not loop["active"], "callbacks overlapped"
                    loop["active"] = True
                    assert node._lock._is_owned()
                    assert not node.engine_lock._is_owned()
                    assert ticket.valid
                    settled = loop["settled"]  # read ... (not atomic)
                    threading.Event().wait(0.0002)
                    loop["settled"] = settled + 1  # ... modify-write
                    if loop["submitted"] < total:
                        submit_next()
                    loop["active"] = False
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)
                if errors or loop["settled"] == total:
                    finished.set()

            with node._lock:  # serialise the first window with callbacks
                for _ in range(window):
                    submit_next()
            assert finished.wait(120.0), loop
            assert not errors, errors
            assert loop == {"submitted": total, "settled": total,
                            "active": False}
            applied = sum(
                node.controllers[name].b2b_object.get_state()["applied"]
                for name in objects)
            assert applied == total
            assert node.gateway().stats()["rejected"] == {
                "rate_limited": 0, "overloaded": 0}
        finally:
            sys.setswitchinterval(switch_interval)
            community.close()


# ---------------------------------------------------------------------------
# one protocol thread: runs start on the network's thread
# ---------------------------------------------------------------------------

def tcp_community(parties, objects):
    names = [f"Org{i + 1}" for i in range(parties)]
    community = Community(names, runtime=ThreadedRuntime(TcpNetwork()),
                          retransmit_interval=2.0)
    for object_name in objects:
        community.found_object(
            object_name, {name: CounterObject() for name in names})
    return community


def hold_the_loop(network):
    """Post a command that keeps the reactor busy; returns the event
    that lets it go once the loop is inside it."""
    holding, go = threading.Event(), threading.Event()

    def hold():
        holding.set()
        go.wait(5.0)

    network._reactor._post(hold)
    assert holding.wait(5.0)
    return go


def signing_threads(monkeypatch):
    """The set of threads that make an RSA signature from now on."""
    threads = set()
    sign_bytes = RsaSigner.sign_bytes

    def recording_sign(signer, data):
        threads.add(threading.get_ident())
        return sign_bytes(signer, data)

    monkeypatch.setattr(RsaSigner, "sign_bytes", recording_sign)
    return threads


def drain_the_loop(network):
    """Return once the loop has run every command posted before."""
    done = threading.Event()
    network._reactor._post(done.set)
    assert done.wait(5.0)


class TestOneProtocolThread:
    def test_serial_writes_are_signed_and_committed_on_the_reactor(
            self, monkeypatch):
        """The submitting thread only queues: every signature (party and
        TSA) and every commit barrier of a write runs on the reactor."""
        community = tcp_community(3, ["doc"])
        try:
            signers, committers = signing_threads(monkeypatch), set()
            for name in community.names():
                ctx = community.node(name).ctx

                def recording_commit(commit=ctx.commit):
                    committers.add(threading.get_ident())
                    return commit()

                ctx.commit = recording_commit
            node = community.node("Org1")
            for _ in range(6):
                ticket = node.submit_update("doc", {"n": 1})
                assert ticket.wait_signal(10.0) and ticket.valid
            assert community.runtime.wait_until(lambda: all(
                applied(community.node(name), "doc") == 6
                for name in community.names()), 10.0)
            loop = community.runtime.network._reactor._loop_ident
            assert signers == committers == {loop}
        finally:
            community.close()

    def test_a_write_handed_off_before_a_crash_proposes_nothing(self):
        """Nothing is reserved across the hand-off: a crash between the
        submit and the loop's turn empties the ready FIFO, so the posted
        start sends no m1 and appends no evidence; after recovery the
        write settles exactly once."""
        community = tcp_community(3, ["doc"])
        network = community.runtime.network
        try:
            node = community.node("Org1")
            proposals = spy_on_proposals(node)
            evidence = len(node.ctx.evidence)
            go = hold_the_loop(network)
            ticket = node.submit_update("doc", {"n": 1})
            node.crash()
            go.set()
            drain_the_loop(network)
            assert proposals == [] and len(node.ctx.evidence) == evidence
            assert node._own_runs == 0 and not ticket.done
            node.recover()
            assert ticket.wait_signal(10.0) and ticket.valid
            assert community.runtime.wait_until(lambda: all(
                applied(community.node(name), "doc") == 1
                for name in community.names()), 10.0)
            assert len(proposals) == 1
        finally:
            community.close()

    def test_concurrent_submitters_lose_no_write(self, monkeypatch):
        """More submitting threads than cores, switching often: every
        write is applied once at every party, every signature is made on
        the reactor, and the floor is given back."""
        community = tcp_community(3, ["A", "B"])
        signers = signing_threads(monkeypatch)
        node = community.node("Org1")
        tickets, errors = [], []

        def submit(index):
            try:
                for n in range(25):
                    tickets.append(node.submit_update("AB"[(index + n) % 2],
                                                      {"n": 1}))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=submit, args=(index,))
                       for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            assert all(ticket.wait_signal(20.0) and ticket.valid
                       for ticket in tickets)
            assert community.runtime.wait_until(lambda: all(
                applied(community.node(name), "A")
                + applied(community.node(name), "B") == 100
                for name in community.names()), 10.0)
            assert node._own_runs == 0 and node._ready == {}
            assert signers == {community.runtime.network._reactor._loop_ident}
        finally:
            sys.setswitchinterval(switch_interval)
            community.close()

    def test_a_settled_read_waits_for_the_write_handed_over(self):
        """A write submitted just before a settled read starts on the
        reactor; the read still waits for its run, as it did when the
        write was proposed inside ``submit_update``."""
        community = tcp_community(3, ["doc"])
        try:
            node = community.node("Org1")
            for n in range(1, 31):
                ticket = node.submit_update("doc", {"n": 1})
                assert node.examine("doc").state["applied"] == n
                assert ticket.wait_signal(10.0) and ticket.valid
        finally:
            community.close()

    def test_base_network_runs_the_callback_at_once(self):
        ran = []
        SimNetwork().call_in_loop(lambda: ran.append(threading.get_ident()))
        assert ran == [threading.get_ident()]


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
            frame = EnvelopeEncoder().encode(Envelope("B", "A", {"x": 1}))
            with socket.create_connection(network.address_of("A"),
                                          timeout=2.0) as conn:
                conn.sendall(PREAMBLE + frame)  # warm-up: accepted
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
                conn.sendall(frame)
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
