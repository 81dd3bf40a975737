"""The shard scheduler: routing, workers, cross-shard atomicity, the one
write queue per object (wake-ups, callback discipline), and the
clock/error-handling fixes that shipped with it."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import (
    Community,
    DictB2BObject,
    ShardMap,
    ShardScheduler,
    submit_transaction,
)
from repro.core.object import B2BObject
from repro.core.runtime import SimRuntime, ThreadedRuntime
from repro.errors import ConfigurationError
from repro.obs.live.flight import FlightRecorder
from repro.obs.recording import RecordingInstrumentation
from repro.obs.report import render_snapshot
from repro.protocol.validation import Decision
from repro.transport.inmemory import LinkProfile


def sharded_community(names_or_count, seed=0, **kwargs):
    if isinstance(names_or_count, int):
        names = [f"Org{i + 1}" for i in range(names_or_count)]
    else:
        names = list(names_or_count)
    runtime = SimRuntime(seed=seed, profile=LinkProfile(latency=0.005))
    return Community(names, runtime=runtime, **kwargs)


class CounterObject(B2BObject):
    """Additive-merge counter: double application is visible."""

    def __init__(self) -> None:
        super().__init__()
        self._state = {"applied": 0, "total": 0}

    def get_state(self) -> dict:
        return dict(self._state)

    def apply_state(self, state) -> None:
        self._state = dict(state)

    def merge_update(self, state, update):
        amount = int(update.get("n", 1)) if isinstance(update, dict) else 1
        return {"applied": state["applied"] + 1,
                "total": state["total"] + amount}


class PickyObject(CounterObject):
    """Counter that vetoes negative amounts at validation time."""

    def validate_update(self, update, resulting, current, proposer):
        if isinstance(update, dict) and update.get("n", 1) < 0:
            return Decision.reject("negative amounts forbidden")
        return Decision.accept()


# ---------------------------------------------------------------------------
# unit: consistent-hash map / scheduler
# ---------------------------------------------------------------------------

class TestShardMap:
    def test_mapping_is_deterministic_across_instances(self):
        names = [f"obj-{i}" for i in range(100)]
        first = ShardMap(8)
        second = ShardMap(8)
        assert [first.shard_of(n) for n in names] == \
            [second.shard_of(n) for n in names]

    def test_every_index_in_range_and_all_shards_used(self):
        shard_map = ShardMap(8)
        spread = shard_map.spread([f"obj-{i}" for i in range(200)])
        assert set(spread) <= set(range(8))
        assert len(spread) == 8  # 200 names cover all 8 shards

    def test_single_shard_takes_everything(self):
        shard_map = ShardMap(1)
        assert {shard_map.shard_of(f"o{i}") for i in range(20)} == {0}

    def test_consistent_hashing_limits_movement(self):
        names = [f"obj-{i}" for i in range(400)]
        small, large = ShardMap(4), ShardMap(5)
        moved = sum(1 for n in names
                    if small.shard_of(n) != large.shard_of(n))
        # Consistent hashing: growing 4 -> 5 shards should move roughly
        # 1/5 of the keys, not rehash everything.
        assert moved < len(names) // 2

    def test_rejects_zero_shards(self):
        with pytest.raises(ConfigurationError):
            ShardMap(0)


class TestShardScheduler:
    def test_none_and_single_shard_route_to_zero(self):
        scheduler = ShardScheduler(num_shards=1)
        assert scheduler.shard_for(None).index == 0
        assert scheduler.shard_for("anything").index == 0

    def test_shards_for_returns_canonical_order(self):
        scheduler = ShardScheduler(num_shards=8)
        names = [f"obj-{i}" for i in range(30)]
        shards = scheduler.shards_for(names)
        indices = [shard.index for shard in shards]
        assert indices == sorted(set(indices))

    def test_lock_all_is_reentrant_with_single_locks(self):
        scheduler = ShardScheduler(num_shards=3)
        with scheduler.lock_all():
            # RLocks: the owning thread may re-acquire individually.
            with scheduler.shard_for("x").lock:
                pass

    def test_worker_runs_submitted_work_on_shard_thread(self):
        scheduler = ShardScheduler(num_shards=2, workers=True, name="T")
        try:
            seen = {}
            done = threading.Event()

            def work():
                seen["thread"] = threading.current_thread().name
                done.set()

            scheduler.shards[1].submit(work)
            assert done.wait(2.0)
            assert seen["thread"] == "shard-T-1"
        finally:
            scheduler.stop()

    def test_stopped_shard_runs_work_inline(self):
        scheduler = ShardScheduler(num_shards=1, workers=True, name="T")
        scheduler.stop()
        ran = []
        scheduler.shards[0].submit(lambda: ran.append(True))
        assert ran == [True]


# ---------------------------------------------------------------------------
# integration: a sharded community
# ---------------------------------------------------------------------------

class TestShardedCommunity:
    def test_many_objects_settle_across_shards(self):
        community = sharded_community(3, seed=11, num_shards=4)
        names = community.names()
        objects = [f"obj-{i}" for i in range(12)]
        for object_name in objects:
            community.found_object(
                object_name, {name: DictB2BObject() for name in names})
        node = community.node("Org1")
        # The objects genuinely land on more than one shard.
        assert len(node.shards.map.spread(objects)) > 1
        tickets = [node.submit_update(object_name, {"k": object_name})
                   for object_name in objects]
        community.settle()
        assert all(t.done and t.valid for t in tickets)
        for object_name in objects:
            for name in names:
                state = community.node(name).controllers[
                    object_name].b2b_object.get_state()
                assert state == {"k": object_name}

    def test_simruntime_never_starts_workers(self):
        community = sharded_community(2, seed=12, num_shards=4)
        shards = community.node("Org1").shards
        assert not shards.workers
        assert not any(shard.worker_running for shard in shards.shards)

    def test_threaded_runtime_starts_a_worker_per_shard(self):
        community = Community(["Org1", "Org2"], runtime=ThreadedRuntime(),
                              num_shards=2)
        try:
            shards = community.node("Org1").shards
            assert shards.workers
            assert all(shard.worker_running for shard in shards.shards)
        finally:
            community.close()

    def test_restart_node_keeps_shard_topology(self, tmp_path):
        community = sharded_community(2, seed=14, num_shards=4,
                                      storage_dir=str(tmp_path))
        names = community.names()
        community.found_object(
            "obj", {name: DictB2BObject() for name in names})
        node = community.node("Org1")
        node.submit_update("obj", {"k": 1})
        community.settle()
        replacement = community.restart_node("Org1")
        assert replacement.shards.num_shards == 4
        replacement.restore_object("obj", DictB2BObject())
        community.settle()
        state = replacement.controllers["obj"].b2b_object.get_state()
        assert state == {"k": 1}

    def test_per_shard_settlement_counters(self):
        obs = RecordingInstrumentation()
        community = sharded_community(2, seed=15, num_shards=4, obs=obs)
        names = community.names()
        objects = [f"obj-{i}" for i in range(8)]
        for object_name in objects:
            community.found_object(
                object_name, {name: DictB2BObject() for name in names})
        node = community.node("Org1")
        for object_name in objects:
            node.submit_update(object_name, {"k": 1})
        community.settle()
        snapshot = obs.registry.snapshot()
        counters = snapshot["counters"]
        total = counters.get("shards.settled", 0)
        assert total >= len(objects)
        spread = node.shards.map.spread(objects)
        for index in spread:
            assert counters.get(f"shards.settled.s{index}", 0) > 0
        report = render_snapshot(snapshot)
        assert "== shard scheduler ==" in report


class TestShardWorkersShareOnePartyStores:
    """Two shard workers of one party append to one evidence log, one
    journal and one checkpoint store; each append must stay atomic."""

    def test_evidence_chain_survives_concurrent_shards_over_sockets(self):
        runtime = ThreadedRuntime()
        community = Community(["Org1", "Org2", "Org3"], runtime=runtime,
                              retransmit_interval=2.0, num_shards=2)
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # make the workers interleave for real
        try:
            names = community.names()
            objects = [f"obj-{i}" for i in range(6)]
            for object_name in objects:
                community.found_object(
                    object_name, {name: DictB2BObject() for name in names})
            spread = community.node("Org1").shards.map.spread(objects)
            assert len(spread) == 2 and len(objects) >= 4
            # Each object has one proposer (no busy vetoes), proposers
            # differ between objects, and every party responds on both
            # of its shards at once.
            tickets = []
            for round_index in range(12):
                for index, object_name in enumerate(objects):
                    proposer = community.node(names[index % len(names)])
                    tickets.append(proposer.submit_update(
                        object_name, {f"k{round_index}": round_index}))
            assert len(tickets) >= 60
            for ticket in tickets:
                assert ticket.wait_signal(30.0), "update did not settle"
                assert ticket.valid
            expected = {f"k{i}": i for i in range(12)}

            def converged() -> bool:
                return all(
                    community.node(name).party.session(obj).state.agreed_state
                    == expected for name in names for obj in objects)

            assert runtime.wait_until(converged, timeout=30.0)
            for name in names:
                ctx = community.node(name).ctx
                assert ctx.evidence.verify_chain() == len(ctx.evidence)
                assert ctx.journal.open_runs() == set()
                for object_name in objects:
                    latest = ctx.checkpoints.latest(object_name)
                    assert latest is not None and latest.state == expected
        finally:
            sys.setswitchinterval(switch_interval)
            community.close()


# ---------------------------------------------------------------------------
# the one write queue per object: wake-ups and callback discipline
# ---------------------------------------------------------------------------

class TestNoLostWakeUp:
    """A settlement wakes only the pipeline it names, so every reason a
    pipeline can sit queued-but-idle must bring its own wake-up."""

    @pytest.mark.parametrize("reason", [
        "own-run", "responder", "membership", "backoff", "crash-recover"])
    def test_queued_but_idle_pipeline_always_wakes(self, reason):
        community = sharded_community(3, seed=41, num_shards=2)
        names = community.names()
        objects = [f"obj-{i}" for i in range(4)]
        founders = names[:2] if reason == "membership" else names
        for object_name in objects:
            community.found_object(
                object_name, {name: CounterObject() for name in founders})
        node, peer = community.node("Org1"), community.node("Org2")
        assert len(node.shards.map.spread(objects)) == 2
        hot = objects[0]
        engine = node.party.session(hot).state
        wait = community.runtime.wait_until
        # Sibling traffic on both shards; nothing below leans on it.
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
        pipe = node.shards.pipeline_for(hot)
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
            shards = community.node(name).shards
            for object_name in objects:
                queue = shards.pipeline_for(object_name)
                assert queue is None or (
                    queue.depth == 0 and queue.inflight_run_id is None)
        assert node._pipeline_timers == {}
        expected = {"applied": 3 if reason in ("backoff", "crash-recover")
                    else 2 if reason != "membership" else 1}
        state = node.controllers[hot].b2b_object.get_state()
        assert state["applied"] == expected["applied"]


class TestCallbackDiscipline:
    def test_on_done_callbacks_are_serial_and_outside_shard_locks(self):
        """A closed-loop client that resubmits from inside ``on_done``:
        callbacks run one at a time under the node lock, never under a
        shard lock, and nothing deadlocks."""
        community = Community(["Org1", "Org2"], runtime=ThreadedRuntime(),
                              retransmit_interval=2.0, num_shards=2)
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            objects = [f"obj-{i}" for i in range(8)]
            for object_name in objects:
                community.found_object(
                    object_name,
                    {name: CounterObject() for name in community.names()})
            node = community.node("Org1")
            assert len(node.shards.map.spread(objects)) == 2
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
                    assert not any(shard.lock._is_owned()
                                   for shard in node.shards.shards)
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
                "rate_limited": 0, "overloaded": 0, "circuit_open": 0}
        finally:
            sys.setswitchinterval(switch_interval)
            community.close()


# ---------------------------------------------------------------------------
# cross-shard composite transactions
# ---------------------------------------------------------------------------

class TestCompositeTransactions:
    def _community(self, seed, cls=CounterObject, objects=("alpha", "beta")):
        community = sharded_community(3, seed=seed, num_shards=4)
        names = community.names()
        for object_name in objects:
            community.found_object(
                object_name, {name: cls() for name in names})
        return community

    def test_cross_shard_transaction_settles_atomically(self):
        community = self._community(21)
        node = community.node("Org1")
        ticket = node.submit_composite({"alpha": {"n": 3}, "beta": {"n": 5}})
        assert not ticket.aborted
        assert set(ticket.children) == {"alpha", "beta"}
        community.settle()
        assert ticket.done and ticket.valid and not ticket.partial
        for name in community.names():
            controllers = community.node(name).controllers
            assert controllers["alpha"].b2b_object.get_state() == \
                {"applied": 1, "total": 3}
            assert controllers["beta"].b2b_object.get_state() == \
                {"applied": 1, "total": 5}

    def test_rejected_child_aborts_with_nothing_applied(self):
        community = self._community(22, cls=PickyObject)
        node = community.node("Org1")
        ticket = node.submit_composite({"alpha": {"n": 3}, "beta": {"n": -1}})
        assert ticket.aborted
        assert ticket.done and ticket.valid is False
        assert any("beta" in diag and "negative" in diag
                   for diag in ticket.child_diagnostics())
        assert ticket.children == {}
        community.settle()
        # All-or-nothing: the valid sibling was not applied either.
        for name in community.names():
            controllers = community.node(name).controllers
            assert controllers["alpha"].b2b_object.get_state() == \
                {"applied": 0, "total": 0}
            assert controllers["beta"].b2b_object.get_state() == \
                {"applied": 0, "total": 0}

    def test_transaction_atomic_under_concurrent_child_traffic(self):
        community = self._community(23)
        node = community.node("Org1")
        other = community.node("Org2")
        side = [other.submit_update("alpha", {"n": 1}) for _ in range(3)]
        side += [other.submit_update("beta", {"n": 1}) for _ in range(3)]
        ticket = node.submit_composite({"alpha": {"n": 10}, "beta": {"n": 20}})
        community.settle()
        assert ticket.done and ticket.valid and not ticket.partial
        assert all(t.done and t.valid for t in side)
        alpha = node.controllers["alpha"].b2b_object.get_state()
        beta = node.controllers["beta"].b2b_object.get_state()
        # Each child applied the transaction exactly once plus the side
        # traffic — no partial or double application anywhere.
        assert alpha == {"applied": 4, "total": 13}
        assert beta == {"applied": 4, "total": 23}

    def test_composite_object_under_batched_pipeline(self):
        from repro.core import CompositeB2BObject

        community = sharded_community(2, seed=26, num_shards=2)
        names = community.names()
        composites = {
            name: CompositeB2BObject(
                {"left": CounterObject(), "right": CounterObject()})
            for name in names
        }
        community.found_object("bundle", composites)
        node = community.node("Org1")
        node.pipeline("bundle", max_batch=8)
        tickets = [
            node.submit_update("bundle", {"left": {"n": 1}})
            for _ in range(5)
        ] + [
            node.submit_update("bundle", {"right": {"n": 2}})
            for _ in range(5)
        ]
        community.settle()
        assert all(t.done and t.valid for t in tickets)
        # The queued updates coalesced into batched runs, and the batch
        # folded through the composite merge child by child.
        engine = node.party.session("bundle").state
        assert engine.agreed_sid.seq < len(tickets)
        for name in names:
            state = composites[name].get_state()
            assert state["left"] == {"applied": 5, "total": 5}
            assert state["right"] == {"applied": 5, "total": 10}

    def test_empty_transaction_rejected(self):
        community = self._community(24)
        with pytest.raises(ConfigurationError):
            submit_transaction(community.node("Org1"), {})

    def test_children_admitted_in_canonical_shard_order(self):
        community = self._community(25, objects=tuple(
            f"obj-{i}" for i in range(6)))
        node = community.node("Org1")
        updates = {f"obj-{i}": {"n": 1} for i in range(6)}
        ticket = node.submit_composite(updates)
        expected = sorted(
            updates, key=lambda n: (node.shards.shard_for(n).index, n))
        assert ticket.object_names == expected
        community.settle()
        assert ticket.valid


# ---------------------------------------------------------------------------
# satellite fixes: flight-recorder clock, swallowed handler errors
# ---------------------------------------------------------------------------

class TestFlightClockBinding:
    def test_preattached_recorder_uses_virtual_time(self):
        # The CLI builds RecordingInstrumentation(flight=...) before the
        # community (and its clock) exists; the community must bind its
        # clock so sim runs never stamp wall-clock times into the ring.
        flight = FlightRecorder(capacity=256)
        obs = RecordingInstrumentation(flight=flight)
        community = sharded_community(2, seed=31, obs=obs)
        names = community.names()
        community.found_object(
            "obj", {name: DictB2BObject() for name in names})
        community.node("Org1").submit_update("obj", {"k": 1})
        community.settle()
        events = flight.events()
        assert events, "protocol activity must reach the flight ring"
        stamps = [event["t"] for event in events]
        # Virtual timestamps: small and monotone, never ~1.7e9 wall time.
        assert all(stamp < 1e6 for stamp in stamps), stamps[:5]
        assert stamps == sorted(stamps)

    def test_bind_clock_does_not_replace_existing(self):
        class FixedClock:
            def now(self) -> float:
                return 42.0

        flight = FlightRecorder(capacity=4, clock=FixedClock())
        flight.bind_clock(None)

        class OtherClock:
            def now(self) -> float:
                return 7.0

        flight.bind_clock(OtherClock())
        flight.record("probe")
        assert flight.events()[0]["t"] == 42.0

    def test_node_live_reuses_preattached_recorder(self):
        flight = FlightRecorder(capacity=64)
        obs = RecordingInstrumentation(flight=flight)
        community = sharded_community(2, seed=32, obs=obs)
        live = community.node("Org1").live()
        assert live.flight is flight


class TestHandlerErrorAccounting:
    def test_reactor_counts_command_and_timer_errors(self):
        from repro.transport.tcp import TcpNetwork

        obs = RecordingInstrumentation()
        network = TcpNetwork(obs=obs)
        try:
            reactor = network._reactor
            fired = threading.Event()

            def boom():
                fired.set()
                raise RuntimeError("bug")

            reactor._post(boom)
            reactor.schedule(0.0, boom)
            for _ in range(40):
                counters = obs.registry.snapshot()["counters"]
                if (counters.get("transport.tcp.handler_errors.command")
                        and counters.get(
                            "transport.tcp.handler_errors.timer")):
                    break
                threading.Event().wait(0.05)
            counters = obs.registry.snapshot()["counters"]
            assert counters.get("transport.tcp.handler_errors.command") == 1
            assert counters.get("transport.tcp.handler_errors.timer") == 1
            assert counters.get("transport.tcp.handler_errors") == 2
        finally:
            network.close()

    def test_shard_worker_error_is_counted_and_the_worker_keeps_draining(
            self):
        flight = FlightRecorder(capacity=16)
        obs = RecordingInstrumentation(flight=flight)
        community = Community(["Org1", "Org2"], runtime=ThreadedRuntime(),
                              num_shards=2, obs=obs)
        try:
            shard = community.node("Org1").shards.shards[1]
            drained = threading.Event()

            def boom():
                raise RuntimeError("bug")

            shard.submit(boom)
            shard.submit(drained.set)
            assert drained.wait(2.0)  # the worker survived the exception
            assert shard.worker_running
            counters = obs.registry.snapshot()["counters"]
            assert counters.get("transport.tcp.handler_errors.shard") == 1
            events = [event for event in flight.events()
                      if event["kind"] == "handler_error"]
            assert [event["site"] for event in events] == ["shard"]
        finally:
            community.close()

    def test_handler_errors_reach_flight_ring_and_report(self):
        flight = FlightRecorder(capacity=16)
        obs = RecordingInstrumentation(flight=flight)
        obs.handler_error("OrgX", "dispatch")
        kinds = [event["kind"] for event in flight.events()]
        assert "handler_error" in kinds
        report = render_snapshot(obs.registry.snapshot())
        assert "handler errors (dispatch)" in report
