"""Validated read-path cache: staleness semantics and publication.

Pins the consistency contract documented in ``docs/READS.md``:

* ``bounded(0)`` reads are equivalent to ``settled`` reads;
* a ``cached`` read never observes a vetoed (unsettled) proposal's
  state — only states that passed the full coordination round publish;
* snapshots invalidate on crash/recovery and full process restart, and
  republish from the recovered engines;
* settlements on several objects republish each object's snapshot;
* concurrent readers during a settlement storm observe monotonically
  non-decreasing versions;
* staleness is measured on the network's clock, not the wall clock;
* a bounded hit is a lookup, a clock read and a tuple (a call-count
  gate, counted rather than timed).
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

import pytest

from repro.core import (
    Community,
    DictB2BObject,
    SimRuntime,
    ThreadedRuntime,
    bounded,
    cached,
    parse_read_mode,
    settled,
    wrap_object,
)
from repro.core.object import B2BObject
from repro.core.readcache import (
    BOUNDED,
    CACHED,
    SETTLED,
    ReadCache,
    ReadMode,
    ReadResult,
)
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    RateLimitedError,
)
from repro.obs.recording import RecordingInstrumentation
from repro.obs.report import render_snapshot
from repro.protocol.validation import Decision
from repro.transport.inmemory import LinkProfile
from repro.transport.tcp import TcpNetwork
from repro.util.clocks import Clock
from repro.util.encoding import canonical_bytes, freeze, from_canonical_bytes


class CounterObject(B2BObject):
    """Additive merge that vetoes negative amounts at validation."""

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

    def validate_update(self, update, resulting, current, proposer):
        if isinstance(update, dict) and update.get("n", 1) < 0:
            return Decision.reject("negative amounts forbidden")
        return Decision.accept()


def build(names=("A", "B", "C"), seed=0, obs=None, **kwargs):
    runtime = SimRuntime(seed=seed, profile=LinkProfile(latency=0.005))
    community = Community(list(names), runtime=runtime, obs=obs, **kwargs)
    objects = {name: DictB2BObject() for name in names}
    controllers = community.found_object("ledger", objects)
    return community, controllers, objects


def write(community, controllers, objects, org, **attrs):
    controller = controllers[org]
    controller.enter()
    controller.overwrite()
    for key, value in attrs.items():
        objects[org].set_attribute(key, value)
    controller.leave()
    community.settle(1.0)


# ---------------------------------------------------------------------------
# mode parsing
# ---------------------------------------------------------------------------

class TestReadModes:
    def test_none_and_strings_parse(self):
        assert parse_read_mode(None).kind == SETTLED
        assert parse_read_mode("settled").kind == SETTLED
        assert parse_read_mode("cached").kind == CACHED
        assert parse_read_mode(bounded(0.5)).max_staleness == 0.5

    def test_bounded_requires_nonnegative_staleness(self):
        assert bounded(0).max_staleness == 0.0
        with pytest.raises(ConfigurationError):
            bounded(-0.1)

    def test_invalid_modes_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_read_mode("eventually")
        with pytest.raises(ConfigurationError):
            parse_read_mode(ReadMode(BOUNDED))  # no max_staleness
        with pytest.raises(ConfigurationError):
            parse_read_mode(42)

    def test_describe(self):
        assert settled().describe() == "settled"
        assert cached().describe() == "cached"
        assert bounded(0.25).describe() == "bounded(0.25s)"

    @pytest.mark.parametrize("kind, bound", [
        (BOUNDED, float("nan")), (BOUNDED, -1.0), (BOUNDED, -1),
        (BOUNDED, None), (BOUNDED, "0.5"), (BOUNDED, True),
        (CACHED, 1.0), (SETTLED, 0.0), ("eventually", None)])
    def test_a_mode_is_checked_at_both_doors(self, kind, bound):
        """``bounded(nan)`` once built a mode that refreshed on every read
        and described itself as ``bounded(nans)``, and a hand-built
        ``ReadMode(BOUNDED, -1.0)`` passed ``parse_read_mode``."""
        if kind == BOUNDED:
            with pytest.raises(ConfigurationError):
                bounded(bound)
        with pytest.raises(ConfigurationError):
            parse_read_mode(ReadMode(kind, bound))


# ---------------------------------------------------------------------------
# core semantics
# ---------------------------------------------------------------------------

class TestReadSemantics:
    def test_genesis_snapshot_published_at_registration(self):
        community, _, _ = build(seed=1)
        result = community.examine("A", "ledger", cached())
        assert result.hit
        assert result.version == 0
        assert result.state == {}
        community.close()

    def test_cached_read_tracks_settlements(self):
        community, controllers, objects = build(seed=2)
        write(community, controllers, objects, "A", k=1)
        result = community.examine("B", "ledger", cached())
        assert result.hit and result.version == 1
        assert result.state == {"k": 1}
        write(community, controllers, objects, "B", m=2)
        result = community.examine("B", "ledger", cached())
        assert result.version == 2
        assert result.state == {"k": 1, "m": 2}
        community.close()

    def test_bounded_zero_equals_settled(self):
        """``bounded(0)`` must behave exactly like ``settled``."""
        community, controllers, objects = build(seed=3)
        write(community, controllers, objects, "A", k=1)
        # Let virtual time pass so the published snapshot has stale age.
        community.settle(1.0)
        for name in ("A", "B", "C"):
            via_settled = community.examine(name, "ledger", settled())
            via_bounded = community.examine(name, "ledger", bounded(0))
            assert via_bounded.state == via_settled.state
            assert via_bounded.version == via_settled.version
            # Both paths refreshed from the engine: neither is a stale hit.
            assert not via_settled.hit
            assert via_bounded.staleness == 0.0
        community.close()

    def test_bounded_hits_within_bound_and_refreshes_past_it(self):
        community, controllers, objects = build(seed=4)
        write(community, controllers, objects, "A", k=1)
        fresh = community.examine("A", "ledger", settled())
        assert not fresh.hit
        within = community.examine("A", "ledger", bounded(10.0))
        assert within.hit and within.staleness <= 10.0
        community.settle(5.0)  # virtual time passes; snapshot ages
        stale = community.examine("A", "ledger", bounded(1.0))
        assert not stale.hit  # over the bound: refreshed first
        assert stale.staleness == 0.0
        community.close()

    def test_snapshot_state_is_isolated_from_mutation(self):
        community, controllers, objects = build(seed=5)
        write(community, controllers, objects, "A", k=1)
        first = community.examine("B", "ledger", cached())
        first.state["k"] = "tampered"
        again = community.examine("B", "ledger", cached())
        assert again.state == {"k": 1}
        community.close()


class TestReadContract:
    def test_a_result_is_an_immutable_tuple_of_four_fields(self):
        community, controllers, objects = build(seed=20)
        write(community, controllers, objects, "A", k=1)
        assert ReadResult._fields == ("snapshot", "mode", "hit", "staleness")
        result = community.examine("B", "ledger", cached())
        assert tuple(result) == (result.snapshot, cached(), True,
                                 result.staleness)
        with pytest.raises(AttributeError):
            result.hit = False
        with pytest.raises(AttributeError):
            result.snapshot.encoded = b"{}"
        community.close()

    def test_state_is_a_private_copy_of_the_agreed_bytes(self):
        community, controllers, objects = build(seed=21)
        write(community, controllers, objects, "A", k=1, nested={"n": [1]})
        first = community.examine("B", "ledger", cached())
        snapshot = first.snapshot
        assert snapshot.encoded == canonical_bytes({"k": 1,
                                                    "nested": {"n": [1]}})
        first.state["nested"]["n"].append(2)
        snapshot.state["k"] = "tampered"
        again = community.examine("B", "ledger", cached())
        assert again.state == snapshot.state == {"k": 1, "nested": {"n": [1]}}
        assert again == first  # one snapshot, served twice at one instant
        community.close()

    def test_a_wall_clock_step_back_does_not_make_a_snapshot_fresh(self):
        """Staleness on the wall clock: 0.6 s after a settled read the
        clock stepped back 5 s, and a ``bounded(0.25)`` read was served
        as a hit with staleness 0.0."""
        class SteppableClock(Clock):
            offset = 0.0

            def now(self) -> float:
                return time.time() + self.offset

        clock = SteppableClock()
        community = Community(["A", "B"], runtime=ThreadedRuntime(TcpNetwork()),
                              clock=clock, retransmit_interval=0.5)
        try:
            community.found_object("ledger", {name: DictB2BObject()
                                              for name in ("A", "B")})
            node = community.node("A")
            assert not node.examine("ledger", settled()).hit
            time.sleep(0.6)
            clock.offset -= 5.0
            result = node.examine("ledger", bounded(0.25))
            assert result.hit is False and result.staleness == 0.0
        finally:
            community.close()


def _calls(call):
    """``call()``'s result and the code objects of every Python-level
    function it enters."""
    entered = []

    def profile(frame, event, _arg):
        if event == "call":
            entered.append(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(previous)
    return result, entered


#: What a served copy or a refresh costs, and a hit must not call.
_COPYING = {freeze.__code__, canonical_bytes.__code__,
            from_canonical_bytes.__code__, ReadCache.refresh.__code__}
_DECODING = {from_canonical_bytes.__code__, freeze.__code__,
             json.loads.__code__, json.JSONDecoder.decode.__code__}


class TestHitPathCounts:
    """Counted, not timed.  With a frozen-dataclass result and the mode
    parsed on every read, a gateway hit entered 11 functions and a
    ``node.examine`` hit 8: ``party_id``, ``parse_read_mode``,
    ``latest``, three clock layers and the dataclass's ``__init__``."""

    GATEWAY_CALLS = 6  # session, gateway, cache, 2 clock layers, tuple
    EXAMINE_CALLS = 5  # node, cache, 2 clock layers, tuple

    def test_a_bounded_hit_is_a_lookup_a_clock_read_and_a_tuple(self):
        community, controllers, objects = build(seed=19)
        write(community, controllers, objects, "A", k=1)
        node = community.node("A")
        session = node.gateway().session("reader")
        mode = bounded(10.0)
        for read, most in (
                (functools.partial(session.read, "ledger", mode),
                 self.GATEWAY_CALLS),
                (functools.partial(node.examine, "ledger", mode),
                 self.EXAMINE_CALLS)):
            assert read().hit
            _, entered = _calls(read)
            assert len(entered) <= most, [c.co_qualname for c in entered]
            assert not _COPYING & set(entered)
        community.close()

    def test_a_settlement_publishes_without_decoding(self):
        community, controllers, objects = build(seed=22)
        published = []
        for name in community.names():
            cache = community.node(name).readcache
            original = cache.publish

            def publish(*args, _original=original):
                snapshot, entered = _calls(lambda: _original(*args))
                published.append((len(args) == 4 and args[3] is not None,
                                  _DECODING & set(entered)))
                return snapshot

            cache.publish = publish
        write(community, controllers, objects, "A", k=1)
        with_bytes = [decoders for carried, decoders in published if carried]
        assert len(with_bytes) == 3  # every party's settlement
        assert with_bytes == [set()] * 3
        assert community.examine("C", "ledger", cached()).state == {"k": 1}
        community.close()


class TestVetoedProposalInvisible:
    def test_cached_read_never_observes_vetoed_state(self):
        names = ["A", "B"]
        runtime = SimRuntime(seed=6, profile=LinkProfile(latency=0.005))
        community = Community(names, runtime=runtime)
        replicas = {name: CounterObject() for name in names}
        community.found_object("ledger", replicas)
        node = community.node("A")

        node.submit_update("ledger", {"n": 5})
        community.settle(2.0)
        agreed = community.examine("A", "ledger", cached())
        assert agreed.state["total"] == 5 and agreed.version == 1

        # Propose a doomed update; the proposer pre-applies it to its
        # engine before the responder vetoes.  The published snapshot
        # must never show it — mid-flight or after the veto.
        ticket = node.submit_update("ledger", {"n": -3})
        midflight = community.examine("A", "ledger", cached())
        assert midflight.state["total"] == 5
        assert midflight.version == 1
        community.settle(2.0)
        assert ticket.done and not ticket.valid
        after = community.examine("A", "ledger", cached())
        assert after.state == {"applied": 1, "total": 5}
        assert after.version == 1
        community.close()


# ---------------------------------------------------------------------------
# invalidation: crash, recovery, restart, several objects
# ---------------------------------------------------------------------------

class TestInvalidation:
    def test_crash_invalidates_and_recovery_republishes(self):
        community, controllers, objects = build(seed=7)
        write(community, controllers, objects, "A", k=1)
        node = community.node("B")
        assert node.readcache.latest("ledger") is not None
        node.crash()
        assert node.readcache.latest("ledger") is None
        node.recover()
        community.settle(1.0)
        result = community.examine("B", "ledger", cached())
        assert result.version == 1 and result.state == {"k": 1}
        community.close()

    def test_restart_restore_republishes_from_checkpoint(self):
        community, controllers, objects = build(seed=8)
        write(community, controllers, objects, "A", k=1)
        write(community, controllers, objects, "B", m=2)
        node = community.restart_node("B")
        # The fresh node has no snapshots until the object is restored.
        assert node.readcache.latest("ledger") is None
        node.restore_object("ledger", DictB2BObject())
        result = node.examine("ledger", cached())
        assert result.version == 2
        assert result.state == {"k": 1, "m": 2}
        community.close()

    def test_settlement_republishes_every_object(self):
        names = ["A", "B"]
        runtime = SimRuntime(seed=9, profile=LinkProfile(latency=0.005))
        community = Community(names, runtime=runtime)
        objects = ["tx-alpha", "tx-beta", "tx-gamma"]
        for object_name in objects:
            community.found_object(
                object_name, {name: CounterObject() for name in names})
        node = community.node("A")
        before = {object_name: node.examine(object_name, cached()).version
                  for object_name in objects}
        assert before == {object_name: 0 for object_name in objects}
        tickets = [node.submit_update(object_name, {"n": 7})
                   for object_name in objects]
        community.settle(5.0)
        assert all(ticket.done and ticket.valid for ticket in tickets)
        for object_name in objects:
            result = node.examine(object_name, cached())
            assert result.version == 1, object_name
            assert result.state["total"] == 7
        community.close()


# ---------------------------------------------------------------------------
# controller scope + wrapper integration
# ---------------------------------------------------------------------------

class TestControllerScopes:
    def test_cached_scope_is_read_only(self):
        community, controllers, objects = build(seed=10)
        controller = controllers["A"]
        controller.enter(cached())
        assert controller.snapshot is not None
        with pytest.raises(ProtocolError):
            controller.overwrite()
        with pytest.raises(ProtocolError):
            controller.update()
        controller.leave()
        # Scope state resets: a fresh scope can write again.
        write(community, controllers, objects, "A", k=1)
        assert controllers["A"].agreed_state() == {"k": 1}
        community.close()

    def test_read_mode_only_on_outermost_enter(self):
        community, controllers, _ = build(seed=11)
        controller = controllers["A"]
        controller.enter()
        with pytest.raises(ProtocolError):
            controller.enter(cached())
        controller.leave()
        community.close()

    def test_examine_pins_snapshot_midscope_only_when_reading(self):
        community, controllers, objects = build(seed=12)
        controller = controllers["A"]
        controller.enter()
        controller.examine(cached())
        assert controller.snapshot is not None
        controller.leave()
        controller.enter()
        controller.overwrite()
        with pytest.raises(ProtocolError):
            controller.examine(cached())
        controller._access = None
        controller.leave()
        community.close()

    def test_examine_state_oneshot(self):
        community, controllers, objects = build(seed=13)
        write(community, controllers, objects, "A", k=1)
        assert controllers["B"].examine_state(cached()) == {"k": 1}
        assert controllers["B"].examine_state() == {"k": 1}
        community.close()


class _Board:
    """Minimal app object for the wrapper read-replica path."""

    def __init__(self) -> None:
        self.cells: dict = {}

    def get_state(self) -> dict:
        return dict(self.cells)

    def apply_state(self, state) -> None:
        self.cells = dict(state)

    def place(self, key, value) -> None:
        self.cells[key] = value

    def look(self, key):
        return self.cells.get(key)


class TestWrapperReadModes:
    def _board_community(self, seed):
        names = ["A", "B"]
        runtime = SimRuntime(seed=seed, profile=LinkProfile(latency=0.005))
        community = Community(names, runtime=runtime)
        boards = {name: _Board() for name in names}
        from repro.core import WrappedB2BObject

        controllers = community.found_object(
            "board", {name: WrappedB2BObject(boards[name])
                      for name in names})
        return community, controllers, boards

    def test_cached_reads_served_from_replica(self, monkeypatch):
        """The replica gets the snapshot at the version A installed; the
        live object's unsettled write is not seen and no scope opens."""
        community, controllers, boards = self._board_community(seed=14)
        replica = _Board()
        proxy = wrap_object(
            boards["A"], controllers["A"],
            write_methods=("place",), read_methods=("look",),
            read_mode=cached(), read_replica=replica,
        )
        proxy.place("corner", "X")
        proxy.place("edge", "O")
        community.settle(1.0)
        installed = community.node("A").party.session("board").state.agreed_sid
        boards["A"].cells["corner"] = "unsettled"
        scopes = []
        monkeypatch.setattr(controllers["A"], "examine",
                            lambda *args: scopes.append(args))
        assert proxy.look("corner") == "X"
        assert replica.cells == {"corner": "X", "edge": "O"}
        served = community.examine("A", "board", cached())
        assert served.version == installed.seq == 2
        assert served.state == replica.cells
        assert scopes == []
        community.close()

    def test_settled_read_goes_through_examine(self, monkeypatch):
        community, controllers, boards = self._board_community(seed=19)
        proxy = wrap_object(boards["A"], controllers["A"],
                            write_methods=("place",), read_methods=("look",))
        proxy.place("corner", "X")
        community.settle(1.0)
        examine = controllers["A"].examine
        scopes = []

        def counting(*args):
            scopes.append(args)
            examine(*args)

        monkeypatch.setattr(controllers["A"], "examine", counting)
        assert proxy.look("corner") == "X"
        assert scopes == [()]
        community.close()

    def test_cached_mode_requires_replica(self):
        community, controllers, _ = build(seed=15)
        with pytest.raises(ConfigurationError):
            wrap_object(DictB2BObject(), controllers["A"],
                        read_methods=("attributes",), read_mode=cached())
        community.close()


# ---------------------------------------------------------------------------
# gateway read endpoint
# ---------------------------------------------------------------------------

class TestGatewayReads:
    def test_reads_bypass_queue_and_count(self):
        community, controllers, objects = build(seed=16)
        write(community, controllers, objects, "A", k=1)
        gateway = community.node("A").gateway()
        session = gateway.session("reader-1")
        result = session.read("ledger", cached())
        assert result.state == {"k": 1}
        stats = gateway.stats()
        assert stats["reads"] == 1
        assert stats["admitted"] == 0  # no admission slot consumed
        assert community.node("A").pipeline_for("ledger").depth == 0
        community.close()

    def test_reads_are_rate_limited(self):
        community, controllers, objects = build(seed=17)
        write(community, controllers, objects, "A", k=1)
        gateway = community.node("A").gateway(rate=1.0, burst=2.0)
        session = gateway.session("reader-2")
        session.read("ledger", cached())
        session.read("ledger", cached())
        with pytest.raises(RateLimitedError):
            session.read("ledger", cached())
        assert gateway.stats()["rejected"]["rate_limited"] == 1
        community.close()


# ---------------------------------------------------------------------------
# concurrency: settlement storm over the real transport
# ---------------------------------------------------------------------------

class TestConcurrentReaders:
    def test_versions_monotonic_during_settlement_storm(self):
        names = ["A", "B"]
        runtime = ThreadedRuntime(TcpNetwork())
        community = Community(names, runtime=runtime,
                              retransmit_interval=0.5)
        replicas = {name: CounterObject() for name in names}
        community.found_object("ledger", replicas)
        node = community.node("A")
        updates = 12
        done = threading.Event()
        violations: "list[tuple[int, int]]" = []
        observed: "list[int]" = []

        def reader() -> None:
            last = -1
            while not done.is_set():
                result = node.examine("ledger", cached())
                if result.version < last:
                    violations.append((last, result.version))
                last = result.version
                observed.append(last)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            tickets = [node.submit_update("ledger", {"n": 1})
                       for _ in range(updates)]
            settled_all = community.runtime.wait_until(
                lambda: all(t.done for t in tickets), timeout=120.0)
            assert settled_all, "settlement storm did not finish"
            assert all(t.valid for t in tickets)
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=10.0)
            community.close()
        assert not violations, f"versions went backwards: {violations[:5]}"
        final = node.examine("ledger", cached())
        assert final.state["total"] == updates


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------

class TestReadcacheObservability:
    def test_metrics_and_report_section(self):
        obs = RecordingInstrumentation()
        community, controllers, objects = build(seed=18, obs=obs)
        write(community, controllers, objects, "A", k=1)
        community.settle(1.0)
        community.examine("A", "ledger", cached())     # hit
        community.examine("A", "ledger", bounded(0))   # refresh (stale)
        community.examine("A", "ledger", settled())    # refresh
        node = community.node("A")
        node.crash()
        snapshot = obs.registry.snapshot()
        counters = snapshot["counters"]
        assert counters["readcache.reads"] == 3
        assert counters["readcache.reads.cached"] == 1
        assert counters["readcache.reads.bounded"] == 1
        assert counters["readcache.reads.settled"] == 1
        assert counters["readcache.hits"] == 1
        assert counters["readcache.misses"] == 2
        assert counters["readcache.published"] >= 4
        assert counters["readcache.invalidated.crash"] == 1
        text = render_snapshot(snapshot)
        assert "== readcache ==" in text
        assert ["readcache.hits", "1"] in [line.split()
                                           for line in text.splitlines()]
        community.close()
