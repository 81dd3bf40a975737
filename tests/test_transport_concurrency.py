"""Concurrency regressions for the TCP transport and the reliable layer.

These tests pin down bugs that only surface when real listener threads
and retransmit timers drive the endpoints concurrently:

* seeded drop injection must be reproducible even with many sender
  threads interleaving;
* an ack racing a retransmit-exhaustion callback must resolve to exactly
  one outcome (never a KeyError, never ack + failure both firing);
* the duplicate-suppression window must stay bounded through a
  retransmission storm while still suppressing every duplicate;
* an open connection must survive a peer restart (transparent
  reconnect);
* a JSON-lines peer must be refused, never half-read.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.obs.recording import RecordingInstrumentation
from repro.transport.base import Envelope, Network, TimerHandle
from repro.transport.reliable import DATA, ReliableEndpoint, _DedupWindow
from repro.transport.tcp import TcpNetwork
from repro.util.encoding import canonical_bytes


def _drop_pattern(network: TcpNetwork, link: "tuple[str, str]",
                  sends: int) -> "list[bool]":
    sender, recipient = link
    return [network._should_drop(Envelope(sender, recipient, {"i": i}))
            for i in range(sends)]


class TestSeededDropDeterminism:
    def test_single_thread_reproducible(self):
        one = TcpNetwork(drop_probability=0.3, drop_seed=42)
        two = TcpNetwork(drop_probability=0.3, drop_seed=42)
        other = TcpNetwork(drop_probability=0.3, drop_seed=43)
        try:
            pattern = _drop_pattern(one, ("A", "B"), 200)
            assert pattern == _drop_pattern(two, ("A", "B"), 200)
            assert pattern != _drop_pattern(other, ("A", "B"), 200)
            assert any(pattern) and not all(pattern)
        finally:
            one.close(), two.close(), other.close()

    def test_links_are_independent_streams(self):
        network = TcpNetwork(drop_probability=0.3, drop_seed=7)
        try:
            ab = _drop_pattern(network, ("A", "B"), 100)
            # Interleaving traffic on other links must not perturb A->B.
            fresh = TcpNetwork(drop_probability=0.3, drop_seed=7)
            for i in range(100):
                fresh._should_drop(Envelope("C", "D", {"i": i}))
                fresh._should_drop(Envelope("B", "A", {"i": i}))
            assert _drop_pattern(fresh, ("A", "B"), 100) == ab
            fresh.close()
        finally:
            network.close()

    def test_concurrent_senders_reproducible_per_link(self):
        """The seed-regression: concurrent threads on distinct links must
        each see the same drop pattern a single-threaded run sees."""
        links = [(f"S{i}", f"R{i}") for i in range(4)]
        expected = {}
        reference = TcpNetwork(drop_probability=0.4, drop_seed=99)
        for link in links:
            expected[link] = _drop_pattern(reference, link, 300)
        reference.close()

        for _ in range(3):
            network = TcpNetwork(drop_probability=0.4, drop_seed=99)
            results = {}

            def worker(link):
                results[link] = _drop_pattern(network, link, 300)

            threads = [threading.Thread(target=worker, args=(link,))
                       for link in links]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            network.close()
            assert results == expected


class _StubNetwork(Network):
    """Synchronous stub: captures sends, hands timers to the test."""

    def __init__(self):
        self.sent = []
        self.timers = []

    def register(self, party_id, handler):
        self.handler = handler

    def send(self, envelope):
        self.sent.append(envelope)

    def schedule(self, delay, callback):
        self.timers.append(callback)
        return TimerHandle(lambda: None)

    def now(self):
        return 0.0


class TestRetransmitAckRace:
    def test_ack_racing_retry_exhaustion_resolves_once(self):
        """Fire the final retransmit callback and the ack concurrently,
        many times: exactly one path may claim the message, and neither
        may raise."""
        for _ in range(200):
            network = _StubNetwork()
            failures, errors = [], []
            endpoint = ReliableEndpoint("A", network,
                                        retransmit_interval=0.01,
                                        max_retries=0)
            endpoint.on_delivery_failure(
                lambda peer, payload, error: failures.append(peer))
            msg_id = endpoint.send("B", {"x": 1})
            retransmit = network.timers[-1]
            barrier = threading.Barrier(2)

            def run(fn):
                barrier.wait()
                try:
                    fn()
                except Exception as exc:  # noqa: BLE001 - the regression
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(retransmit,)),
                threading.Thread(
                    target=run, args=(lambda: endpoint._handle_ack(msg_id),)
                ),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            outcomes = len(failures) + endpoint.acks_received
            assert outcomes == 1, (failures, endpoint.acks_received)
            assert endpoint.outstanding_count() == 0

    def test_concurrent_acks_count_once(self):
        network = _StubNetwork()
        endpoint = ReliableEndpoint("A", network, retransmit_interval=0.01)
        msg_id = endpoint.send("B", {"x": 1})
        threads = [
            threading.Thread(target=endpoint._handle_ack, args=(msg_id,))
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert endpoint.acks_received == 1
        assert endpoint.outstanding_count() == 0


class TestDedupWindowBound:
    def test_window_suppresses_and_stays_bounded(self):
        window = _DedupWindow(window=64)
        for i in range(10_000):
            assert not window.seen_before(f"A/inst/{i}")
            assert window.seen_before(f"A/inst/{i}")  # immediate duplicate
            assert len(window) <= 64

    def test_sources_are_bounded(self):
        window = _DedupWindow(window=8, max_sources=16)
        for instance in range(200):
            window.seen_before(f"A/{instance:04x}/1")
        assert window.source_count <= 16

    def test_endpoint_bounded_through_retransmission_storm(self):
        """A storm of duplicates of live traffic is fully suppressed and
        the dedup structure never exceeds its per-sender window."""
        network = _StubNetwork()
        inbox = []
        endpoint = ReliableEndpoint("B", network, retransmit_interval=5.0,
                                    dedup_window=128)
        endpoint.on_message(lambda sender, payload: inbox.append(payload["i"]))
        for i in range(500):
            envelope = Envelope("A", "B",
                                {"type": "data", "data": {"i": i}},
                                msg_id=f"A/feed/{i}")
            # Retransmission storm: every frame arrives four times.
            for _ in range(4):
                endpoint._on_raw_message(envelope)
            assert endpoint.dedup_entries() <= 128
        assert inbox == list(range(500))
        assert endpoint.duplicates_suppressed == 3 * 500


class TestTcpConcurrency:
    def test_multithreaded_send_ack_stress(self):
        """Many sender threads over one link: every message is
        delivered exactly once and the outstanding map drains."""
        network = TcpNetwork()
        try:
            inbox = []
            inbox_lock = threading.Lock()
            done = threading.Event()
            total = 4 * 25
            sender = ReliableEndpoint("A", network, retransmit_interval=0.1)
            receiver = ReliableEndpoint("B", network, retransmit_interval=0.1)

            def on_message(peer, payload):
                with inbox_lock:
                    inbox.append(payload["i"])
                    if len(inbox) >= total:
                        done.set()

            receiver.on_message(on_message)

            def worker(base):
                for i in range(25):
                    sender.send("B", {"i": base + i})

            threads = [threading.Thread(target=worker, args=(base,))
                       for base in range(0, total, 25)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert done.wait(15.0)
            deadline = time.monotonic() + 10.0
            while sender.outstanding_count() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert sorted(inbox) == list(range(total))  # exactly once
            assert sender.outstanding_count() == 0
        finally:
            network.close()

    def test_connection_survives_peer_restart(self):
        """Kill the receiving process's network and bring it back on the
        same port: the sender's channel must reconnect and the
        reliable layer must deliver what was lost in between."""
        sender_net = TcpNetwork()
        receiver_net = TcpNetwork()
        try:
            inbox = []
            receiver = ReliableEndpoint("B", receiver_net,
                                        retransmit_interval=0.05)
            receiver.on_message(
                lambda peer, payload: inbox.append(payload["i"]))
            host, port = receiver_net.address_of("B")
            sender_net.add_remote_party("B", host, port)
            sender = ReliableEndpoint("A", sender_net,
                                      retransmit_interval=0.05)
            # The receiver must be able to ack back to the sender.
            a_host, a_port = sender_net.address_of("A")
            receiver_net.add_remote_party("A", a_host, a_port)

            sender.send("B", {"i": 1})
            deadline = time.monotonic() + 5.0
            while not inbox and time.monotonic() < deadline:
                time.sleep(0.01)
            assert inbox == [1]

            # Peer restart: tear the whole receiving network down …
            receiver_net.close()
            sender.send("B", {"i": 2})  # lost or stuck — must be retried
            time.sleep(0.15)

            # … and bring it back on the same port with a fresh endpoint.
            # Pre-registering the listener pins the port; the endpoint's
            # own register() call then just installs its handler.
            receiver_net = TcpNetwork()
            receiver_net.register("B", lambda envelope: None, port=port)
            receiver = ReliableEndpoint("B", receiver_net,
                                        retransmit_interval=0.05)
            receiver.on_message(
                lambda peer, payload: inbox.append(payload["i"]))
            receiver_net.add_remote_party("A", a_host, a_port)

            deadline = time.monotonic() + 10.0
            while len(inbox) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert inbox == [1, 2]
            deadline = time.monotonic() + 5.0
            while sender.outstanding_count() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert sender.outstanding_count() == 0
        finally:
            sender_net.close()
            receiver_net.close()

    def test_json_peer_is_refused_not_misread(self):
        """A peer that speaks canonical-JSON lines (no preamble) is cut
        off at its first byte: counted as a framing violation, its
        connection closed, nothing handed to the party."""
        obs = RecordingInstrumentation()
        network = TcpNetwork(obs=obs)
        try:
            inbox = []
            network.register("B", inbox.append)
            envelope = Envelope("A", "B", {"type": DATA, "data": {"i": 0}},
                                msg_id="A/json/0")
            with socket.create_connection(network.address_of("B"),
                                          timeout=5.0) as conn:
                conn.sendall(canonical_bytes(envelope.to_dict()) + b"\n")
                # The listener closes its end: recv sees EOF (or a
                # reset, if it closed with our bytes unread).
                try:
                    assert conn.recv(1) == b""
                except ConnectionResetError:
                    pass
            counters = obs.registry.snapshot()["counters"]
            assert counters["transport.tcp.malformed_frames.framing"] == 1
            assert counters.get("wire.frames_in", 0) == 0
            assert inbox == []
        finally:
            network.close()

    def test_reliable_delivery_under_injected_loss(self):
        network = TcpNetwork(drop_probability=0.3, drop_seed=5)
        try:
            inbox = []
            inbox_lock = threading.Lock()
            done = threading.Event()
            sender = ReliableEndpoint("A", network, retransmit_interval=0.03)
            receiver = ReliableEndpoint("B", network, retransmit_interval=0.03)

            def on_message(peer, payload):
                with inbox_lock:
                    inbox.append(payload["i"])
                    if len(inbox) >= 20:
                        done.set()

            receiver.on_message(on_message)
            for i in range(20):
                sender.send("B", {"i": i})
            assert done.wait(20.0)
            assert sorted(inbox) == list(range(20))
        finally:
            network.close()


class TestPoolMetrics:
    def test_connection_and_coalescing_metrics(self):
        obs = RecordingInstrumentation()
        network = TcpNetwork(obs=obs)
        try:
            received = []
            sender = ReliableEndpoint("A", network, retransmit_interval=0.5,
                                      obs=obs)
            receiver = ReliableEndpoint("B", network, retransmit_interval=0.5,
                                        obs=obs)
            receiver.on_message(lambda peer, payload: received.append(payload))

            def settle(total):
                deadline = time.monotonic() + 10.0
                while ((len(received) < total or sender.outstanding_count())
                       and time.monotonic() < deadline):
                    time.sleep(0.005)
                assert len(received) == total
                assert sender.outstanding_count() == 0

            # Hold the reactor loop inside a timer callback while the
            # first burst is enqueued: the loop then meets all 50 frames
            # in one pass, the first starts the connect and the other 49
            # queue behind it, so one flush must coalesce them.
            held = threading.Event()
            release = threading.Event()
            network.schedule(0.0, lambda: (held.set(), release.wait(10.0)))
            assert held.wait(5.0)
            for i in range(50):
                sender.send("B", {"i": i})
            release.set()
            settle(50)
            counters = obs.registry.snapshot()["counters"]
            assert counters["transport.tcp.frames_coalesced"] >= 2
            # One connection each way — never one per message.
            assert counters["transport.tcp.connections_opened"] == 2

            # A second wave, sent once the first is fully acked, rides
            # the connections that are already open.
            for i in range(50, 60):
                sender.send("B", {"i": i})
            settle(60)
            counters = obs.registry.snapshot()["counters"]
            assert counters["transport.tcp.connections_opened"] == 2
            assert counters["transport.tcp.connections_reused"] >= 1
        finally:
            network.close()


def test_settled_updates_leave_nothing_for_the_cycle_collector():
    """An acknowledged frame's retransmit timer lets go of its message
    when it is cancelled, and a decoded frame's reader closures do not
    outlive the call: with the collector off, 200 settled updates over
    real sockets leave no unreachable cycle behind."""
    import gc

    from repro.core import Community, DictB2BObject
    from repro.core.runtime import ThreadedRuntime

    names = ["A", "B", "C"]
    retransmit = 0.3
    community = Community(names, runtime=ThreadedRuntime(TcpNetwork()),
                          retransmit_interval=retransmit)
    try:
        community.found_object(
            "doc", {name: DictB2BObject() for name in names})
        gc.collect()
        gc.disable()
        for n in range(200):
            ticket = community.node("A").submit_update("doc", {f"k{n % 7}": n})
            assert ticket.wait_signal(30.0) and ticket.valid
        assert community.runtime.wait_until(
            lambda: all(community.node(name).party.session("doc")
                        .state.agreed_sid.seq == 200 for name in names), 30.0)
        time.sleep(2 * retransmit)  # every cancelled timer is past its deadline
        assert gc.collect() == 0
    finally:
        gc.enable()
        community.close()
