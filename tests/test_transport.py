"""Transport substrate: simulated network, reliable layer, TCP."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.transport.base import Envelope
from repro.transport.inmemory import LinkProfile, SimNetwork
from repro.transport.reliable import ReliableEndpoint
from repro.transport.tcp import TcpNetwork


def _attach(network, name, inbox):
    endpoint = ReliableEndpoint(name, network, retransmit_interval=0.05)
    endpoint.on_message(lambda sender, payload: inbox.append((sender, payload)))
    return endpoint


class TestEnvelope:
    def test_auto_msg_id_unique(self):
        a = Envelope("A", "B", {"x": 1})
        b = Envelope("A", "B", {"x": 1})
        assert a.msg_id != b.msg_id

    def test_round_trip(self):
        envelope = Envelope("A", "B", {"x": 1}, msg_id="A:1")
        assert Envelope.from_dict(envelope.to_dict()) == envelope


class TestSimNetwork:
    def test_basic_delivery(self):
        network = SimNetwork(seed=1)
        got = []
        network.register("B", got.append)
        network.send(Envelope("A", "B", {"hello": 1}))
        network.run()
        assert len(got) == 1 and got[0].payload == {"hello": 1}

    def test_latency_advances_virtual_time(self):
        network = SimNetwork(seed=1, default_profile=LinkProfile(latency=0.5))
        network.register("B", lambda e: None)
        network.send(Envelope("A", "B", {}))
        network.run()
        assert network.now() == pytest.approx(0.5)

    def test_deterministic_given_seed(self):
        def run(seed):
            network = SimNetwork(
                seed=seed,
                default_profile=LinkProfile(latency=0.01, jitter=0.05,
                                            drop_probability=0.3),
            )
            received = []
            network.register("B", lambda e: received.append(e.payload["i"]))
            for i in range(50):
                network.send(Envelope("A", "B", {"i": i}))
            network.run()
            return received, network.stats.snapshot()

        assert run(7) == run(7)
        assert run(7)[0] != run(8)[0]  # which messages survive differs

    def test_drop_probability(self):
        network = SimNetwork(
            seed=3, default_profile=LinkProfile(drop_probability=0.5)
        )
        network.register("B", lambda e: None)
        for i in range(200):
            network.send(Envelope("A", "B", {"i": i}))
        network.run()
        assert 40 < network.stats.dropped < 160

    def test_duplicates(self):
        network = SimNetwork(
            seed=3, default_profile=LinkProfile(duplicate_probability=1.0)
        )
        got = []
        network.register("B", got.append)
        network.send(Envelope("A", "B", {}))
        network.run()
        assert len(got) == 2

    def test_partition_blocks_and_heals(self):
        network = SimNetwork(seed=1)
        got = []
        network.register("B", got.append)
        network.partition({"A"}, {"B"})
        network.send(Envelope("A", "B", {}))
        network.run()
        assert got == [] and network.stats.partition_blocked == 1
        network.heal_partition()
        network.send(Envelope("A", "B", {}))
        network.run()
        assert len(got) == 1

    def test_partition_allows_intra_group(self):
        network = SimNetwork(seed=1)
        got = []
        network.register("B", got.append)
        network.partition({"A", "B"}, {"C"})
        network.send(Envelope("A", "B", {}))
        network.run()
        assert len(got) == 1

    def test_crash_drops_inbound(self):
        network = SimNetwork(seed=1)
        got = []
        network.register("B", got.append)
        network.crash("B")
        network.send(Envelope("A", "B", {}))
        network.run()
        assert got == [] and network.stats.crash_blocked == 1
        network.recover("B")
        assert not network.is_crashed("B")

    def test_timers_fire_in_order(self):
        network = SimNetwork(seed=1)
        fired = []
        network.schedule(0.3, lambda: fired.append("late"))
        network.schedule(0.1, lambda: fired.append("early"))
        network.run()
        assert fired == ["early", "late"]

    def test_timer_cancellation(self):
        network = SimNetwork(seed=1)
        fired = []
        handle = network.schedule(0.1, lambda: fired.append("x"))
        handle.cancel()
        network.run()
        assert fired == []

    def test_run_until_predicate(self):
        network = SimNetwork(seed=1)
        fired = []
        network.schedule(0.1, lambda: fired.append(1))
        network.schedule(0.2, lambda: fired.append(2))
        network.run(until=lambda: len(fired) >= 1)
        assert fired == [1]

    def test_idle_run_advances_to_horizon(self):
        network = SimNetwork(seed=1)
        network.run(max_time=42.0)
        assert network.now() == 42.0

    def test_run_stops_at_the_horizon_behind_a_cancelled_head(self):
        """A cancelled timer due before ``max_time`` must not let the
        live event behind it run past the horizon."""
        network = SimNetwork(seed=1)
        fired = []
        network.schedule(0.1, lambda: fired.append("cancelled")).cancel()
        network.schedule(0.5, lambda: fired.append("late"))
        assert network.run(max_time=0.2) == 0.2
        assert fired == [] and network.now() == 0.2
        network.run()
        assert fired == ["late"] and network.now() == 0.5

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkProfile(drop_probability=1.5).validate()
        with pytest.raises(ConfigurationError):
            LinkProfile(latency=-1).validate()

    def test_per_link_profile(self):
        network = SimNetwork(seed=1)
        network.set_link_profile("A", "B", LinkProfile(drop_probability=0.999999))
        got = []
        network.register("B", got.append)
        network.register("C", got.append)
        for _ in range(20):
            network.send(Envelope("A", "B", {}))
        network.send(Envelope("A", "C", {}))
        network.run()
        senders = [e.recipient for e in got]
        assert "C" in senders and senders.count("B") <= 2


class TestReliableEndpoint:
    def test_once_only_delivery_under_loss_and_duplication(self):
        network = SimNetwork(
            seed=11,
            default_profile=LinkProfile(latency=0.01, jitter=0.01,
                                        drop_probability=0.3,
                                        duplicate_probability=0.3),
        )
        inbox = []
        sender = _attach(network, "A", [])
        _attach(network, "B", inbox)
        for i in range(40):
            sender.send("B", {"i": i})
        network.run(max_time=120)
        assert sorted(p["i"] for _, p in inbox) == list(range(40))
        assert sender.outstanding_count() == 0

    def test_delivery_after_partition_heals(self):
        network = SimNetwork(seed=12)
        inbox = []
        sender = _attach(network, "A", [])
        _attach(network, "B", inbox)
        network.partition({"A"}, {"B"})
        sender.send("B", {"x": 1})
        network.run(max_time=1.0)
        assert inbox == []
        network.heal_partition()
        network.run(max_time=30.0)
        assert len(inbox) == 1

    def test_bounded_retries_report_failure(self):
        network = SimNetwork(seed=13)
        failures = []
        sender = ReliableEndpoint("A", network, retransmit_interval=0.01,
                                  max_retries=3)
        sender.on_delivery_failure(
            lambda peer, payload, error: failures.append((peer, payload))
        )
        network.partition({"A"}, {"B"})
        _attach(network, "B", [])
        sender.send("B", {"x": 1})
        network.run(max_time=10.0)
        assert failures == [("B", {"x": 1})]
        assert sender.outstanding_count() == 0

    def test_stop_prevents_sending(self):
        network = SimNetwork(seed=14)
        sender = _attach(network, "A", [])
        sender.stop()
        from repro.errors import DeliveryError
        with pytest.raises(DeliveryError):
            sender.send("B", {})
        sender.restart()
        sender.send("B", {})  # allowed again

    def test_retransmission_counter(self):
        network = SimNetwork(
            seed=15, default_profile=LinkProfile(drop_probability=0.6)
        )
        inbox = []
        sender = _attach(network, "A", [])
        _attach(network, "B", inbox)
        sender.send("B", {"x": 1})
        network.run(max_time=60)
        assert len(inbox) == 1
        assert sender.retransmissions >= 1

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31),
           st.floats(min_value=0.0, max_value=0.4),
           st.floats(min_value=0.0, max_value=0.4))
    def test_eventual_once_only_property(self, seed, drop, duplicate):
        network = SimNetwork(
            seed=seed,
            default_profile=LinkProfile(latency=0.005, jitter=0.01,
                                        drop_probability=drop,
                                        duplicate_probability=duplicate),
        )
        inbox = []
        sender = _attach(network, "A", [])
        _attach(network, "B", inbox)
        for i in range(15):
            sender.send("B", {"i": i})
        network.run(max_time=200)
        assert sorted(p["i"] for _, p in inbox) == list(range(15))


class TestTcpNetwork:
    def test_reactor_keyword_selects_nothing(self):
        TcpNetwork(reactor=True).close()
        with pytest.raises(ValueError):
            TcpNetwork(reactor=False)

    def test_round_trip(self):
        network = TcpNetwork()
        try:
            inbox = []
            sender = ReliableEndpoint("A", network, retransmit_interval=0.2)
            receiver = ReliableEndpoint("B", network, retransmit_interval=0.2)
            import threading
            done = threading.Event()

            def on_message(peer, payload):
                inbox.append((peer, payload))
                done.set()

            receiver.on_message(on_message)
            sender.send("B", {"hello": "tcp"})
            assert done.wait(5.0)
            assert inbox == [("A", {"hello": "tcp"})]
        finally:
            network.close()

    def test_handler_side_send_is_one_socket_send(self, monkeypatch):
        """A frame sent from a handler (on the loop thread) costs its
        own ``send`` and no byte on the reactor's wake pipe."""
        import socket
        import threading

        sends = []

        class CountingSocket(socket.socket):
            def send(self, *args):
                sends.append(threading.current_thread().name)
                return super().send(*args)

        monkeypatch.setattr(socket, "socket", CountingSocket)
        network = TcpNetwork()
        try:
            rounds, done = 20, threading.Semaphore(0)
            network.register("A", lambda envelope: done.release())
            network.register("B", lambda envelope: network.send(
                Envelope("B", "A", {"pong": envelope.payload["ping"]})))

            def round_trip(index):
                network.send(Envelope("A", "B", {"ping": index}))
                assert done.acquire(timeout=5.0)

            round_trip(-1)  # both connections are open after this
            del sends[:]
            for index in range(rounds):
                round_trip(index)
            # Per round trip: this thread taps the wake pipe once, the
            # loop sends the ping and the handler's pong -- and nothing
            # else (the parent tapped the pipe for the pong as well).
            assert sends.count("tcp-reactor") == 2 * rounds
            assert len(sends) == 3 * rounds
        finally:
            network.close()

    def test_unknown_party_is_dropped_silently(self):
        network = TcpNetwork()
        try:
            network.send(Envelope("A", "Ghost", {"x": 1}))
        finally:
            network.close()

    def test_address_directory(self):
        network = TcpNetwork()
        try:
            network.register("A", lambda e: None)
            host, port = network.address_of("A")
            assert port > 0
            network.add_remote_party("R", "127.0.0.1", 9)
            assert network.address_of("R") == ("127.0.0.1", 9)
        finally:
            network.close()

    def test_malformed_frames_ignored(self):
        import socket
        network = TcpNetwork()
        try:
            got = []
            network.register("A", got.append)
            host, port = network.address_of("A")
            with socket.create_connection((host, port), timeout=2) as conn:
                conn.sendall(b"this is not json\n")
            import time
            time.sleep(0.1)
            assert got == []
        finally:
            network.close()
