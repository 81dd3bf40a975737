"""Reliable-endpoint retry bounds and duplicate handling counters."""

from __future__ import annotations

from repro.obs.recording import RecordingInstrumentation
from repro.transport.inmemory import LinkProfile, SimNetwork
from repro.transport.reliable import ReliableEndpoint


def _attach(network, name, inbox, obs=None, **kwargs):
    endpoint = ReliableEndpoint(name, network, retransmit_interval=0.02,
                                obs=obs, **kwargs)
    endpoint.on_message(lambda sender, payload: inbox.append((sender, payload)))
    return endpoint


class TestRetryExhaustion:
    def test_bounded_retries_exhaust_and_count(self):
        network = SimNetwork(seed=41)
        obs = RecordingInstrumentation()
        failures = []
        sender = ReliableEndpoint("A", network, retransmit_interval=0.02,
                                  max_retries=3, obs=obs)
        sender.on_delivery_failure(
            lambda peer, payload, error: failures.append((peer, payload))
        )
        network.partition({"A"}, {"B"})
        _attach(network, "B", [])
        sender.send("B", {"x": 1})
        network.run(max_time=10.0)

        assert failures == [("B", {"x": 1})]
        assert sender.outstanding_count() == 0
        assert sender.retransmissions == 3
        assert sender.acks_received == 0
        registry = obs.registry
        assert registry.counter_value("transport.retry_exhausted") == 1
        assert registry.counter_value("transport.retransmissions") == 3
        assert registry.counter_value("transport.acks_received") == 0
        # The exhausted message left the queue: gauge returns to zero but
        # its high-water mark recorded the in-flight message.
        depth = registry.gauge("transport.queue_depth")
        assert depth.value == 0.0 and depth.high_water >= 1.0

    def test_retry_exhausted_trace_event(self):
        network = SimNetwork(seed=42)
        obs = RecordingInstrumentation(collect=True)
        sender = ReliableEndpoint("A", network, retransmit_interval=0.02,
                                  max_retries=2, obs=obs)
        network.partition({"A"}, {"B"})
        _attach(network, "B", [])
        sender.send("B", {"x": 2})
        network.run(max_time=10.0)
        (event,) = obs.collector.named("transport.retry_exhausted")
        assert event.attrs["attempts"] == 2
        assert event.attrs["peer"] == "B"


class TestDuplicateHandling:
    def test_duplicated_data_suppressed_once_only(self):
        network = SimNetwork(
            seed=43, default_profile=LinkProfile(duplicate_probability=1.0)
        )
        obs = RecordingInstrumentation()
        inbox = []
        sender = _attach(network, "A", [], obs=obs)
        receiver = _attach(network, "B", inbox, obs=obs)
        for i in range(5):
            sender.send("B", {"i": i})
        network.run(max_time=30.0)

        # Every message delivered exactly once despite 100% duplication.
        assert sorted(p["i"] for _, p in inbox) == list(range(5))
        assert receiver.duplicates_suppressed >= 5
        assert (obs.registry.counter_value("transport.duplicates_suppressed")
                == receiver.duplicates_suppressed)

    def test_duplicate_acks_counted_once(self):
        network = SimNetwork(
            seed=44, default_profile=LinkProfile(duplicate_probability=1.0)
        )
        obs = RecordingInstrumentation()
        sender = _attach(network, "A", [], obs=obs)
        _attach(network, "B", [], obs=obs)
        for i in range(4):
            sender.send("B", {"i": i})
        network.run(max_time=30.0)

        # Duplicated acks for the same msg_id must not double-count: only
        # the ack that clears an outstanding message registers.
        assert sender.acks_received == 4
        assert obs.registry.counter_value("transport.acks_received") == 4
        assert sender.outstanding_count() == 0

    def test_counters_present_without_instrumentation(self):
        network = SimNetwork(
            seed=45, default_profile=LinkProfile(duplicate_probability=1.0)
        )
        inbox = []
        sender = _attach(network, "A", [])
        receiver = _attach(network, "B", inbox)
        sender.send("B", {"x": 1})
        network.run(max_time=10.0)
        assert len(inbox) == 1
        assert receiver.duplicates_suppressed >= 1
        assert sender.acks_received == 1
