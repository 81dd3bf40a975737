"""The wire layer: binary codec, framing, interop, socket transport."""

from __future__ import annotations

import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import RecordingInstrumentation
from repro.transport.base import Envelope
from repro.transport.reliable import ReliableEndpoint
from repro.transport.tcp import TcpNetwork
from repro.util.encoding import canonical_bytes, from_canonical_bytes
from repro.wire import (
    CODEC_BINARY,
    CODEC_JSON,
    EnvelopeEncoder,
    FrameDecoder,
    FrameError,
    FrameTooLargeError,
    WireError,
    decode_value,
    encode_value,
    magic_line,
)

# Values the protocol actually ships: JSON-ish trees plus raw bytes.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=20), children, max_size=6),
    ),
    max_leaves=25,
)


def _normalise(value):
    """Tuples encode as lists, so compare against the list shape."""
    if isinstance(value, list):
        return [_normalise(item) for item in value]
    if isinstance(value, dict):
        return {key: _normalise(item) for key, item in value.items()}
    return value


class TestBinaryCodec:
    @settings(max_examples=200, deadline=None)
    @given(_values)
    def test_round_trip_matches_canonical_encoder(self, value):
        # The binary codec and the canonical JSON encoder must agree on
        # what a value *is*: decode(encode(x)) == from_canonical(canonical(x)).
        expected = from_canonical_bytes(canonical_bytes(value))
        assert decode_value(encode_value(value)) == expected

    @pytest.mark.parametrize("value", [
        {},
        [],
        {"": ""},
        "é€\U0001f600́",  # latin-1, BMP, astral, combining
        "  ",                   # JS line separators
        b"",
        b"\x00\xff" * 17,
        {"sig": b"\x00" * 64, "nested": [{"k": [True, False, None]}]},
        -(2 ** 63), 2 ** 63 - 1,          # i64 boundary (tag j)
        -(2 ** 63) - 1, 2 ** 63,          # just past it (bigint tag i)
        2 ** 300, -(2 ** 300),
        0, -1, 1.5, -0.0,
    ])
    def test_edge_values_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_tuple_encodes_as_list(self):
        assert decode_value(encode_value((1, 2, (3,)))) == [1, 2, [3]]

    def test_no_base64_inflation_for_bytes(self):
        blob = {"sig": b"\xaa" * 300}
        assert len(encode_value(blob)) < len(canonical_bytes(blob))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(WireError):
            decode_value(encode_value({"a": 1}) + b"x")

    def test_truncated_rejected(self):
        encoded = encode_value({"key": "value", "n": [1, 2, 3]})
        for cut in range(len(encoded)):
            with pytest.raises(WireError):
                decode_value(encoded[:cut])

    def test_unknown_tag_rejected(self):
        with pytest.raises(WireError):
            decode_value(b"Z")

    def test_count_bomb_rejected(self):
        # A 5-byte buffer claiming a 4-billion-entry list must be thrown
        # out before any allocation happens.
        with pytest.raises(WireError):
            decode_value(b"l\xff\xff\xff\xff")
        with pytest.raises(WireError):
            decode_value(b"d\xff\xff\xff\xff")
        with pytest.raises(WireError):
            decode_value(b"s\xff\xff\xff\xffab")

    def test_unencodable_type_rejected(self):
        with pytest.raises(WireError):
            encode_value({"bad": object()})


class TestFraming:
    def _envelope(self):
        return Envelope("A", "B", {"data": b"\x01\x02", "n": 7}, msg_id="A:1")

    def test_json_frame_is_byte_identical_to_canonical_line(self):
        envelope = self._envelope()
        line = canonical_bytes(envelope.to_dict()) + b"\n"
        assert EnvelopeEncoder(CODEC_JSON).encode(envelope) == line
        # ... and that line, with nothing in front of it, is what
        # TcpNetwork(codec="json") writes to a seed peer's socket.
        network = TcpNetwork(codec="json")
        try:
            with socket.create_server(("127.0.0.1", 0)) as seed_listener:
                seed_listener.settimeout(5.0)
                network.add_remote_party("B", *seed_listener.getsockname())
                assert network.send(envelope) == len(line) - 1
                conn, _ = seed_listener.accept()
                with conn:
                    conn.settimeout(5.0)
                    received = b""
                    while len(received) < len(line):
                        chunk = conn.recv(65536)
                        assert chunk, "connection closed early"
                        received += chunk
            assert received == line
        finally:
            network.close()

    @pytest.mark.parametrize("codec", [CODEC_JSON, CODEC_BINARY])
    def test_encode_decode_round_trip(self, codec):
        envelope = self._envelope()
        encoder = EnvelopeEncoder(codec)
        decoder = FrameDecoder()
        decoder.feed(encoder.preamble + encoder.encode(envelope))
        frame = decoder.next_frame()
        assert decoder.codec == codec
        assert Envelope.from_dict(decoder.decode(frame)) == envelope
        assert decoder.next_frame() is None

    @pytest.mark.parametrize("codec", [CODEC_JSON, CODEC_BINARY])
    def test_byte_at_a_time_feed(self, codec):
        envelope = self._envelope()
        encoder = EnvelopeEncoder(codec)
        stream = encoder.preamble + encoder.encode(envelope) * 2
        decoder = FrameDecoder()
        frames = []
        for index in range(len(stream)):
            decoder.feed(stream[index:index + 1])
            while True:
                frame = decoder.next_frame()
                if frame is None:
                    break
                frames.append(frame)
        assert len(frames) == 2
        assert all(Envelope.from_dict(decoder.decode(f)) == envelope
                   for f in frames)

    def test_payload_memo_hits_for_shared_payload(self):
        # The encode-once broadcast path: same payload dict object ->
        # the cached payload bytes object is reused across envelopes.
        payload = {"big": b"\x42" * 1000}
        encoder = EnvelopeEncoder(CODEC_BINARY)
        first = encoder.payload_bytes(payload)
        for recipient in ("B", "C", "D"):
            encoder.encode(Envelope("A", recipient, payload))
            assert encoder.payload_bytes(payload) is first

    def test_oversized_binary_frame_rejected(self):
        decoder = FrameDecoder(max_frame=64)
        decoder.feed(magic_line(CODEC_BINARY) + b"\x00\x01\x00\x00")
        with pytest.raises(FrameTooLargeError):
            decoder.next_frame()

    def test_unterminated_json_line_rejected(self):
        decoder = FrameDecoder(max_frame=32)
        decoder.feed(b"{" + b"x" * 64)
        with pytest.raises(FrameTooLargeError):
            decoder.next_frame()

    def test_unrecognised_preamble_rejected(self):
        decoder = FrameDecoder()
        decoder.feed(b"GET / HTTP/1.1\r\n")
        with pytest.raises(FrameError):
            decoder.next_frame()

    def test_wrong_version_rejected(self):
        decoder = FrameDecoder()
        decoder.feed(b"REPRO-WIRE/99 binary\n")
        with pytest.raises(FrameError):
            decoder.next_frame()

    def test_blank_lines_tolerated(self):
        envelope = self._envelope()
        decoder = FrameDecoder()
        decoder.feed(b"\n" + EnvelopeEncoder(CODEC_JSON).encode(envelope)
                     + b"\n")
        frame = decoder.next_frame()
        assert Envelope.from_dict(decoder.decode(frame)) == envelope


def _endpoint(name, network, inbox, interval=0.05):
    endpoint = ReliableEndpoint(name, network, retransmit_interval=interval)
    endpoint.on_message(lambda sender, payload: inbox.append((sender, payload)))
    return endpoint


def _await(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestMixedCodecInterop:
    def test_binary_sender_json_receiver(self):
        # Two independent processes in miniature: the sender ships
        # binary frames, the receiver was configured for JSON — codec
        # auto-detection on accept makes the pairing just work, and the
        # acks flow back as JSON lines into the binary node's listener.
        sender_net = TcpNetwork(codec="binary")
        receiver_net = TcpNetwork(codec="json")
        inbox = []
        try:
            a = _endpoint("A", sender_net, [])
            b = _endpoint("B", receiver_net, inbox)
            sender_net.add_remote_party("B", *receiver_net.address_of("B"))
            receiver_net.add_remote_party("A", *sender_net.address_of("A"))
            payload = {"move": 4, "blob": b"\x00\x01\x02"}
            a.send("B", payload)
            assert _await(lambda: inbox == [("A", payload)])
            assert _await(lambda: a.outstanding_count() == 0)
            a.stop()
            b.stop()
        finally:
            sender_net.close()
            receiver_net.close()


class TestReactorTransport:
    @pytest.mark.parametrize("codec", ["json", "binary"])
    def test_round_trip_and_acks(self, codec):
        network = TcpNetwork(codec=codec)
        inbox = []
        try:
            a = _endpoint("A", network, [])
            b = _endpoint("B", network, inbox)
            payloads = [{"seq": i, "blob": b"x" * i} for i in range(20)]
            for payload in payloads:
                a.send("B", payload)
            assert _await(lambda: len(inbox) == len(payloads))
            assert [p for _, p in inbox] == payloads  # per-link FIFO
            assert _await(lambda: a.outstanding_count() == 0)
            a.stop()
            b.stop()
        finally:
            network.close()

    def test_single_thread_owns_many_peers(self):
        network = TcpNetwork()
        inboxes = {name: [] for name in "ABCDEFGH"}
        endpoints = {}
        try:
            before = threading.active_count()
            for name, inbox in inboxes.items():
                endpoints[name] = _endpoint(name, network, inbox)
            sender = endpoints["A"]
            for name in "BCDEFGH":
                sender.send(name, {"hello": name})
            assert _await(lambda: all(len(inboxes[n]) == 1 for n in "BCDEFGH"))
            # 8 parties, 7 live connections, retransmit timers armed —
            # and exactly ONE new thread: the reactor loop.
            assert threading.active_count() <= before + 1
            names = {thread.name for thread in threading.enumerate()}
            assert "tcp-reactor" in names
            for endpoint in endpoints.values():
                endpoint.stop()
        finally:
            network.close()

    def test_timers_fire_and_cancel(self):
        network = TcpNetwork()
        fired = []
        try:
            network.schedule(0.02, lambda: fired.append("a"))
            handle = network.schedule(0.02, lambda: fired.append("b"))
            handle.cancel()
            assert _await(lambda: fired == ["a"], timeout=2.0)
            time.sleep(0.05)
            assert fired == ["a"]
        finally:
            network.close()

    def test_retransmission_recovers_injected_drops(self):
        network = TcpNetwork(drop_probability=0.4, drop_seed=7)
        inbox = []
        try:
            a = _endpoint("A", network, [], interval=0.03)
            b = _endpoint("B", network, inbox)
            for i in range(10):
                a.send("B", {"seq": i})
            assert _await(lambda: len(inbox) == 10)
            assert _await(lambda: a.outstanding_count() == 0)
            a.stop()
            b.stop()
        finally:
            network.close()

    def test_send_to_unknown_party_is_dropped(self):
        network = TcpNetwork()
        try:
            assert network.send(Envelope("A", "nobody", {"x": 1})) is None
        finally:
            network.close()


class TestMalformedFrameAccounting:
    def _counters(self, obs):
        return obs.registry.snapshot().get("counters", {})

    def _inject(self, network, party, blob):
        with socket.create_connection(network.address_of(party),
                                      timeout=2.0) as conn:
            conn.sendall(blob)
            # Leave the connection up long enough for the listener to
            # process what it read before EOF tears it down.
            time.sleep(0.05)

    # Inbound accounting does not depend on the codec the network sends.
    @pytest.mark.parametrize("factory", [
        lambda obs: TcpNetwork(obs=obs, codec="json"),
        lambda obs: TcpNetwork(obs=obs, codec="binary"),
    ])
    def test_garbage_is_counted_not_swallowed(self, factory):
        obs = RecordingInstrumentation()
        network = factory(obs)
        inbox = []
        try:
            network.register("B", inbox.append)
            # An unrecognised preamble is a fatal framing violation.
            self._inject(network, "B", b"NOISE NOISE NOISE\n")
            assert _await(lambda: self._counters(obs).get(
                "transport.tcp.malformed_frames.framing", 0) >= 1)
            # A well-framed JSON line that is not an envelope.
            self._inject(network, "B", b'{"not": "an envelope"}\n')
            assert _await(lambda: self._counters(obs).get(
                "transport.tcp.malformed_frames.bad-envelope", 0) >= 1)
            # A well-framed binary frame whose body does not decode.
            self._inject(network, "B",
                         magic_line(CODEC_BINARY) + b"\x00\x00\x00\x01Z")
            assert _await(lambda: self._counters(obs).get(
                "transport.tcp.malformed_frames.decode", 0) >= 1)
            counters = self._counters(obs)
            assert counters.get("transport.tcp.malformed_frames", 0) >= 3
            assert inbox == []  # nothing malformed reached the handler
        finally:
            network.close()

    def test_oversized_frame_counted_and_connection_dropped(self):
        obs = RecordingInstrumentation()
        network = TcpNetwork(obs=obs, max_frame=1024)
        try:
            network.register("B", lambda e: None)
            self._inject(network, "B",
                         magic_line(CODEC_BINARY) + b"\x7f\xff\xff\xff")
            assert _await(lambda: self._counters(obs).get(
                "transport.tcp.malformed_frames.oversized", 0) >= 1)
        finally:
            network.close()

    def test_valid_traffic_still_flows_with_obs(self):
        obs = RecordingInstrumentation()
        network = TcpNetwork(obs=obs, codec="binary")
        inbox = []
        try:
            a = _endpoint("A", network, [])
            b = _endpoint("B", network, inbox)
            a.send("B", {"ok": True})
            assert _await(lambda: len(inbox) == 1)
            counters = self._counters(obs)
            assert counters.get("wire.binary.frames_out", 0) >= 1
            assert counters.get("wire.binary.frames_in", 0) >= 1
            assert counters.get("transport.tcp.malformed_frames", 0) == 0
            a.stop()
            b.stop()
        finally:
            network.close()


class TestSignedPartDigestMemo:
    def test_digest_cached_and_stable(self, monkeypatch):
        from repro.crypto.signature import generate_party_keypair
        from repro.protocol import messages as messages_module
        from repro.protocol.messages import make_signed

        keypair = generate_party_keypair("Org1", bits=512)
        part = make_signed({"state": "s1", "step": 3}, keypair.signer(), None)
        calls = []
        real = messages_module.hash_value
        monkeypatch.setattr(messages_module, "hash_value",
                            lambda value: calls.append(1) or real(value))
        first = part.digest()
        assert part.digest() == first and part.digest() is first
        assert len(calls) == 1  # memoised after the first computation
        assert first == real(part.payload)  # cache is the true digest
