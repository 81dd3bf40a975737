"""The wire layer: frame codec, framing, socket transport."""

from __future__ import annotations

import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.recording import RecordingInstrumentation
from repro.transport.base import Envelope
from repro.transport.reliable import ReliableEndpoint
from repro.transport.tcp import TcpNetwork
from repro.util.encoding import (
    _BYTES_TAG,
    _FLOAT_TAG,
    canonical_bytes,
    from_canonical_bytes,
)
from repro.wire import (
    PREAMBLE,
    EnvelopeEncoder,
    FrameDecoder,
    FrameError,
    FrameTooLargeError,
    WireError,
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
_keys = st.text(max_size=20).filter(lambda key: key not in (_BYTES_TAG,
                                                             _FLOAT_TAG))
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(_keys, children, max_size=6),
    ),
    max_leaves=25,
)

_envelopes = st.builds(
    Envelope,
    st.text(min_size=1, max_size=8), st.text(min_size=1, max_size=8),
    st.dictionaries(_keys, _values, max_size=4),
    st.text(max_size=12),
)


def _normalise(value):
    """Tuples encode as lists, so compare against the list shape."""
    if isinstance(value, list):
        return [_normalise(item) for item in value]
    if isinstance(value, dict):
        return {key: _normalise(item) for key, item in value.items()}
    return value


def _carried(value):
    """*value* as a receiver reads it from a frame that carries it."""
    frame = EnvelopeEncoder().encode(Envelope("A", "B", {"v": value}, "A:1"))
    return FrameDecoder().decode(frame[4:])["payload"]["v"]


class TestFrameBody:
    @settings(max_examples=200, deadline=None)
    @given(_values)
    def test_round_trip_matches_canonical_encoder(self, value):
        assert _carried(value) == from_canonical_bytes(canonical_bytes(value))

    @pytest.mark.parametrize("value", [
        {},
        [],
        {"": ""},
        "é€\U0001f600́",  # latin-1, BMP, astral, combining
        "\u2028\u2029",         # JS line separators
        b"",
        b"\x00\xff" * 17,
        {"sig": b"\x00" * 64, "nested": [{"k": [True, False, None]}]},
        -(2 ** 63), 2 ** 63 - 1,
        -(2 ** 63) - 1, 2 ** 63,
        2 ** 300, -(2 ** 300),
        0, -1, 1.5, -0.0,
    ])
    def test_edge_values_round_trip(self, value):
        assert _carried(value) == value

    def test_tuple_encodes_as_list(self):
        assert _carried((1, 2, (3,))) == [1, 2, [3]]

    def test_unencodable_type_rejected(self):
        with pytest.raises(TypeError):
            EnvelopeEncoder().encode(Envelope("A", "B", {"bad": object()}))

    @settings(max_examples=100, deadline=None)
    @given(_envelopes)
    def test_body_is_the_canonical_envelope(self, envelope):
        frame = EnvelopeEncoder().encode(envelope)
        assert frame[4:] == canonical_bytes(envelope.to_dict())
        assert int.from_bytes(frame[:4], "big") == len(frame) - 4

    @pytest.mark.parametrize("body", [
        pytest.param(b'{"a":[1,2', id="truncated"),
        pytest.param(b'{"a":1}x', id="trailing-garbage"),
        pytest.param(b'{"a":"\xe9"}', id="non-ascii"),
        pytest.param(b'{"__b64__":5}', id="b64-number"),
        pytest.param(b'{"__b64__":"!!"}', id="b64-not-base64"),
        pytest.param(b"Z", id="not-json"),
    ])
    def test_undecodable_body_raises_wire_error(self, body):
        with pytest.raises(WireError):
            FrameDecoder().decode(body)

    @pytest.mark.parametrize("opener", [
        pytest.param(b"[", id="array"),
        pytest.param(b'{"k":', id="object"),
    ])
    def test_deep_nesting_rejected(self, opener):
        # A frame of 10^5 nested containers must not escape as a
        # RecursionError into the reactor loop.
        with pytest.raises(WireError):
            FrameDecoder().decode(opener * 100_000 + b"null")

    def test_every_truncation_rejected(self):
        body = canonical_bytes({"key": "value", "n": [1, 2, 3],
                                "b": b"\x01\x02"})
        for cut in range(len(body)):
            with pytest.raises(WireError):
                FrameDecoder().decode(body[:cut])


#: ``PREAMBLE + EnvelopeEncoder().encode(_GOLDEN)`` as running peers
#: read it: one moved byte breaks interop with them.  The body is the
#: envelope's canonical JSON.
_GOLDEN = Envelope(
    "\u00d3rg-A", "Org-B",
    {"blob": b"\x00\x01\xfe\xff", "note": "caf\u00e9 \u20ac \U0001f600",
     "n": 2 ** 70 + 1, "small": -3, "ok": True, "none": None,
     "list": [1.5, "x"]},
    msg_id="\u00d3rg-A:7",
)
_GOLDEN_WIRE = (
    b'REPRO-WIRE/2\n\x00\x00\x00\xf1'
    b'{"msg_id":"\\u00d3rg-A:7","payload":{"blob":{"__b64__":"AAH+/w=="},'
    b'"list":[{"__float__":"1.5"},"x"],"n":1180591620717411303425,'
    b'"none":null,"note":"caf\\u00e9 \\u20ac \\ud83d\\ude00","ok":true,'
    b'"small":-3},"recipient":"Org-B","sender":"\\u00d3rg-A"}'
)


def _drain(decoder):
    frames = []
    while True:
        frame = decoder.next_frame()
        if frame is None:
            return frames
        frames.append(frame)


def _chunked(stream, cuts):
    """*stream* split at the (sorted, in-range) offsets *cuts*."""
    bounds = [0] + sorted(c % (len(stream) + 1) for c in cuts) + [len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


class TestFraming:
    def _envelope(self):
        return Envelope("A", "B", {"data": b"\x01\x02", "n": 7}, msg_id="A:1")

    def test_golden_frame_bytes(self):
        wire = PREAMBLE + EnvelopeEncoder().encode(_GOLDEN)
        assert wire == _GOLDEN_WIRE
        assert wire[len(PREAMBLE) + 4:] == canonical_bytes(_GOLDEN.to_dict())
        decoder = FrameDecoder()
        decoder.feed(wire)
        assert Envelope.from_dict(decoder.decode(decoder.next_frame())) == _GOLDEN

    def test_encode_decode_round_trip(self):
        envelope = self._envelope()
        decoder = FrameDecoder()
        decoder.feed(PREAMBLE + EnvelopeEncoder().encode(envelope))
        frame = decoder.next_frame()
        assert Envelope.from_dict(decoder.decode(frame)) == envelope
        assert decoder.next_frame() is None

    def test_byte_at_a_time_feed(self):
        envelope = self._envelope()
        stream = PREAMBLE + EnvelopeEncoder().encode(envelope) * 2
        decoder = FrameDecoder()
        frames = []
        for index in range(len(stream)):
            decoder.feed(stream[index:index + 1])
            frames += _drain(decoder)
        assert len(frames) == 2
        assert all(Envelope.from_dict(decoder.decode(f)) == envelope
                   for f in frames)

    def test_payload_memo_hits_for_shared_payload(self):
        # The encode-once broadcast path: same payload dict object ->
        # the cached payload bytes object is reused across envelopes.
        payload = {"big": b"\x42" * 1000}
        encoder = EnvelopeEncoder()
        first = encoder.payload_bytes(payload)
        for recipient in ("B", "C", "D"):
            encoder.encode(Envelope("A", recipient, payload))
            assert encoder.payload_bytes(payload) is first

    def test_oversized_binary_frame_rejected(self):
        decoder = FrameDecoder(max_frame=64)
        decoder.feed(PREAMBLE + b"\x00\x01\x00\x00")
        with pytest.raises(FrameTooLargeError):
            decoder.next_frame()

    def test_unterminated_json_line_rejected(self):
        # A JSON-lines peer is refused on its first byte, not buffered.
        decoder = FrameDecoder()
        decoder.feed(b"{")
        with pytest.raises(FrameError):
            decoder.next_frame()

    def test_unrecognised_preamble_rejected(self):
        decoder = FrameDecoder()
        decoder.feed(b"GET / HTTP/1.1\r\n")
        with pytest.raises(FrameError):
            decoder.next_frame()

    def test_wrong_version_rejected(self):
        decoder = FrameDecoder()
        decoder.feed(b"REPRO-WIRE/1 binary\n")  # a binary-frame peer
        with pytest.raises(FrameError):
            decoder.next_frame()

    @settings(max_examples=300, deadline=None)
    @given(st.booleans(), st.binary(max_size=300),
           st.lists(st.integers(min_value=0), max_size=8),
           st.integers(min_value=16, max_value=256))
    def test_hostile_bytes_raise_only_wire_errors(self, preamble, noise,
                                                  cuts, max_frame):
        stream = (PREAMBLE if preamble else b"") + noise
        decoder = FrameDecoder(max_frame=max_frame)
        for chunk in _chunked(stream, cuts):
            decoder.feed(chunk)
            try:
                frames = _drain(decoder)
            except FrameError:
                return  # the connection is poisoned: the caller closes it
            for frame in frames:
                try:
                    decoder.decode(frame)
                except WireError:
                    pass
            # Drained: at most a partial preamble or frame is held.
            assert len(decoder._buffer) <= max_frame + 4

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_envelopes, max_size=4),
           st.lists(st.integers(min_value=0), max_size=8))
    def test_valid_streams_decode_to_their_envelopes(self, envelopes, cuts):
        encoder = EnvelopeEncoder()
        stream = PREAMBLE + b"".join(encoder.encode(e) for e in envelopes)
        decoder = FrameDecoder()
        frames = []
        for chunk in _chunked(stream, cuts):
            decoder.feed(chunk)
            frames += _drain(decoder)
        assert [Envelope.from_dict(decoder.decode(f)) for f in frames] == [
            Envelope(e.sender, e.recipient, _normalise(e.payload), e.msg_id)
            for e in envelopes]
        assert not decoder._buffer


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


class TestReactorTransport:
    def test_round_trip_and_acks(self):
        network = TcpNetwork()
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

    def test_codec_keyword_selects_nothing(self):
        with pytest.raises(ValueError):
            TcpNetwork(codec="json")
        TcpNetwork(reactor=True, codec="binary").close()

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

    def test_garbage_is_counted_not_swallowed(self):
        obs = RecordingInstrumentation()
        network = TcpNetwork(obs=obs)
        inbox = []
        try:
            network.register("B", inbox.append)
            # An unrecognised preamble is a fatal framing violation.
            self._inject(network, "B", b"NOISE NOISE NOISE\n")
            assert _await(lambda: self._counters(obs).get(
                "transport.tcp.malformed_frames.framing", 0) >= 1)
            # A well-framed frame that is not an envelope.
            body = canonical_bytes({"not": "an envelope"})
            self._inject(network, "B", PREAMBLE
                         + len(body).to_bytes(4, "big") + body)
            assert _await(lambda: self._counters(obs).get(
                "transport.tcp.malformed_frames.bad-envelope", 0) >= 1)
            # A well-framed frame whose body does not decode.
            self._inject(network, "B",
                         PREAMBLE + b"\x00\x00\x00\x01Z")
            assert _await(lambda: self._counters(obs).get(
                "transport.tcp.malformed_frames.decode", 0) >= 1)
            counters = self._counters(obs)
            assert counters.get("transport.tcp.malformed_frames", 0) >= 3
            assert inbox == []  # nothing malformed reached the handler
        finally:
            network.close()

    @pytest.mark.parametrize("body, reason", [
        pytest.param(b"5", "bad-envelope", id="number"),
        pytest.param(b"[]", "bad-envelope", id="list"),
        pytest.param(b"[" * 100_000, "decode", id="nested-1e5"),
    ])
    def test_hostile_json_frame_is_counted_and_serving_goes_on(
            self, body, reason):
        obs = RecordingInstrumentation()
        network = TcpNetwork(obs=obs)
        inbox = []
        try:
            b = _endpoint("B", network, inbox)
            self._inject(network, "B", PREAMBLE
                         + len(body).to_bytes(4, "big") + body)
            assert _await(lambda: self._counters(obs).get(
                f"transport.tcp.malformed_frames.{reason}", 0) == 1)
            a = _endpoint("A", network, [])
            a.send("B", {"after": True})
            assert _await(lambda: inbox == [("A", {"after": True})])
            a.stop()
            b.stop()
        finally:
            network.close()

    @pytest.mark.parametrize("hostile", [
        pytest.param({"sender": 5}, id="numeric-sender"),
        pytest.param({"payload": [["type", "data"]]}, id="payload-pairs"),
    ])
    def test_a_mistyped_envelope_field_is_a_bad_envelope(self, hostile):
        """Envelope fields are checked, not coerced: a numeric sender was
        read as ``'5'``, and a list of pairs as a payload dict."""
        obs = RecordingInstrumentation()
        network = TcpNetwork(obs=obs)
        inbox = []
        fields = {"sender": "A", "recipient": "B", "payload": {},
                  "msg_id": "hostile"}
        frames = b"".join(
            len(body).to_bytes(4, "big") + body for body in (
                canonical_bytes({**fields, **hostile}),
                canonical_bytes({**fields, "msg_id": "after"})))
        try:
            network.register("B", inbox.append)
            self._inject(network, "B", PREAMBLE + frames)
            assert _await(lambda: inbox)
            assert [envelope.msg_id for envelope in inbox] == ["after"]
            assert self._counters(obs).get(
                "transport.tcp.malformed_frames.bad-envelope", 0) == 1
        finally:
            network.close()

    def test_oversized_frame_counted_and_connection_dropped(self):
        obs = RecordingInstrumentation()
        network = TcpNetwork(obs=obs, max_frame=1024)
        try:
            network.register("B", lambda e: None)
            self._inject(network, "B",
                         PREAMBLE + b"\x7f\xff\xff\xff")
            assert _await(lambda: self._counters(obs).get(
                "transport.tcp.malformed_frames.oversized", 0) >= 1)
        finally:
            network.close()

    def test_valid_traffic_still_flows_with_obs(self):
        obs = RecordingInstrumentation()
        network = TcpNetwork(obs=obs)
        inbox = []
        try:
            a = _endpoint("A", network, [])
            b = _endpoint("B", network, inbox)
            a.send("B", {"ok": True})
            assert _await(lambda: len(inbox) == 1)
            counters = self._counters(obs)
            assert counters.get("wire.frames_out", 0) >= 1
            assert counters.get("wire.frames_in", 0) >= 1
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
