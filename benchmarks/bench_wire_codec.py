"""Experiment C15 — binary wire codec.

The m1/m2/m3 hot path used to serialise every envelope as a canonical
JSON line (base64-inflated signature bytes, recursive dict walks).  This
bench quantifies the codec on *representative traffic* — envelopes
captured from a real 3-party coordination run, not synthetic dicts:
encode+decode throughput and frame size for the binary codec vs the
canonical-JSON encoder over the captured m1/m2/m3 envelopes.  Expected:
>=2x the round-trip throughput and >=25% fewer bytes (signature values
ride as raw bytes instead of base64 text).

Writes ``benchmarks/results/BENCH_wire_codec.json`` for CI trend
tracking; ``REPRO_BENCH_SMOKE=1`` shrinks the workload for the CI smoke
gate.
"""

from __future__ import annotations

import json
import os
import time

from repro.bench.metrics import format_table
from repro.core import Community, DictB2BObject, SimRuntime
from repro.transport.base import Envelope, NetworkFilter
from repro.util.encoding import canonical_bytes, from_canonical_bytes
from repro.wire import CODEC_BINARY, CODEC_JSON, EnvelopeEncoder, FrameDecoder

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

CODEC_ITERATIONS = 40 if SMOKE else 400
CODEC_REPEATS = 5
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


class _CaptureFilter(NetworkFilter):
    """Record every DATA envelope crossing the simulated network."""

    def __init__(self) -> None:
        self.envelopes: "list[Envelope]" = []

    def on_send(self, envelope):
        if envelope.payload.get("type") == "data":
            self.envelopes.append(envelope)
        return envelope


def capture_protocol_envelopes() -> "list[Envelope]":
    """Representative m1/m2/m3 traffic from a real coordination run."""
    runtime = SimRuntime(seed=15)
    capture = _CaptureFilter()
    runtime.network.add_filter(capture)
    try:
        names = ["Org1", "Org2", "Org3"]
        community = Community(names, runtime=runtime,
                              retransmit_interval=0.2)
        objects = {name: DictB2BObject() for name in names}
        controllers = community.found_object("shared", objects)
        controller = controllers["Org1"]
        for i in range(3):
            controller.enter()
            controller.overwrite()
            objects["Org1"].set_attribute("k", i)
            controller.leave()
        runtime.settle(None)
    finally:
        runtime.close()
    assert capture.envelopes, "no protocol traffic captured"
    return capture.envelopes


def _seed_json_path(envelopes: "list[Envelope]"):
    """The wire path this PR replaces: one canonical-JSON line per
    envelope, fully re-encoded per peer (no payload memo), received
    through the old buffered newline-splitting loop."""
    frames = [canonical_bytes(e.to_dict()) + b"\n" for e in envelopes]

    def round_trip() -> None:
        buffer = bytearray()
        for envelope in envelopes:
            buffer += canonical_bytes(envelope.to_dict()) + b"\n"
            newline = buffer.find(b"\n")
            frame = bytes(buffer[:newline])
            del buffer[:newline + 1]
            from_canonical_bytes(frame)

    return "json-lines (seed)", frames, round_trip


def _wire_path(codec: str, envelopes: "list[Envelope]"):
    """The new wire path: one :class:`EnvelopeEncoder` per connection
    (so the encode-once broadcast memo is live, exactly as in the
    transport) feeding a :class:`FrameDecoder`."""
    encoder = EnvelopeEncoder(codec)
    frames = [encoder.encode(envelope) for envelope in envelopes]

    def round_trip() -> None:
        sender = EnvelopeEncoder(codec)
        decoder = FrameDecoder()
        decoder.feed(sender.preamble)
        for envelope in envelopes:
            decoder.feed(sender.encode(envelope))
            decoder.decode(decoder.next_frame())

    return codec, frames, round_trip


def _measure_paths(envelopes: "list[Envelope]", paths) -> "list[dict]":
    """Time each path's round_trip, interleaved best-of-k.

    Interleaving the repeat windows (A B C, A B C, ...) and keeping
    each path's fastest window makes the reported *ratios* robust
    against CPU frequency drift and GC pauses, which on a shared
    machine are larger than the differences being asserted.
    """
    for _, _, round_trip in paths:
        round_trip()  # warm up
    best = {label: float("inf") for label, _, _ in paths}
    for _ in range(CODEC_REPEATS):
        for label, _, round_trip in paths:
            start = time.perf_counter()
            for _ in range(CODEC_ITERATIONS):
                round_trip()
            best[label] = min(best[label], time.perf_counter() - start)
    count = CODEC_ITERATIONS * len(envelopes)
    results = []
    for label, frames, _ in paths:
        total_bytes = sum(len(frame) for frame in frames)
        results.append({
            "path": label,
            "envelopes": len(envelopes),
            "total_frame_bytes": total_bytes,
            "mean_frame_bytes": total_bytes / len(envelopes),
            "round_trips": count,
            "seconds": best[label],
            "round_trips_per_sec": count / best[label],
        })
    return results


def test_c15_codec_throughput_and_size(report):
    """Binary vs canonical-JSON framing on captured protocol traffic."""
    envelopes = capture_protocol_envelopes()
    # Sanity: the JSON frame path must be byte-identical to the original
    # canonical-lines wire format, or the speedup is measuring a
    # different protocol.
    json_encoder = EnvelopeEncoder(CODEC_JSON)
    for envelope in envelopes:
        assert (json_encoder.encode(envelope)
                == canonical_bytes(envelope.to_dict()) + b"\n")
    # And the binary codec must carry the identical envelope content.
    binary_encoder = EnvelopeEncoder(CODEC_BINARY)
    decoder = FrameDecoder()
    decoder.feed(binary_encoder.preamble)
    for envelope in envelopes:
        decoder.feed(binary_encoder.encode(envelope))
        decoded = decoder.decode(decoder.next_frame())
        assert decoded == from_canonical_bytes(
            canonical_bytes(envelope.to_dict()))

    seed_result, json_result, binary_result = _measure_paths(envelopes, [
        _seed_json_path(envelopes),
        _wire_path(CODEC_JSON, envelopes),
        _wire_path(CODEC_BINARY, envelopes),
    ])
    # Headline comparison: the binary wire path as it actually runs
    # (shared per-connection encoder, broadcast memo live) against the
    # wire path it replaces (a fresh canonical-JSON line per peer).
    # The json row shows how much of that the JSON framing rewrite
    # alone recovers for peers that stay on the JSON codec.
    speedup = (binary_result["round_trips_per_sec"]
               / seed_result["round_trips_per_sec"])
    size_ratio = (binary_result["total_frame_bytes"]
                  / seed_result["total_frame_bytes"])

    rows = [
        [r["path"], r["envelopes"], r["mean_frame_bytes"],
         r["round_trips_per_sec"]]
        for r in (seed_result, json_result, binary_result)
    ]
    body = format_table(
        ["wire path", "captured envelopes", "mean frame bytes",
         "encode+decode round trips/sec"],
        rows,
    ) + (f"\n\nbinary path vs seed json-lines: {speedup:.2f}x"
         f"\nbinary bytes vs JSON: {size_ratio:.2%}"
         f" ({1 - size_ratio:.1%} smaller)")
    report("C15", "binary wire codec vs canonical JSON lines", body)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_wire_codec.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"experiment": "C15", "smoke": SMOKE, "codec": {
            "json_seed": seed_result,
            "json": json_result,
            "binary": binary_result,
            "binary_speedup": speedup,
            "binary_size_ratio": size_ratio,
        }}, handle, indent=2, sort_keys=True)
    # The tentpole's reason to exist: a wire path that is not clearly
    # faster *and* smaller on real traffic is not worth a second wire
    # format.  The smoke gate's 40-iteration windows wobble a few
    # percent on shared CI runners, so it gets headroom; the full run
    # (10x longer windows) holds the 2x line.
    floor = 1.7 if SMOKE else 2.0
    assert speedup >= floor, f"binary wire path only {speedup:.2f}x over JSON"
    assert size_ratio <= 0.75, (
        f"binary frames only {1 - size_ratio:.1%} smaller than JSON"
    )
