"""Recorder equivalence: what each of the 48 hooks records is pinned.

``data/obs_equivalence.json`` was written on the commit *before* the
hand-written :class:`RecordingInstrumentation` methods were replaced by
the catalogue-driven recorder (run this file as a script on any commit
to rewrite it).  Every hook is fired with representative arguments —
both branches of every boolean — and the registry snapshot, the trace
records and the flight events it leaves must stay what they were.  The
one sanctioned difference is ``transport.retry_exhausted``'s trace
attribute ``recipient`` becoming ``peer``, like its flight event and
every other transport record.
"""

from __future__ import annotations

import json
import os

from repro.obs.live import FlightRecorder
from repro.obs.recording import RecordingInstrumentation
from repro.obs.trace import Tracer
from repro.util.clocks import VirtualClock

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "obs_equivalence.json")

#: (hook, positional arguments): every hook at least once, every boolean
#: parameter both ways, every templated label with two values.
CALLS = [
    ("run_started", ("OrgA", "doc", "r1", "proposer", "update")),
    ("run_started", ("OrgB", "doc", "r1", "responder", "update")),
    ("run_settled", ("OrgA", "doc", "r1", "proposer", "valid", 0.25)),
    ("run_settled", ("OrgB", "doc", "r2", "responder", "invalid", 0.5)),
    ("protocol_message", ("OrgA", "doc", "r1", "m1", "sent", 700)),
    ("protocol_message", ("OrgB", "doc", "r1", "m1", "received", 700)),
    ("protocol_message", ("OrgB", "doc", "r1", "m2", "sent", 900)),
    ("protocol_message", ("OrgA", "doc", "r1", "m3", "sent", 2100)),
    ("phase_handled", ("OrgB", "doc", "m1", 0.002)),
    ("phase_handled", ("OrgA", "doc", "m2", 0.003)),
    ("validation_decision", ("OrgB", "doc", "r1", True, [])),
    ("validation_decision", ("OrgB", "doc", "r2", False,
                             ["busy: run in progress", "rule: too big"])),
    ("causal_message", ("OrgA", "doc", "r1", "m1", "sent", "OrgB",
                        "t" * 32, "s" * 16, "", 1)),
    ("causal_message", ("OrgB", "doc", "r1", "m1", "received", "OrgA",
                        "t" * 32, "u" * 16, "s" * 16, 2)),
    ("causal_decision", ("OrgB", "doc", "r1", "t" * 32, 3, True, [])),
    ("causal_decision", ("OrgB", "doc", "r2", "v" * 32, 4, False,
                         ["busy: run in progress", "rule: too big"])),
    ("causal_outcome", ("OrgA", "doc", "r1", "t" * 32, 5, "proposer",
                        "valid")),
    ("batch_proposed", ("OrgA", "doc", "r3", 4)),
    ("pipeline_depth", ("OrgA", "doc", 7)),
    ("pipeline_depth", ("OrgA", "doc", 2)),
    ("pipeline_busy_retry", ("OrgA", "doc", 2)),
    ("pipeline_saturated", ("OrgA", "doc", 64)),
    ("read_served", ("OrgA", "doc", "settled", False, 0.0)),
    ("read_served", ("OrgA", "doc", "bounded", True, 0.125)),
    ("read_served", ("OrgA", "doc", "cached", True, 2.0)),
    ("snapshot_published", ("OrgA", "doc", 5, 9)),
    ("snapshot_invalidated", ("OrgA", "doc", "crash")),
    ("snapshot_invalidated", ("OrgA", "doc", "recovery")),
    ("gateway_admitted", ("OrgA", "doc", "client-1")),
    ("gateway_rejected", ("OrgA", "doc", "client-2", "rate_limited", 0.5)),
    ("gateway_rejected", ("OrgA", "doc", "client-3", "circuit_open", 2.0)),
    ("gateway_replayed", ("OrgA", "doc", "client-1")),
    ("gateway_queue_depth", ("OrgA", "doc", 12)),
    ("gateway_settled", ("OrgA", "doc", True, 0.04)),
    ("gateway_settled", ("OrgA", "doc", False, 0.08)),
    ("breaker_transition", ("OrgA", "doc", "closed", "open")),
    ("breaker_transition", ("OrgA", "doc", "open", "half_open")),
    ("health_alert", ("OrgA", "breaker_flap", "degraded",
                      "breaker moved", 2.0, 0.0)),
    ("health_changed", ("OrgA", "healthy", "degraded")),
    ("message_sent", ("OrgA", "OrgB", 512)),
    ("retransmission", ("OrgA", "OrgB", "msg-1", 2)),
    ("retry_exhausted", ("OrgA", "OrgB", "msg-1", 5)),
    ("duplicate_suppressed", ("OrgB", "OrgA", "msg-1")),
    ("ack_received", ("OrgA", "msg-2")),
    ("queue_depth", ("OrgA", 3)),
    ("queue_depth", ("OrgA", 1)),
    ("raw_send", ("OrgA", "OrgB", 540, True)),
    ("raw_send", ("OrgA", "OrgC", 540, False)),
    ("connection_opened", ("OrgA", "OrgB", False)),
    ("connection_opened", ("OrgA", "OrgB", True)),
    ("connection_reused", ("OrgA", "OrgB")),
    ("connection_failed", ("OrgA", "OrgC")),
    ("frames_coalesced", ("OrgA", "OrgB", 3)),
    ("frame_encoded", (480, 0.0001)),
    ("frame_encoded", (700, 0.0002)),
    ("frame_decoded", (480, 0.0001)),
    ("frame_decoded", (700, 0.0003)),
    ("malformed_frame", ("OrgB", "oversized")),
    ("malformed_frame", ("OrgB", "decode")),
    ("handler_error", ("OrgB", "timer")),
    ("handler_error", ("OrgB", "dispatch")),
    ("send_traced", ("OrgA", "OrgB", "msg-1", "t" * 32)),
    ("sign_timing", ("OrgA", "rsa-sha256", 300, 0.002)),
    ("verify_timing", ("rsa-sha256", 300, 0.0003, True)),
    ("verify_timing", ("rsa-sha256", 300, 0.0004, False)),
    ("keygen_timing", (512, 3, 0.2)),
    ("journal_append", ("OrgA", "r1", "sent", 800, 0.0005)),
    ("journal_append", ("OrgA", "r1", "close", 60, 0.0001)),
    ("journal_closed", ("OrgA", "r1", "valid")),
    ("evidence_append", ("OrgA", "proposal", 900, 0.0006)),
    ("storage_sync", ("OrgA", 3, 5, 0.004)),
    ("evidence_submitted", ("OrgA", True)),
    ("evidence_submitted", ("OrgB", False)),
    ("claim_checked", ("state-validity", "upheld", ["OrgB", "OrgC"], 0.01)),
    ("claim_checked", ("participation", "rejected", [], 0.02)),
]


def record_all() -> dict:
    """Fire :data:`CALLS` at a fresh recorder; return what it recorded."""
    obs = RecordingInstrumentation(
        tracer=Tracer(wall_clock=lambda: 0.0), collect=True,
        flight=FlightRecorder(capacity=4 * len(CALLS),
                              clock=VirtualClock()))
    for hook, args in CALLS:
        getattr(obs, hook)(*args)
    return {
        "registry": obs.registry.snapshot(),
        "traces": [record.to_dict() for record in obs.collector.records],
        "flight": obs.flight.events(),
    }


def test_every_hook_is_exercised():
    from repro.obs import Instrumentation

    hooks = {name for name, value in vars(Instrumentation).items()
             if callable(value) and not name.startswith("_")}
    assert len(hooks) == 48
    assert {hook for hook, _ in CALLS} == hooks


def test_recorder_reproduces_the_parent_fixture():
    with open(FIXTURE, encoding="utf-8") as handle:
        expected = json.load(handle)
    # Through JSON so tuples, ints-as-floats and key order compare the
    # way the committed file stores them.
    recorded = json.loads(json.dumps(record_all()))
    for part in ("registry", "traces", "flight"):
        assert recorded[part] == expected[part], part


if __name__ == "__main__":
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(record_all(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {FIXTURE}")
