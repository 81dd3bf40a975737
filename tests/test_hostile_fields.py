"""Hostile byte fields: a peer's int where bytes belong is malformed.

``bytes(n)`` of an int is n zero bytes.  While byte fields from peers
were coerced that way, a frame of ~100 bytes carrying 2**27 as a
signature value cost 128 MB, and 179 MB more once ``verify_signed``
base64-encoded it, on the reactor thread every party shares; 2**63
raised an ``OverflowError`` that no handler expected.  Each such field
is now checked, never coerced.
"""

from __future__ import annotations

import copy
import tracemalloc

import pytest

from repro.protocol.events import MisbehaviourEvent
from repro.wire.binary import decode_value, encode_value
from tests.engine_helpers import EngineHarness, found

MEMBERS = ["A", "B", "C"]


def exchange():
    """One 3-party run up to A's m3 for B, which B has not received."""
    harness = EngineHarness(MEMBERS, seed=43)
    found(harness, "obj", MEMBERS, {"v": 0})
    _, proposed = harness.party("A").session("obj").state.propose_update(
        {"k": 1})
    sent = {"m1": dict(proposed.messages)["B"]}
    for responder, m1 in proposed.messages:
        (_, m2), = harness.party(responder).handle("A", m1).messages
        sent.setdefault("m2", m2)
        for recipient, message in harness.party("A").handle(
                responder, m2).messages:
            if recipient == "B":
                sent["m3"] = message
    return harness, sent


# (message, path to the byte field, party it is sent to, from whom)
FIELDS = {
    "signature value": ("m1", ("proposal", "signature", "value"), "B", "A"),
    "token digest": ("m1", ("proposal", "timestamp", "digest"), "B", "A"),
    "proposal_digest": ("m2", ("response", "payload", "proposal_digest"),
                        "A", "B"),
    "auth": ("m3", ("auth",), "B", "A"),
}


@pytest.mark.parametrize("value", [2 ** 27, 2 ** 63])
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_int_byte_field_is_malformed_and_costs_nothing(field, value):
    harness, sent = exchange()
    name, path, recipient, sender = FIELDS[field]
    hostile = copy.deepcopy(sent[name])
    holder = hostile
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    frame = encode_value(hostile)
    assert len(frame) < 4096
    tracemalloc.start()
    try:
        output = harness.party(recipient).handle(sender, decode_value(frame))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert [e.kind for e in output.events
            if isinstance(e, MisbehaviourEvent)] == ["malformed-message"]
    assert output.messages == []
