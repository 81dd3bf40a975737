"""Hostile byte fields: a peer's int where bytes belong is malformed.

``bytes(n)`` of an int is n zero bytes.  While byte fields from peers
were coerced that way, a frame of ~100 bytes carrying 2**27 as a
signature value cost 128 MB, and 179 MB more once ``verify_signed``
base64-encoded it, on the reactor thread every party shares; 2**63
raised an ``OverflowError`` that no handler expected.  Each such field
is now checked, never coerced: in a peer's message and in a stored
evidence line alike.
"""

from __future__ import annotations

import copy
import tracemalloc

import pytest

from repro.cli import main
from repro.errors import LogCorruptionError, StorageError
from repro.obs.audit import CorruptEvidenceLog, load_evidence_log
from repro.protocol.events import MisbehaviourEvent
from repro.storage.backends import FileRecordStore
from repro.storage.log import NonRepudiationLog
from repro.util.encoding import canonical_bytes
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


# A stored evidence line is hostile input too: whoever hands a log.jsonl
# to an arbiter or to ``repro verify-log`` chooses its bytes.
# (field, value); None drops the field.  A line without an entry hash
# is no evidence record, so only the other fields may go missing.
STORED_FIELDS = [
    (field, value) for field in ("prev_hash", "entry_hash")
    for value in (2 ** 27, 2 ** 63, "abc", [1, 2, 3])
] + [("prev_hash", None), ("kind", None), ("index", "0"), ("payload", [])]


def _one_line_log(tmp_path, field, value):
    record = {"index": 0, "prev_hash": b"\0" * 32, "entry_hash": b"\0" * 32,
              "kind": "proposal-sent", "payload": {}}
    if value is None:
        del record[field]
    else:
        record[field] = value
    path = tmp_path / "log.jsonl"
    path.write_bytes(canonical_bytes(record) + b"\n")
    return str(path)


def _refusal(path, error):
    """Open *path* as an evidence log, which must raise *error*; return
    the peak traced allocation."""
    store = FileRecordStore(path, fsync=False)
    tracemalloc.start()
    try:
        with pytest.raises(error):
            NonRepudiationLog("OrgA", store)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        store.close()


@pytest.mark.parametrize("field, value", STORED_FIELDS)
def test_malformed_stored_field_is_corruption_and_costs_nothing(
        tmp_path, capsys, field, value):
    path = _one_line_log(tmp_path, field, value)
    assert _refusal(path, LogCorruptionError) < 1 << 20
    assert isinstance(load_evidence_log("OrgA", path), CorruptEvidenceLog)
    assert main(["verify-log", path]) == 1
    assert capsys.readouterr().out.startswith("FAILED")


# A tagged wrapper holding no string (a number, a list, another
# wrapper) makes its line no record either.
_NESTED_PREV_HASH = (
    b'{"entry_hash":{"__b64__":"' + b"A" * 43 + b'="},"index":0,'
    b'"kind":"proposal-sent","payload":{},'
    b'"prev_hash":{"__b64__":{"__b64__":"AA=="}}}')


@pytest.mark.parametrize("line", [
    b"5", b'"entry_hash"', b"[" * 100_000, b'{"__b64__":5}',
    b'{"__float__":[1]}',
    pytest.param(_NESTED_PREV_HASH, id="nested-prev-hash")])
def test_a_stored_line_that_is_no_record_is_refused(tmp_path, capsys, line):
    path = tmp_path / "log.jsonl"
    path.write_bytes(line + b"\n")
    assert _refusal(str(path), StorageError) < 1 << 20
    assert isinstance(load_evidence_log("OrgA", str(path)), CorruptEvidenceLog)
    assert main(["verify-log", str(path)]) == 1
    assert capsys.readouterr().out.startswith("FAILED")


# What an operator hands ``repro verify-bundle``: a bundle or keys file
# that is no JSON object is refused with one line on stderr and exit
# status 2, apart from 1 ("not authentic").  Each of these printed a
# traceback once.
_NO_KEYS = b'{"parties": {}}'


@pytest.mark.parametrize("bundle, keys", [
    pytest.param(b"garbage", _NO_KEYS, id="bundle-garbage"),
    pytest.param(b"[1,2]", _NO_KEYS, id="bundle-list"),
    pytest.param(b"[" * 100_000, _NO_KEYS, id="bundle-deep"),
    pytest.param(b'{"__b64__":5}', _NO_KEYS, id="bundle-wrapper"),
    pytest.param(b"{}", b"[", id="keys-torn"),
    pytest.param(b"{}", b'{"parties":[1]}', id="keys-parties-list"),
    pytest.param(b"{}", b'{"parties":{"A":5}}', id="keys-party-number"),
    pytest.param(b"{}", b'{"parties":{"A":{"kind":"rsa-public"}}}',
                 id="keys-party-no-modulus"),
    pytest.param(b"{}", b'{"tsa":[1]}', id="keys-tsa-list"),
])
def test_verify_bundle_refuses_a_file_that_is_no_object(
        tmp_path, capsys, monkeypatch, bundle, keys):
    (tmp_path / "bundle").write_bytes(bundle)
    (tmp_path / "keys.json").write_bytes(keys)
    monkeypatch.chdir(tmp_path)
    argv = ["verify-bundle", "bundle", "--keys", "keys.json"]
    tracemalloc.start()
    try:
        status = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (status, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert peak < 1 << 20
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "bundle", "keys.json"]


_PARSED_PROPOSAL = (b'{"payload":{},"signature":{"scheme":"rsa",'
                    b'"signer":"A","value":{"__b64__":"AA=="}}}')


@pytest.mark.parametrize("bundle", [
    b'{"proposal":5}', b'{"proposal":[1]}', b'{"proposal":null}',
    b'{"proposal":' + _PARSED_PROPOSAL + b',"responses":5}',
    b'{"proposal":' + _PARSED_PROPOSAL + b',"responses":[1,"x"]}'])
def test_verify_bundle_calls_a_misshapen_bundle_not_authentic(
        tmp_path, capsys, bundle):
    """An object whose parts are of the wrong shape is a bundle that
    does not verify (exit 1), not a crash."""
    (tmp_path / "bundle").write_bytes(bundle)
    (tmp_path / "keys.json").write_bytes(_NO_KEYS)
    assert main(["verify-bundle", str(tmp_path / "bundle"),
                 "--keys", str(tmp_path / "keys.json")]) == 1
    assert "authentic:  False" in capsys.readouterr().out
