"""Hostile fields: a peer's int where bytes belong, its float or bool
where an int belongs, or its list or dict where the message type
belongs, is malformed.

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
from repro.transport.base import Envelope
from repro.util.encoding import canonical_bytes
from repro.wire import PREAMBLE, EnvelopeEncoder, FrameDecoder
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


def through_the_wire(sender, recipient, message):
    """(frame, the message *recipient* reads from it): the one encoder
    and the one decoder every socket uses."""
    frame = EnvelopeEncoder().encode(Envelope(sender, recipient, message))
    decoder = FrameDecoder()
    decoder.feed(PREAMBLE + frame)
    return frame, decoder.decode(decoder.next_frame())["payload"]


def tamper(message, path, value):
    hostile = copy.deepcopy(message)
    holder = hostile
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return hostile


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
    frame, received = through_the_wire(
        sender, recipient, tamper(sent[name], path, value))
    assert len(frame) < 4096
    tracemalloc.start()
    try:
        output = harness.party(recipient).handle(sender, received)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert [e.kind for e in output.events
            if isinstance(e, MisbehaviourEvent)] == ["malformed-message"]
    assert output.messages == []


# (message, path to the int field, party it is sent to, from whom)
INT_FIELDS = {
    "m1 time_ms": ("m1", ("proposal", "timestamp", "time_ms"), "B", "A"),
    "m2 time_ms": ("m2", ("response", "timestamp", "time_ms"), "A", "B"),
    "m2 new_sid.seq": ("m2", ("response", "payload", "new_sid", "seq"),
                       "A", "B"),
    "m3 new_sid.seq": ("m3", ("new_sid", "seq"), "B", "A"),
}


@pytest.mark.parametrize("value", [float("inf"), 1.5, True])
@pytest.mark.parametrize("field", sorted(INT_FIELDS))
def test_non_int_int_field_is_malformed_and_changes_nothing(field, value):
    """A float or bool where an int belongs is malformed: ``int(inf)``
    would raise ``OverflowError`` out of ``handle``, and ``int(1.5)``
    would truncate an m3's ``new_sid.seq`` to 1 and install it."""
    assert_malformed_and_changes_nothing(*INT_FIELDS[field], value)


# (message, party it is sent to, from whom)
KINDS = {"m1": ("B", "A"), "m2": ("A", "B"), "m3": ("B", "A")}


@pytest.mark.parametrize("value", [[], [1], {}, {"a": 1}, [["a", 1]]],
                         ids=["empty-list", "list", "empty-dict", "dict",
                              "pairs"])
@pytest.mark.parametrize("name", sorted(KINDS))
def test_non_string_msg_type_is_malformed_and_changes_nothing(name, value):
    """A list or dict as ``msg_type`` is unhashable: looking it up in the
    routing sets raised ``TypeError`` out of ``handle``."""
    assert_malformed_and_changes_nothing(
        name, ("msg_type",), *KINDS[name], value)


def assert_malformed_and_changes_nothing(name, path, recipient, sender,
                                         value):
    """*value* at *path* of the exchange's message *name* is one
    malformed message: nothing is sent, the agreed state stays."""
    harness, sent = exchange()
    _, received = through_the_wire(
        sender, recipient, tamper(sent[name], path, value))
    engine = harness.party(recipient).session("obj").state
    agreed = (engine.agreed_sid, engine.agreed_state)
    output = harness.party(recipient).handle(sender, received)
    assert [e.kind for e in output.events
            if isinstance(e, MisbehaviourEvent)] == ["malformed-message"]
    assert output.messages == []
    assert (engine.agreed_sid, engine.agreed_state) == agreed


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


# ``repro audit`` reads two more inputs an auditor did not write: the
# intact evidence logs' bundles and the ``--trace`` files.


def _decision_bundle():
    """(an authentic authenticated-decision payload, resolver, tsa)."""
    from repro.core import Community, DictB2BObject

    community = Community(["A", "B"], seed=5)
    community.found_object("obj", {"A": DictB2BObject(),
                                   "B": DictB2BObject()})
    ticket = community.node("A").submit_update("obj", {"k": 1})
    community.settle()
    assert ticket.valid
    (entry,) = community.node("A").ctx.evidence.entries(
        "authenticated-decision")
    return dict(entry.payload), community.resolver, community.tsa.verifier


@pytest.mark.parametrize("holders", [["A"], ["A", "B"]])
def test_audit_calls_a_bundle_with_non_list_responses_not_authentic(
        holders):
    from repro.obs.audit import audit_evidence

    bundle, resolver, tsa = _decision_bundle()
    bundle["responses"] = 5
    logs = {}
    for holder in holders:
        logs[holder] = NonRepudiationLog(holder)
        logs[holder].record("authenticated-decision", bundle)
    report = audit_evidence(logs, resolver, tsa_verifier=tsa)
    (finding,) = report.runs
    assert not finding.authentic
    assert "malformed response in bundle" in finding.problems
    assert finding.culprits == holders == report.culprits()


_DEEP = b'{"name":"run.settled","x":' + b"[" * 100_000 + b"}"


@pytest.mark.parametrize("line", [
    b"[1]", b"nope", b"[" * 100_000, _DEEP, b"\xff\xfe{}",
    b'{"name": "causal.message", "lamport": "x"}',
    b'{"name": "protocol.message", "lamport": [1]}',
    b'{"name": 5}', b'{"name": "run.settled", "party": {}}',
    b'{"name": "run.settled", "at": "noon"}'])
def test_audit_refuses_a_trace_file_that_is_no_trace(
        tmp_path, capsys, monkeypatch, line):
    from repro.obs.merge import merge_trace_files
    from repro.obs.trace import TraceFormatError

    (tmp_path / "keys.json").write_bytes(_NO_KEYS)
    (tmp_path / "trace.jsonl").write_bytes(
        b'{"name": "run.started", "party": "A", "at": 0.0}\n' + line + b"\n")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(TraceFormatError, match="trace.jsonl:2"):
        merge_trace_files(["trace.jsonl"])
    argv = ["audit", "--keys", "keys.json", "--trace", "trace.jsonl",
            "--timeline", "--merged-out", "merged.jsonl"]
    tracemalloc.start()
    try:
        status = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (status, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: trace file trace.jsonl:2: ")
    assert peak < 1 << 20
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "keys.json", "trace.jsonl"]


def test_merge_refuses_a_record_list_that_is_no_trace():
    from repro.obs.merge import merge_traces
    from repro.obs.trace import TraceFormatError

    for records in ([1], [{"name": "protocol.message", "lamport": "x"}]):
        with pytest.raises(TraceFormatError):
            merge_traces([records])


def test_audit_refuses_a_missing_trace_file(tmp_path, capsys):
    (tmp_path / "keys.json").write_bytes(_NO_KEYS)
    assert main(["audit", "--keys", str(tmp_path / "keys.json"),
                 "--trace", str(tmp_path / "absent.jsonl")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: trace file ")
