"""One log per party: what the journal keeps, one append lock, one pass.

A journal record keeps only what the evidence log does not hold: the
message with each signed part replaced by a reference to the evidence
entry logged just before the record.  These tests pin the record counts
that follow (two per party per settled update), that no journal line
carries a signature, that every reference resolves against the entry
before it, that the obs hooks size each record under the one append
lock, and that re-opening a party decodes each line of its file once.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import Community, DictB2BObject, SimRuntime
from repro.obs.hooks import Instrumentation
from repro.storage import backends
from repro.storage.backends import FileRecordStore, MemoryRecordStore
from repro.storage.journal import RECEIVED, SENT, MessageJournal
from repro.storage.log import NonRepudiationLog
from repro.util.encoding import canonical_bytes


def _journals(community: Community) -> "dict[str, list[dict]]":
    return {name: list(community.node(name).ctx.journal.all_records())
            for name in community.names()}


@pytest.mark.parametrize("parties", [3, 5])
def test_a_settled_update_journals_two_records_per_party(parties):
    names = [f"P{n}" for n in range(parties)]
    community = Community(names, runtime=SimRuntime(seed=8))
    community.found_object("doc", {name: DictB2BObject() for name in names})
    before = _journals(community)
    ticket = community.node("P0").submit_update("doc", {"k": 1})
    community.settle()
    assert ticket.done and ticket.valid
    added = {name: records[len(before[name]):]
             for name, records in _journals(community).items()}
    # The record that opens the run (run-keys at the proposer, the m1 at
    # each responder) and its close: 2n, where copying every message
    # per recipient took 16 at n = 3.
    assert all([record["event"] for record in records] == ["message", "close"]
               for records in added.values())
    assert sum(map(len, added.values())) == 2 * parties


def test_no_journal_line_holds_a_signature_and_every_reference_resolves():
    """State runs, a join, an eviction and a departure, requests
    included: each message record names parts of the evidence entry
    just before it, and holds no signature of its own."""
    names = ["A", "B", "C"]
    community = Community(names, runtime=SimRuntime(seed=12))
    objects = {name: DictB2BObject() for name in names}
    controllers = community.found_object("doc", objects)
    ticket = community.node("B").submit_update("doc", {"k": 1})
    community.settle()
    assert ticket.valid
    community.add_organisation("D")
    community.node("D").connect("doc", DictB2BObject(), "C")
    community.settle()
    controllers["A"].evict(["B"])
    community.settle()
    community.node("D").controllers["doc"].disconnect()
    community.settle()
    assert controllers["A"].members() == ["A", "C"]

    kinds = set()
    for name in community.names():
        previous = None
        for record in community.node(name).ctx.evidence.store.scan():
            if "event" in record:
                assert b'"signature"' not in canonical_bytes(record)
            for key, (index, *path) in record.get("refs", {}).items():
                assert previous["index"] == index, record
                part = previous["payload"]
                for step in path:
                    part = part[step]
                assert set(part) == {"payload", "signature", "timestamp"}
                kinds.add((record["stub"]["msg_type"], previous["kind"]))
            previous = record
    assert kinds == {
        ("run-keys", "proposal-sent"), ("propose", "proposal-received"),
        ("run-keys", "connect-proposal-sent"),
        ("connect_propose", "connect-proposal-received"),
        ("run-keys", "evict-proposal-sent"),
        ("disconnect_propose", "evict-proposal-received"),
        ("run-keys", "disconnect-proposal-sent"),
        ("disconnect_propose", "disconnect-proposal-received"),
        ("connect_request", "connect-request-sent"),
        ("evict_request", "evict-request-sent"),
        ("disconnect_request", "disconnect-request-sent"),
    }


def test_an_open_runs_parts_come_back_from_the_entry_before_its_record(
        tmp_path):
    path = str(tmp_path / "log.jsonl")
    store = FileRecordStore(path)
    log, journal = NonRepudiationLog("P", store), MessageJournal("P", store)
    part = {"payload": {"n": 1}, "signature": {"signer": "Q", "value": b"s"},
            "timestamp": None}
    message = {"msg_type": "propose", "proposal": part, "body": {"k": [1]}}
    with store.lock:
        entry = log.record("proposal-received", {"run_id": "r1",
                                                 "proposal": part})
        journal.record_message("r1", RECEIVED, "Q", message,
                               refs={"proposal": [entry.index, "proposal"]})
    journal.record_message("r2", SENT, "Q", {"msg_type": "x"})
    journal.close_run("r2", "valid")
    (held,) = journal.messages("r1")
    store.close()
    line = (tmp_path / "log.jsonl").read_bytes().splitlines()[1]
    assert b'"signature"' not in line and b'"refs"' in line

    reopened = MessageJournal("P", FileRecordStore(path))
    assert reopened.open_runs() == {"r1"} and reopened.outcome("r2") == "valid"
    (record,) = reopened.messages("r1")
    assert record == held == {"event": "message", "run_id": "r1",
                              "direction": RECEIVED, "peer": "Q",
                              "message": message}
    assert reopened.messages("r2") == []  # a closed run's records go
    reopened.store.close()


class _Sizes(Instrumentation):
    enabled = True

    def __init__(self) -> None:
        self.sizes: "list[tuple[str, int]]" = []

    def evidence_append(self, party, kind, size, seconds) -> None:
        self.sizes.append(("entry_hash", size))

    def journal_append(self, party, run_id, direction, size, seconds) -> None:
        self.sizes.append(("event", size))


class _HandshakeStore(MemoryRecordStore):
    """The first append waits, inside the store, for a second append to
    reach the store — at most half a second, which is how long the
    party's one append lock keeps the second out."""

    def __init__(self) -> None:
        super().__init__()
        self.first, self.second = threading.Event(), threading.Event()

    def append(self, record: dict) -> int:
        index = super().append(record)
        if not self.first.is_set():
            self.first.set()
            self.second.wait(0.5)
        else:
            self.second.set()
        return index


def test_each_reported_size_is_the_size_of_its_own_record():
    """Two threads of one party (the submitter and the transport) append
    evidence and journal records at once: the size the obs hook reports
    for a record is that record's, never the other view's last append."""
    store, obs = _HandshakeStore(), _Sizes()
    log = NonRepudiationLog("P", store, obs=obs)
    journal = MessageJournal("P", store, obs=obs)
    worker = threading.Thread(
        target=log.record, args=("evt", {"padding": "x" * 200}))
    worker.start()
    assert store.first.wait(5.0)
    journal.record_message("r1", SENT, "Q", {"msg_type": "m"})
    worker.join(5.0)
    assert not worker.is_alive()
    lines = {key: {len(canonical_bytes(record)) for record in store.records(key)}
             for key in ("entry_hash", "event")}
    assert sorted(key for key, _ in obs.sizes) == ["entry_hash", "event"]
    for key, size in obs.sizes:
        assert size in lines[key]


def test_reopening_a_party_decodes_each_line_once(tmp_path, monkeypatch):
    names = ["A", "B", "C"]
    community = Community(names, runtime=SimRuntime(seed=4),
                          storage_dir=str(tmp_path))
    community.found_object("doc", {name: DictB2BObject() for name in names})
    for n, name in enumerate(names):
        ticket = community.node(name).submit_update("doc", {f"k{n}": n})
        community.settle()
        assert ticket.valid
    community.close()
    for name in names:
        community.node(name).ctx.evidence.store.close()
    lines = {name: len((tmp_path / name / "log.jsonl").read_bytes().splitlines())
             for name in names}
    assert all(count > 20 for count in lines.values())

    decoded = []
    decode = backends.from_canonical_bytes
    monkeypatch.setattr(backends, "from_canonical_bytes",
                        lambda data: decoded.append(data) or decode(data))
    reopened = Community(names, runtime=SimRuntime(seed=4),
                         storage_dir=str(tmp_path))
    assert len(decoded) == sum(lines.values())
    del decoded[:]
    node = reopened.restart_node("A")
    assert len(decoded) == lines["A"]
    assert node.ctx.checkpoints.require_latest("doc").state == {
        "k0": 0, "k1": 1, "k2": 2}
    reopened.close()
    for name in names:
        reopened.node(name).ctx.evidence.store.close()
