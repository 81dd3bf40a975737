"""Golden evidence: signed, hashed and stored bytes pinned across versions.

The expected values in :data:`GOLDEN` were computed on the commit
*before* the single-pass canonical writer replaced the two-pass encoder
(run this file as a script on any commit to print the current values).
Signatures, chain hashes and stored records are functions of canonical
bytes, so one changed byte anywhere in the encoder, in what a layer
hands to the signer, or in what the evidence log or journal persists,
moves at least one of these digests.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pytest

import repro.core.community as community_module
from repro.core import Community, DictB2BObject, SimRuntime
from repro.crypto.hashing import hash_value
from repro.crypto.prng import DeterministicRandomSource
from repro.crypto.rsa import generate_keypair
from repro.crypto.signature import KeyPair, generate_party_keypair
from repro.crypto.timestamp import TimestampService
from repro.cli import main as cli_main
from repro.errors import ConfigurationError, ValidationFailed
from repro.protocol.ids import initial_group_id, initial_state_id, new_state_id
from repro.protocol.messages import (
    MODE_UPDATE,
    build_proposal,
    build_response,
    commit_message,
    make_signed,
    propose_message,
    respond_message,
)
from repro.protocol.validation import CallbackValidator, Decision
from repro.storage.backends import VIEW_NAMES, FileRecordStore
from repro.storage.checkpoint import CheckpointStore
from repro.storage.journal import MessageJournal
from repro.storage.log import NonRepudiationLog
from repro.transport.inmemory import LinkProfile
from repro.util.clocks import VirtualClock
from repro.util.encoding import canonical_bytes

DATA = os.path.join(os.path.dirname(__file__), "data")
#: Chain head of ``data/parent_evidence_OrgA.jsonl`` as the parent printed it.
PARENT_FILE_HEAD = "1ded0e5bc7b46f6d060536d4dd9558eb55e8e527858c84ad6314ae23f21cbca4"
#: OrgA's one file from :func:`durable_two_party_run`, written by the
#: commit before journal records named evidence entries: its journal
#: records embed whole messages.
EMBEDDED_LOG = os.path.join(DATA, "embedded_messages_log_OrgA.jsonl")

#: Only the ``journal`` digests have ever been re-pinned: journal records
#: are recovery state, not evidence.  They were last re-pinned when a
#: journal record began to keep only what the evidence log does not
#: hold — the message with each signed part replaced by a reference to
#: the evidence entry holding it — and nothing else moved.
GOLDEN = {
    "value": (
        b'{"bytes":{"__b64__":"AAH/"},"empty":[{},[],"",{"__b64__":""}],'
        b'"float":[{"__float__":"1.5"},{"__float__":"nan"},{"__float__":'
        b'"-inf"}],"int":[0,-1,340282366920938463463374607431768211456,t'
        b'rue,false,null],"str":"caf\\u00e9 \\u0000\\n\\"\\\\/ \\ud83d\\ude00 \\u'
        b'007f","tuple":[1,[2,[3]]]}'
    ),
    "m1": "6c7b6ec557837c229bf94e636c9895cfba7e1b6bb851e07a4b745dd202b43107",
    "m2": "af3231c8e47344360f53002ae54586393ec5bd17c29ed1b4ce54478f04ff78eb",
    "m3": "39b1d6432eabd1da0a2bc1a093911262f166c364e9b7415f4491757bba11508e",
    "run": {
        "OrgA": {
            "checkpoints": "f8e5429289cffd25a67cbb8c2ba2149fd7d2355a272fd63378153f98dd9338d1",
            "entries": 35,
            "evidence": "3e6b287e03b04c8a9bcf4b36e9cd4c4bc2409afb1d7dfdccd5794e2ee1ed0623",
            "head": "048018363f023295f2b0b792c40be600f1e2410e2c376da7b217f2fe85e08d3c",
            "journal": "9b4f2e51eecb03656151779c7d28140975906cf48931924c70fe3d8ecc5ab282"
        },
        "OrgB": {
            "checkpoints": "f8e5429289cffd25a67cbb8c2ba2149fd7d2355a272fd63378153f98dd9338d1",
            "entries": 25,
            "evidence": "0458fd320bc4142adfbb5b205a6c1ce4a2db4ef97702125e09ee7a13420e6345",
            "head": "34aa34d5fa4842ea3e6e85501be4bd41842f572428781a7005ca0e6f815fd46f",
            "journal": "2bc146ed1b8ce1329357f7d4b88d1a88d06cf9daa2493556582b403bbc7d17ee"
        },
        "OrgC": {
            "checkpoints": "f8e5429289cffd25a67cbb8c2ba2149fd7d2355a272fd63378153f98dd9338d1",
            "entries": 37,
            "evidence": "a22547bdd18e76db88b6404eda8f193700ae8e2561031a0ff944a22d5b230cd1",
            "head": "50d5f6cc2e0c9d07d338dbd92ec2f43c329c609b2e921e862b1b43dff1755333",
            "journal": "b400db993d77c94e6541c937fdbe894c48ecbe57103ab01c4c7ab18135db4bbe"
        },
        "OrgD": {
            "checkpoints": "d4fd0cfa1a8f4b535da571d967218c618eeb33a046b6a6f5f0b3a80bff01b0f7",
            "entries": 10,
            "evidence": "e5f065727402148ccbd4b28ca2a242c0c4a3fc5a564ae6fe35fa5bf3728d076a",
            "head": "9f59408b52e9e053948fe10b95a9f444ac305c51f7a604adc5160c4607f40a2d",
            "journal": "2de8b35265f826f0ebc0686228adce7f033861499b074d53806def5dff131d20"
        }
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_value() -> dict:
    """One value exercising every wrapper and escape of the canonical form."""
    return {
        "str": "café \x00\n\"\\/ \U0001F600 \x7f",
        "bytes": b"\x00\x01\xff",
        "int": [0, -1, 2 ** 128, True, False, None],
        "float": [1.5, float("nan"), float("-inf")],
        "tuple": (1, (2, [3])),
        "empty": [{}, [], "", b""],
    }


def hand_written_messages() -> "dict[str, dict]":
    """One m1, m2 and m3 built from fixed keys, clock and nonces."""
    key_rng = DeterministicRandomSource("golden-keys")
    keys = {name: KeyPair(name, generate_keypair(512, key_rng))
            for name in ("P1", "P2", "TSA")}
    clock = VirtualClock(start=1_017_619_200.25)
    tsa = TimestampService("TSA", clock=clock, keypair=keys["TSA"])
    rng = DeterministicRandomSource("golden-nonces")

    members = ["P1", "P2"]
    agreed_state = {"order": 17, "lines": [{"sku": "A-1", "qty": 2}]}
    update = {"lines": [{"sku": "A-1", "qty": 3}], "note": "révisé"}
    new_state = dict(agreed_state, **update)
    gid = initial_group_id(members)
    agreed_sid = initial_state_id(agreed_state)
    new_sid, _nonce = new_state_id(agreed_sid.seq, new_state, rng)
    auth = rng.random_bytes(32)

    proposal = make_signed(build_proposal(
        proposer="P1", object_name="order", gid=gid, agreed_sid=agreed_sid,
        new_sid=new_sid, auth_commitment=hash_value(auth), mode=MODE_UPDATE,
        update_hash=hash_value(update),
    ), keys["P1"].signer(), tsa)
    clock.advance(0.125)
    response = make_signed(build_response(
        responder="P2", object_name="order", proposal_digest=proposal.digest(),
        new_sid=new_sid, body_hash=hash_value(update),
        decision=Decision.reject("quantity exceeds credit", "see clause 4"),
        gid=gid, agreed_sid=agreed_sid, current_sid=agreed_sid,
    ), keys["P2"].signer(), tsa)
    return {
        "m1": propose_message(proposal, update),
        "m2": respond_message(response),
        "m3": commit_message("order", new_sid, auth, proposal, [response]),
    }


def deterministic_run(monkeypatch) -> "dict[str, dict]":
    """A 3-party simulated history covering every evidence-producing path.

    Overwrite, update, pipelined batch, a vetoed update, a join, an
    eviction and a voluntary disconnect, under a fixed community seed
    (keys, nonces), a virtual clock and a seeded simulated network.
    Returns, per party, the evidence chain head and digests of every
    stored evidence, journal and checkpoint record.
    """
    # conftest swaps in an order-dependent key cache; golden keys must
    # come from the community seed alone.
    monkeypatch.setattr(community_module, "generate_party_keypair",
                        generate_party_keypair)
    runtime = SimRuntime(seed=7, profile=LinkProfile(latency=0.005))
    community = Community(["OrgA", "OrgB", "OrgC", "OrgD"], runtime=runtime,
                          seed="golden-run")
    founders = ["OrgA", "OrgB", "OrgC"]
    objects = {name: DictB2BObject({"title": "contract", "rev": 0})
               for name in founders}
    controllers = community.found_object("doc", objects)

    a = controllers["OrgA"]
    a.enter(); a.overwrite()
    objects["OrgA"].set_attribute("rev", 1)
    objects["OrgA"].set_attribute("blob", b"\x00\xfe")
    a.leave()
    community.settle()

    b = controllers["OrgB"]
    b.enter(); b.update()
    objects["OrgB"].set_attribute("clause", "net 30 — délai")
    b.leave()
    community.settle()

    node_c = community.node("OrgC")
    tickets = [node_c.submit_update("doc", {f"k{i}": [i, str(i)]})
               for i in range(3)]
    community.settle()
    assert all(t.done and t.valid for t in tickets)

    community.node("OrgB").party.session("doc").state.validator = (
        CallbackValidator(update=lambda u, r, c, p: Decision.reject("frozen"))
    )
    a.enter(); a.update()
    objects["OrgA"].set_attribute("rev", 2)
    with pytest.raises(ValidationFailed):
        a.leave()
    community.settle()

    joined = DictB2BObject()
    community.node("OrgD").connect("doc", joined, "OrgC")
    community.settle()
    assert joined.get_attribute("clause") == "net 30 — délai"
    controllers["OrgA"].evict(["OrgB"])
    community.settle()
    community.node("OrgD").controllers["doc"].disconnect()
    community.settle()
    assert controllers["OrgA"].members() == ["OrgA", "OrgC"]

    result = {}
    for name in community.names():
        ctx = community.node(name).ctx
        assert ctx.evidence.verify_chain() == len(ctx.evidence)
        result[name] = {
            "entries": len(ctx.evidence),
            "head": ctx.evidence.head.hex(),
            "evidence": _sha(b"\n".join(
                canonical_bytes(e.to_dict()) for e in ctx.evidence.entries())),
            "journal": _sha(b"\n".join(
                canonical_bytes(r) for r in ctx.journal.all_records())),
            "checkpoints": _sha(b"\n".join(
                canonical_bytes(c.to_dict())
                for c in ctx.checkpoints.history("doc"))),
        }
    return result


def durable_two_party_run(monkeypatch, storage_dir: str) -> None:
    """The history ``tests/data/parent_*_OrgA.jsonl`` were written from
    (by the parent commit, file-backed stores, fixed seeds)."""
    monkeypatch.setattr(community_module, "generate_party_keypair",
                        generate_party_keypair)
    community = Community(
        ["OrgA", "OrgB"], seed="fixture", storage_dir=storage_dir,
        runtime=SimRuntime(seed=3, profile=LinkProfile(latency=0.005)))
    objects = {name: DictB2BObject({"rev": 0}) for name in community.names()}
    controllers = community.found_object("doc", objects)
    a = controllers["OrgA"]
    a.enter(); a.update()
    objects["OrgA"].set_attribute("rev", 1)
    objects["OrgA"].set_attribute("blob", b"\x00\xff")
    a.leave()
    community.settle()
    ticket = community.node("OrgB").submit_update("doc", {"note": "é", "n": [1, 2]})
    community.settle()
    assert ticket.done and ticket.valid
    community.close()


def test_golden_value_bytes():
    assert canonical_bytes(golden_value()) == GOLDEN["value"]


@pytest.mark.parametrize("name", ["m1", "m2", "m3"])
def test_golden_message_bytes(name):
    assert _sha(canonical_bytes(hand_written_messages()[name])) == GOLDEN[name]


def test_golden_run_evidence(monkeypatch):
    assert deterministic_run(monkeypatch) == GOLDEN["run"]


def test_parent_written_evidence_file_replays_and_extends(tmp_path):
    path = tmp_path / "evidence.jsonl"
    shutil.copy(os.path.join(DATA, "parent_evidence_OrgA.jsonl"), path)
    log = NonRepudiationLog("OrgA", FileRecordStore(str(path)))  # verified as it is read
    assert log.verify_chain() == len(log) == 8
    assert log.head.hex() == PARENT_FILE_HEAD
    log.record("audit", {"note": "appended by the current code"})
    reopened = NonRepudiationLog("OrgA", FileRecordStore(str(path)))
    assert reopened.verify_chain() == 9


def _lines(data: bytes, key: str) -> "list[bytes]":
    """The lines of one record kind in a party's file, in file order."""
    return [line for line in data.splitlines(keepends=True)
            if key in json.loads(line)]


def test_files_written_now_are_byte_identical_to_the_parents(monkeypatch, tmp_path):
    """The other direction: the evidence and checkpoint lines this code
    stores are exactly the ones the parent commits stored, so the parent
    replays them too.  Journal lines are recovery state, not evidence:
    they name evidence entries instead of embedding signed parts."""
    durable_two_party_run(monkeypatch, str(tmp_path))
    written = (tmp_path / "OrgA" / "log.jsonl").read_bytes()
    with open(EMBEDDED_LOG, "rb") as handle:
        parents = handle.read()
    for key in ("entry_hash", "state_id"):
        assert _lines(written, key) == _lines(parents, key)
    with open(os.path.join(DATA, "parent_evidence_OrgA.jsonl"), "rb") as handle:
        assert b"".join(_lines(written, "entry_hash")) == handle.read()
    # The three-file layout's names open the party's one file.
    for kind in ("evidence", "journal", "checkpoints"):
        assert (tmp_path / "OrgA" / f"{kind}.jsonl").read_bytes() == written
    journal = _lines(written, "event")
    assert len(journal) == 4 < len(_lines(parents, "event")) == 9
    assert not any(b'"signature"' in line for line in journal)
    assert all(len({"entry_hash", "event", "state_id"} & set(json.loads(line)))
               == 1 for line in written.splitlines())


def test_a_log_whose_journal_embeds_messages_reads_but_is_not_written(
        monkeypatch, tmp_path, capsys):
    """A party's one file written while journal records embedded whole
    messages is recognised by looking at it: it verifies through the
    same views (``repro audit`` included), and no party opens it for
    appending."""
    monkeypatch.setattr(community_module, "generate_party_keypair",
                        generate_party_keypair)
    keys = tmp_path / "keys.json"
    keys.write_text(json.dumps(
        Community(["OrgA", "OrgB"], seed="fixture").public_keys()))
    directory = tmp_path / "stores" / "OrgA"
    directory.mkdir(parents=True)
    shutil.copy(EMBEDDED_LOG, directory / "log.jsonl")
    for name in VIEW_NAMES:
        os.symlink("log.jsonl", directory / name)
    before = {path.name: path.read_bytes() for path in directory.iterdir()}

    store = FileRecordStore(str(directory / "log.jsonl"))
    log = NonRepudiationLog("OrgA", store)
    journal = MessageJournal("OrgA", store)
    assert log.verify_chain() == 8 and log.head.hex() == PARENT_FILE_HEAD
    assert journal.embeds_messages and journal.open_runs() == set()
    assert CheckpointStore(store).require_latest("doc").state == {
        "rev": 1, "blob": b"\x00\xff", "note": "é", "n": [1, 2]}
    store.close()
    assert cli_main(["audit", "--keys", str(keys), "--log",
                     f"OrgA={directory / 'evidence.jsonl'}"]) == 0
    report = capsys.readouterr().out
    assert "log intact" in report and "MISBEHAVING" not in report

    with pytest.raises(ConfigurationError, match="embed whole messages"):
        Community(["OrgA", "OrgB"], seed="fixture",
                  storage_dir=str(tmp_path / "stores"))
    assert {path.name: path.read_bytes()
            for path in directory.iterdir()} == before


def test_the_parents_three_file_directory_reads_but_is_not_written(
        monkeypatch, tmp_path, capsys):
    """A directory the parent commit wrote is recognised by looking at
    it: its files verify through the same views (``repro audit``
    included), and no party opens it for appending."""
    monkeypatch.setattr(community_module, "generate_party_keypair",
                        generate_party_keypair)
    keys = tmp_path / "keys.json"
    keys.write_text(json.dumps(
        Community(["OrgA", "OrgB"], seed="fixture").public_keys()))
    directory = tmp_path / "stores" / "OrgA"
    directory.mkdir(parents=True)
    for kind in ("evidence", "journal"):
        shutil.copy(os.path.join(DATA, f"parent_{kind}_OrgA.jsonl"),
                    directory / f"{kind}.jsonl")
    before = {path.name: path.read_bytes() for path in directory.iterdir()}

    log = NonRepudiationLog(
        "OrgA", FileRecordStore(str(directory / "evidence.jsonl")))
    assert log.verify_chain() == 8 and log.head.hex() == PARENT_FILE_HEAD
    journal = MessageJournal(
        "OrgA", FileRecordStore(str(directory / "journal.jsonl")))
    assert journal.open_runs() == set() and len(list(journal.all_records()))
    assert cli_main(["audit", "--keys", str(keys), "--log",
                     f"OrgA={directory / 'evidence.jsonl'}"]) == 0
    report = capsys.readouterr().out
    assert "log intact" in report and "MISBEHAVING" not in report

    with pytest.raises(ConfigurationError, match="three-file layout"):
        Community(["OrgA", "OrgB"], seed="fixture",
                  storage_dir=str(tmp_path / "stores"))
    assert {path.name: path.read_bytes()
            for path in directory.iterdir()} == before


if __name__ == "__main__":  # prints the values to pin
    import pprint

    print(canonical_bytes(golden_value()))
    for key, message in hand_written_messages().items():
        print(key, _sha(canonical_bytes(message)))
    pprint.pprint(deterministic_run(pytest.MonkeyPatch()))
