"""One record per happening, on the timeline the causal records made.

A seeded 3-party Tic-Tac-Toe game with the Figure 5 cheat (the one
``repro obs-report`` plays) runs over lossy links with an in-memory
collector and a flight ring on one tracer.  ``data/obs_timeline.json``
was written on the commit before the three ``causal_*`` hooks were
folded into the protocol hooks they shadowed: per run, what merging the
``causal.*`` records gave — the participants, the outcome at each party,
the vetoing parties, the number of resolved parent edges and the anomaly
kinds.  Merging the protocol's own records must give exactly that, and
so must a dump of the flight ring, for every run the ring kept whole.
"""

from __future__ import annotations

import json
import os
from collections import Counter

import pytest

from repro.apps.tictactoe import CROSS, NOUGHT, TicTacToeObject, TicTacToePlayer
from repro.core.community import Community
from repro.core.runtime import SimRuntime
from repro.errors import ValidationFailed
from repro.obs.catalogue import CATALOGUE
from repro.obs.live import FlightRecorder
from repro.obs.merge import merge_trace_files, merge_traces
from repro.obs.recording import RecordingInstrumentation
from repro.obs.trace import trace_id_for_run
from repro.transport.inmemory import LinkProfile

PINNED = os.path.join(os.path.dirname(__file__), "data", "obs_timeline.json")
NAMES = ["Cross", "Nought", "Witness"]
MOVES = [("Cross", 4, None), ("Nought", 0, None), ("Cross", 5, None),
         ("Cross", 7, NOUGHT),  # the cheat: vetoed
         ("Nought", 8, None), ("Cross", 3, None)]
RING = 150  # fewer than the game records, so the ring evicts


def play(drop: float, duplicate: float):
    """The game on a fresh recorder with a ring; returns (obs, ring)."""
    obs = RecordingInstrumentation(collect=True)
    ring = FlightRecorder(capacity=RING)
    obs.tracer.add_exporter(ring)
    profile = LinkProfile(latency=0.005, drop_probability=drop,
                          duplicate_probability=duplicate)
    community = Community(NAMES, runtime=SimRuntime(seed=3, profile=profile),
                          obs=obs, retransmit_interval=0.05)
    marks = {"Cross": CROSS, "Nought": NOUGHT}
    objects = {name: TicTacToeObject(players=marks) for name in NAMES}
    controllers = community.found_object("game", objects)
    players = {name: TicTacToePlayer(controllers[name], marks[name])
               for name in marks}
    for name, cell, mark in MOVES:
        try:
            players[name].save_move(cell, mark)
        except ValidationFailed:
            pass
    community.settle()
    community.close()
    return obs, ring


def per_party(records: "list[dict]") -> "list[list[dict]]":
    """Records split the way each party exports its own file."""
    parties: "dict[str, list[dict]]" = {}
    for record in records:
        parties.setdefault(record["party"], []).append(record)
    return list(parties.values())


def summary(merged) -> dict:
    runs = {}
    for run in merged.runs.values():
        unresolved = set(run.unresolved_parents)
        runs[run.run_id] = {
            "participants": run.participants,
            "outcomes": run.outcomes,
            "vetoes": run.veto_parties(),
            "resolved_edges": sum(parent not in unresolved
                                  for parent, _ in run.edges),
            "anomalies": sorted(a.kind for a in run.anomalies),
        }
    return runs


@pytest.fixture(scope="module")
def lossy():
    return play(drop=0.15, duplicate=0.05)


@pytest.fixture(scope="module")
def pinned():
    with open(PINNED, encoding="utf-8") as handle:
        return json.load(handle)


def _dicts(obs) -> "list[dict]":
    return [record.to_dict() for record in obs.collector.records]


def test_timeline_matches_the_parent_summary(lossy, pinned):
    obs, _ring = lossy
    merged = merge_traces(per_party(_dicts(obs)))
    assert summary(merged) == pinned
    assert any(entry["vetoes"] for entry in pinned.values())
    assert any("retransmission-storm" in entry["anomalies"]
               for entry in pinned.values())


def test_one_record_per_happening(lossy):
    obs, _ring = lossy
    records = _dicts(obs)
    names = {record["name"] for record in records}
    assert names <= {event.trace for event in CATALOGUE if event.trace}
    assert not [name for name in names if name.startswith("causal.")]
    settled = Counter((r["party"], r["run_id"]) for r in records
                      if r["name"] == "run.settled")
    decided = Counter((r["party"], r["run_id"]) for r in records
                      if r["name"] == "validation.decision")
    assert settled and set(settled.values()) == {1}
    assert decided and set(decided.values()) == {1}
    # Every responder of every run decided once; the proposer never did.
    received_m1 = {(r["party"], r["run_id"]) for r in records
                   if r["name"] == "protocol.message"
                   and r["phase"] == "m1" and r["direction"] == "received"}
    assert set(decided) == received_m1


def test_sends_are_recipients_times_broadcasts_and_all_arrive():
    obs, _ring = play(drop=0.0, duplicate=0.0)
    messages = [r for r in _dicts(obs) if r["name"] == "protocol.message"]
    sent = [r for r in messages if r["direction"] == "sent"]
    received = [r for r in messages if r["direction"] == "received"]
    # One broadcast is one Lamport event: its records share a span id,
    # one per recipient — 2 for m1 and m3, 1 for each responder's m2.
    broadcasts = Counter((r["span_id"], r["phase"]) for r in sent)
    assert {(phase, count) for (_span, phase), count in broadcasts.items()} \
        == {("m1", 2), ("m2", 1), ("m3", 2)}
    runs = {r["run_id"] for r in sent}
    assert len(sent) == len(runs) * (2 + 2 * 1 + 2)
    assert Counter((r["run_id"], r["phase"], r["party"], r["peer"],
                    r["span_id"]) for r in sent) \
        == Counter((r["run_id"], r["phase"], r["peer"], r["party"],
                    r["parent_span_id"]) for r in received)


def test_a_ring_dump_merges_like_the_trace_files(lossy, pinned, tmp_path):
    obs, ring = lossy
    records = obs.collector.records
    cut = len(records) - RING
    assert ring.recorded == len(records) and cut > 0
    assert ring.events() == [record.to_dict() for record in records[cut:]]
    dump = tmp_path / "flight.jsonl"
    ring.dump(str(dump))
    # A run is kept whole when its first record is inside the ring.
    first: "dict[str, int]" = {}
    for index, record in enumerate(records):
        first.setdefault(record.attrs.get("trace_id"), index)
    kept = {run_id: entry for run_id, entry
            in summary(merge_trace_files([str(dump)])).items()
            if first[trace_id_for_run(run_id)] >= cut}
    assert kept and len(kept) < len(pinned)
    assert kept == {run_id: pinned[run_id] for run_id in kept}
