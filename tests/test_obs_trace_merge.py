"""Cross-party causal tracing: contexts, Lamport merge, anomaly detection."""

from __future__ import annotations

import json
import random
import threading

from repro.faults.byzantine import SuppressCommits
from repro.obs.merge import (
    ANOMALY_DUPLICATE_FLOOD,
    ANOMALY_RETRANSMISSION_STORM,
    ANOMALY_STALLED_RUN,
    ANOMALY_VETO,
    merge_trace_files,
    merge_traces,
    render_timeline,
)
from repro.obs.recording import RecordingInstrumentation
from repro.obs.trace import (
    JsonLinesExporter,
    LamportClock,
    PartyFilesExporter,
    PartyTraceContext,
    TraceContext,
    Tracer,
    read_jsonl,
    span_id_for,
    trace_id_for_run,
)
from repro.transport.inmemory import LinkProfile


class TestTraceIds:
    def test_trace_id_is_run_id_prefix_padded(self):
        run_id = "ab" * 32  # 64 hex chars
        assert trace_id_for_run(run_id) == "ab" * 16
        assert trace_id_for_run("short") == "short" + "0" * 27
        assert trace_id_for_run("") == ""

    def test_every_party_derives_the_same_trace_id(self):
        run_id = "deadbeef" * 8
        assert trace_id_for_run(run_id) == trace_id_for_run(run_id)

    def test_span_ids_are_deterministic_and_distinct(self):
        trace = trace_id_for_run("f" * 64)
        a = span_id_for(trace, "Cross", 1)
        assert a == span_id_for(trace, "Cross", 1)
        assert len(a) == 16
        assert a != span_id_for(trace, "Nought", 1)
        assert a != span_id_for(trace, "Cross", 2)


class TestLamportClock:
    def test_tick_is_monotonic(self):
        clock = LamportClock()
        assert [clock.tick() for _ in range(3)] == [1, 2, 3]

    def test_observe_jumps_past_remote_value(self):
        clock = LamportClock()
        clock.tick()
        assert clock.observe(10) == 11
        # A stale remote value never rolls the clock back.
        assert clock.observe(2) == 12

    def test_concurrent_ticks_never_collide(self):
        clock = LamportClock()
        seen: "list[int]" = []
        lock = threading.Lock()

        def worker():
            for _ in range(200):
                value = clock.tick()
                with lock:
                    seen.append(value)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(seen)) == 800
        assert clock.value == 800


class TestTraceContext:
    def test_to_dict_omits_empty_parent(self):
        ctx = TraceContext(trace_id="t" * 32, span_id="s" * 16, lamport=3)
        assert "parent_span_id" not in ctx.to_dict()
        child = TraceContext(trace_id="t" * 32, span_id="c" * 16, lamport=4,
                             parent_span_id="s" * 16)
        assert child.to_dict()["parent_span_id"] == "s" * 16

    def test_from_dict_round_trip(self):
        ctx = TraceContext(trace_id="t" * 32, span_id="s" * 16, lamport=3,
                           parent_span_id="p" * 16)
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    def test_from_dict_tolerates_garbage(self):
        assert TraceContext.from_dict(None) is None
        assert TraceContext.from_dict("nope") is None
        assert TraceContext.from_dict({"lamport": "NaN-ish"}) is None
        for lamport in (float("inf"), 1.5, True):  # checked, never coerced
            assert TraceContext.from_dict({"lamport": lamport}) is None

    def test_receive_builds_causal_edge(self):
        run_id = "c" * 64
        sender = PartyTraceContext("Cross")
        receiver = PartyTraceContext("Nought")
        sent = sender.begin_send(run_id)
        received = receiver.receive(run_id, sent.to_dict())
        assert received.trace_id == sent.trace_id
        assert received.parent_span_id == sent.span_id
        assert received.lamport > sent.lamport

    def test_receive_without_context_rejoins_trace_by_run_id(self):
        receiver = PartyTraceContext("Nought")
        received = receiver.receive("d" * 64, None)
        assert received.trace_id == trace_id_for_run("d" * 64)
        assert received.parent_span_id == ""


class TestTracerThreadSafety:
    def test_parallel_emission_through_one_jsonl_file(self, tmp_path):
        """TCP deployments run parties in threads sharing one exporter;
        every emitted line must still parse as exactly one record."""
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer()
        with JsonLinesExporter(path) as exporter:
            tracer.add_exporter(exporter)

            def worker(party):
                for i in range(150):
                    tracer.event("stress", party=party, index=i)

            threads = [threading.Thread(target=worker, args=(f"P{n}",))
                       for n in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        records = read_jsonl(path)
        assert len(records) == 6 * 150
        per_party = {f"P{n}": 0 for n in range(6)}
        for record in records:
            assert record["name"] == "stress"
            per_party[record["party"]] += 1
        assert all(count == 150 for count in per_party.values())

    def test_party_files_exporter_demuxes(self, tmp_path):
        tracer = Tracer()
        with PartyFilesExporter(str(tmp_path)) as exporter:
            tracer.add_exporter(exporter)
            tracer.event("a", party="Cross")
            tracer.event("b", party="Nought")
            tracer.event("c")  # community-wide record
            paths = exporter.paths()
        assert sorted(paths) == ["Cross", "Nought", "_shared"]
        assert read_jsonl(paths["Cross"])[0]["name"] == "a"
        assert read_jsonl(paths["_shared"])[0]["name"] == "c"


def _instrumented_run(make_community, seed=7, profile=None, updates=1):
    """One counter workload over an instrumented community; returns the
    per-party causal/transport record dict lists plus the obs handle."""
    from repro.bench.workload import counter_states
    from repro.core.object import DictB2BObject

    obs = RecordingInstrumentation(collect=True)
    community = make_community(3, seed=seed, profile=profile, obs=obs)
    objects = {name: DictB2BObject() for name in community.names()}
    controllers = community.found_object("shared", objects)
    proposer = controllers["Org1"]
    for state in counter_states(updates):
        proposer.enter()
        proposer.overwrite()
        objects["Org1"].set_attribute("counter", state["counter"])
        proposer.leave()
    community.settle()
    per_party: "dict[str, list[dict]]" = {}
    for record in obs.collector.records:
        per_party.setdefault(record.party, []).append(record.to_dict())
    return per_party, obs, community


class TestMergeDeterminism:
    def test_shuffled_inputs_yield_identical_timeline(self, make_community):
        per_party, _obs, _community = _instrumented_run(make_community,
                                                        updates=2)
        lists = list(per_party.values())
        reference = merge_traces([list(records) for records in lists])
        for shuffle_seed in (1, 2, 3):
            rng = random.Random(shuffle_seed)
            shuffled = [list(records) for records in lists]
            rng.shuffle(shuffled)
            for records in shuffled:
                rng.shuffle(records)
            merged = merge_traces(shuffled)
            assert merged.events == reference.events
            assert sorted(merged.runs) == sorted(reference.runs)
            assert render_timeline(merged) == render_timeline(reference)

    def test_merge_files_equals_merge_records(self, make_community, tmp_path):
        per_party, _obs, _community = _instrumented_run(make_community)
        paths = []
        for party, records in sorted(per_party.items()):
            path = tmp_path / f"trace-{party or '_shared'}.jsonl"
            with open(path, "w", encoding="utf-8") as handle:
                for record in records:
                    handle.write(json.dumps(record, default=str) + "\n")
            paths.append(str(path))
        from_files = merge_trace_files(paths)
        from_records = merge_traces(per_party.values())
        assert from_files.events == from_records.events


class TestLossyLinks:
    def test_trace_ids_survive_drops_and_retransmissions(self, make_community):
        """Satellite: one run over a dropping network still merges into a
        single trace with resolvable causal edges, and the transport noise
        is attributed back to that run via the msg_id binding."""
        profile = LinkProfile(latency=0.005, drop_probability=0.3)
        per_party, obs, _community = _instrumented_run(
            make_community, seed=11, profile=profile
        )
        messages = obs.collector.named("protocol.message")
        trace_ids = {record.attrs["trace_id"] for record in messages}
        run_ids = {record.attrs["run_id"] for record in messages}
        assert len(run_ids) == 1 and len(trace_ids) == 1
        assert trace_ids == {trace_id_for_run(next(iter(run_ids)))}
        # Losses forced the reliable layer to retransmit, and each
        # retransmission record carries the msg_id the merge attributes.
        assert obs.registry.counter_value("transport.retransmissions") > 0
        retransmissions = obs.collector.named("transport.retransmission")
        assert retransmissions and all(r.attrs["msg_id"]
                                       for r in retransmissions)

        merged = merge_traces(per_party.values(),
                              retransmission_threshold=1)
        run = merged.runs[next(iter(trace_ids))]
        assert run.unresolved_parents == []
        assert run.settled and set(run.outcomes.values()) == {"valid"}
        storms = [a for a in run.anomalies
                  if a.kind == ANOMALY_RETRANSMISSION_STORM]
        assert storms and all(a.run_id == run.run_id for a in storms)

    def test_duplicate_flood_attributed(self, make_community):
        profile = LinkProfile(latency=0.005, duplicate_probability=1.0)
        per_party, _obs, _community = _instrumented_run(
            make_community, seed=13, profile=profile
        )
        merged = merge_traces(per_party.values(), duplicate_threshold=1)
        floods = [a for a in merged.anomalies
                  if a.kind == ANOMALY_DUPLICATE_FLOOD]
        assert floods
        # Every flood points back at the run whose message was duplicated.
        assert all(a.trace_id in merged.runs for a in floods)


class TestAnomalies:
    def test_veto_flagged_with_diagnostics(self, make_community):
        import pytest

        from repro.apps.tictactoe import CROSS, NOUGHT, TicTacToeObject
        from repro.errors import ValidationFailed

        obs = RecordingInstrumentation(collect=True)
        names = ["Cross", "Nought"]
        community = make_community(names, seed=3, obs=obs)
        players = {"Cross": CROSS, "Nought": NOUGHT}
        objects = {name: TicTacToeObject(players=players) for name in names}
        controllers = community.found_object("game", objects)
        controller = controllers["Cross"]
        controller.enter()
        controller.overwrite()
        game = objects["Cross"]
        board = game.board
        board[0] = NOUGHT  # the Figure 5 cheat: Cross places Nought's mark
        game.apply_state({"board": board, "next": NOUGHT, "winner": ""})
        with pytest.raises(ValidationFailed):
            controller.leave()
        community.settle()
        per_party: "dict[str, list[dict]]" = {}
        for record in obs.collector.records:
            per_party.setdefault(record.party, []).append(record.to_dict())
        merged = merge_traces(per_party.values())
        vetoes = [a for a in merged.anomalies if a.kind == ANOMALY_VETO]
        assert len(vetoes) == 1
        assert vetoes[0].party == "Nought"
        assert "only X marks may be placed" in vetoes[0].detail
        run = merged.runs[vetoes[0].trace_id]
        assert run.veto_parties() == ["Nought"]
        assert set(run.outcomes.values()) == {"invalid"}

    def test_suppressed_commit_shows_as_stalled_run(self, make_community):
        """A byzantine sponsor that never sends m3 leaves the responders
        without a settlement record — the merge flags the stall."""
        from repro.core.object import DictB2BObject

        obs = RecordingInstrumentation(collect=True)
        community = make_community(3, seed=50, obs=obs)
        objects = {name: DictB2BObject() for name in community.names()}
        controllers = community.found_object("shared", objects)
        SuppressCommits(community.node("Org1"))
        controller = controllers["Org1"]
        controller.enter()
        controller.overwrite()
        objects["Org1"].set_attribute("x", 1)
        controller.leave()
        community.settle(2.0)
        per_party: "dict[str, list[dict]]" = {}
        for record in obs.collector.records:
            per_party.setdefault(record.party, []).append(record.to_dict())
        merged = merge_traces(per_party.values())
        stalls = [a for a in merged.anomalies
                  if a.kind == ANOMALY_STALLED_RUN]
        assert len(stalls) == 1
        assert "Org2" in stalls[0].party and "Org3" in stalls[0].party

    def test_timeline_renders_runs_and_anomalies(self, make_community):
        per_party, _obs, _community = _instrumented_run(make_community)
        merged = merge_traces(per_party.values())
        text = render_timeline(merged, max_events=4)
        assert "merged causal timeline" in text
        assert "proposer=Org1" in text
        assert "m1/sent" in text
        assert "more event(s)" in text
