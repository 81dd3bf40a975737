"""End-to-end observability of instrumented coordination runs."""

from __future__ import annotations

import pytest

from repro.bench.harness import (
    build_community,
    found_dict_object,
    protocol_message_count,
    run_state_workload,
)
from repro.bench.workload import counter_states
from repro.obs.hooks import NULL_INSTRUMENTATION
from repro.obs.recording import RecordingInstrumentation
from repro.obs.report import render_report


def _run_instrumented(n_parties: int, updates: int = 1, seed: int = 21):
    obs = RecordingInstrumentation(collect=True)
    community = build_community(n_parties, seed=seed, obs=obs)
    controllers, _objects = found_dict_object(community)
    summary = run_state_workload(community, controllers,
                                 counter_states(updates))
    assert summary["completed"] == updates
    return obs, community


class TestMessageComplexity:
    def test_three_party_run_matches_paper_formula(self):
        """One 3-party run sends exactly 3(n-1) = 6 protocol messages."""
        obs, _community = _run_instrumented(3)
        registry = obs.registry
        n = 3
        assert registry.counter_value("protocol.m1.sent") == n - 1
        assert registry.counter_value("protocol.m2.sent") == n - 1
        assert registry.counter_value("protocol.m3.sent") == n - 1
        assert (registry.counter_value("protocol.messages.sent")
                == protocol_message_count(n))
        # Loss-free network: everything sent is received exactly once.
        assert (registry.counter_value("protocol.messages.received")
                == protocol_message_count(n))

    @pytest.mark.parametrize("n_parties", [2, 4])
    def test_formula_scales_with_group_size(self, n_parties):
        obs, _community = _run_instrumented(n_parties)
        assert (obs.registry.counter_value("protocol.messages.sent")
                == protocol_message_count(n_parties))

    def test_messages_scale_linearly_with_runs(self):
        runs = 3
        obs, _community = _run_instrumented(3, updates=runs)
        assert (obs.registry.counter_value("protocol.messages.sent")
                == runs * protocol_message_count(3))


class TestRunMetrics:
    def test_run_counters_and_spans(self):
        obs, _community = _run_instrumented(3)
        registry = obs.registry
        # The run starts at each of the 3 parties (1 proposer, 2 responders)
        # and settles as valid everywhere.
        assert registry.counter_value("protocol.runs.started") == 3
        assert registry.counter_value("protocol.runs.started.proposer") == 1
        assert registry.counter_value("protocol.runs.started.responder") == 2
        assert registry.counter_value("protocol.runs.valid") == 3
        assert registry.counter_value("protocol.runs.invalid") == 0
        assert registry.counter_value("protocol.validation.accepted") == 2
        assert registry.histogram("protocol.run_seconds").count == 3
        # Each party handled the phases addressed to it.
        assert registry.histogram("protocol.m1.handle_seconds").count == 2
        assert registry.histogram("protocol.m2.handle_seconds").count == 2
        assert registry.histogram("protocol.m3.handle_seconds").count == 2

    def test_crypto_and_storage_instruments_populated(self):
        obs, _community = _run_instrumented(3)
        registry = obs.registry
        assert registry.histogram("crypto.sign_seconds").count > 0
        assert registry.histogram("crypto.verify_seconds").count > 0
        assert registry.counter_value("crypto.verify.failures") == 0
        assert registry.counter_value("crypto.keygen.count") >= 3
        assert registry.counter_value("storage.journal.appends") > 0
        assert registry.counter_value("storage.evidence.appends") > 0
        assert registry.counter_value("transport.acks_received") > 0

    def test_trace_collector_sees_run_lifecycle(self):
        obs, _community = _run_instrumented(3)
        assert obs.collector is not None
        started = obs.collector.named("run.started")
        settled = obs.collector.named("run.settled")
        assert len(started) == 3 and len(settled) == 3
        roles = sorted(record.attrs["role"] for record in started)
        assert roles == ["proposer", "responder", "responder"]
        assert all(record.attrs["outcome"] == "valid" for record in settled)

    def test_report_renders_phase_breakdown(self):
        obs, _community = _run_instrumented(3)
        report = render_report(obs.registry)
        assert "m1" in report and "m2" in report and "m3" in report
        assert "signature operations" in report
        assert "reliable transport" in report


class TestMembershipRunsAreObserved:
    """Membership runs go through the same machine as state runs, so
    they fire the same events — with roles sponsor / member."""

    @pytest.mark.parametrize("n_members", [2, 3, 4])
    def test_join_is_three_broadcasts_and_one_causal_dag(self, n_members):
        from repro.core import DictB2BObject
        from repro.obs.merge import merge_traces
        from repro.protocol.messages import TRACE_CTX

        obs = RecordingInstrumentation(collect=True)
        community = build_community(n_members + 1, seed=31, obs=obs)
        members = community.names()[:n_members]
        joiner, sponsor = community.names()[-1], members[-1]
        found_dict_object(community, members=members)
        carried = []
        for name in members:
            node = community.node(name)
            node.outbound_interceptor = (
                lambda to, message: carried.append(message) or [(to, message)])
        registry = obs.registry
        assert registry.counter_value("protocol.messages.sent") == 0

        community.node(joiner).connect("shared", DictB2BObject(), sponsor)
        community.settle()
        # 3(n-1) protocol messages, the paper's formula; request and
        # welcome are not steps of the run.
        for phase in ("m1", "m2", "m3"):
            assert registry.counter_value(
                f"protocol.{phase}.sent") == n_members - 1
            assert registry.histogram(
                f"protocol.{phase}.handle_seconds").count == n_members - 1
        assert (registry.counter_value("protocol.messages.sent")
                == registry.counter_value("protocol.messages.received")
                == protocol_message_count(n_members))
        assert registry.counter_value("protocol.runs.started.sponsor") == 1
        assert (registry.counter_value("protocol.runs.started.member")
                == registry.counter_value("protocol.validation.accepted")
                == n_members - 1)
        assert registry.counter_value("protocol.runs.valid") == n_members
        started = obs.collector.named("run.started")
        assert {record.attrs["mode"] for record in started} == {"connect"}
        # m1, m2 and m3 carry the unsigned causal context.
        steps = [m for m in carried if m["msg_type"] in (
            "connect_propose", "connect_respond", "connect_commit")]
        assert len(steps) == protocol_message_count(n_members)
        assert all(TRACE_CTX in message for message in steps)

        per_party: "dict[str, list[dict]]" = {}
        for record in obs.collector.records:
            per_party.setdefault(record.party, []).append(record.to_dict())
        merged = merge_traces(per_party.values())
        (run,) = merged.runs.values()
        assert run.proposer == sponsor  # the DAG's root sent m1
        assert run.participants == sorted(members)
        assert run.unresolved_parents == [] and run.anomalies == []
        assert len(run.edges) == protocol_message_count(n_members)
        assert run.outcomes == dict.fromkeys(members, "valid")


class TestDefaultIsNoop:
    def test_community_defaults_to_null_instrumentation(self):
        community = build_community(2, seed=5)
        assert community.obs is NULL_INSTRUMENTATION
        node = community.node("Org1")
        assert node.ctx.obs is NULL_INSTRUMENTATION
        controllers, _objects = found_dict_object(community)
        summary = run_state_workload(community, controllers, counter_states(1))
        assert summary["completed"] == 1

    def test_rejected_proposal_counted(self):
        from repro.apps.tictactoe import CROSS, NOUGHT, TicTacToeObject
        from repro.core.community import Community
        from repro.core.runtime import SimRuntime
        from repro.errors import ValidationFailed

        obs = RecordingInstrumentation()
        names = ["Cross", "Nought"]
        community = Community(
            names, runtime=SimRuntime(seed=3), obs=obs,
        )
        players = {"Cross": CROSS, "Nought": NOUGHT}
        objects = {name: TicTacToeObject(players=players) for name in names}
        controllers = community.found_object("game", objects)
        controller = controllers["Cross"]
        controller.enter()
        controller.overwrite()
        game = objects["Cross"]
        board = game.board
        board[0] = NOUGHT  # Cross plays Nought's mark: vetoed (Figure 5)
        game.apply_state({"board": board, "next": NOUGHT, "winner": ""})
        with pytest.raises(ValidationFailed):
            controller.leave()
        community.settle()  # let m3 reach the responder so its run settles
        registry = obs.registry
        assert registry.counter_value("protocol.validation.rejected") == 1
        assert registry.counter_value("protocol.runs.invalid") == 2
