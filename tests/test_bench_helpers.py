"""Benchmark harness helpers."""

from __future__ import annotations

import pytest

from repro.bench.harness import (
    assert_replicas_converged,
    build_community,
    found_dict_object,
    protocol_message_count,
    run_state_workload,
)
from repro.bench.metrics import LatencyRecorder, MessageCounter
from repro.bench.workload import counter_states, large_state
from repro.obs.metrics import exact_quantile
from repro.obs.report import format_table
from repro.util.encoding import canonical_bytes


class TestMetrics:
    def test_latency_summary(self):
        recorder = LatencyRecorder()
        for value in [1.0, 2.0, 3.0, 4.0]:
            recorder.record(value)
        summary = recorder.summary()
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["min"] == 1.0 and summary["max"] == 4.0
        # Linear interpolation between closest ranks: the even-count
        # median is the midpoint, not the lower sample.
        assert summary["p50"] == pytest.approx(2.5)
        assert summary["p99"] == pytest.approx(3.97)
        assert summary["stddev"] == pytest.approx(1.29099, abs=1e-4)

    def test_empty_recorder(self):
        summary = LatencyRecorder().summary()
        assert summary["count"] == 0 and summary["mean"] == 0.0

    def test_percentile_bounds(self):
        samples = LatencyRecorder([1.0, 2.0, 3.0]).samples
        assert exact_quantile(samples, 0.0) == 1.0
        assert exact_quantile(samples, 1.0) == 3.0

    def test_message_counter_delta(self):
        community = build_community(2, seed=1)
        network = community.runtime.network
        counter = MessageCounter()
        counter.start(network)
        controllers, objects = found_dict_object(community)
        run_state_workload(community, controllers, counter_states(1))
        delta = counter.delta(network)
        assert delta["delivered"] > 0

    def test_format_table(self):
        text = format_table(["name", "value"], [["a", 1.23456], ["bb", 2]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4


class TestWorkloads:
    def test_counter_states_distinct(self):
        states = list(counter_states(5))
        assert len(states) == 5
        assert len({canonical_bytes(s) for s in states}) == 5

    def test_large_state_size(self):
        state = large_state(4096)
        assert len(canonical_bytes(state)) >= 4096


class TestHarness:
    def test_run_state_workload_and_convergence(self):
        community = build_community(3, seed=5)
        controllers, objects = found_dict_object(community)
        summary = run_state_workload(community, controllers, counter_states(4))
        assert summary["completed"] == 4 and summary["rejected"] == 0
        assert summary["latency"]["count"] == 4
        state = assert_replicas_converged(controllers)
        assert state["counter"] == 4

    def test_divergence_detected(self):
        community = build_community(2, seed=6)
        controllers, objects = found_dict_object(community)
        objects["Org2"]._attributes["rogue"] = True
        community.node("Org2").party.session("shared").state.agreed_state = {
            "rogue": True}
        with pytest.raises(AssertionError, match="divergence"):
            assert_replicas_converged(controllers)

    def test_protocol_message_count_formula(self):
        assert protocol_message_count(2) == 3
        assert protocol_message_count(5) == 12

    def test_measured_messages_match_formula(self):
        # raw protocol messages = 3(n-1); the reliable layer adds one ack
        # per message on a loss-free network.
        for n in (2, 3, 4):
            community = build_community(n, seed=7)
            controllers, objects = found_dict_object(community)
            community.settle()
            counter = MessageCounter()
            counter.start(community.runtime.network)
            summary = run_state_workload(community, controllers,
                                         counter_states(1))
            delta = counter.delta(community.runtime.network)
            assert delta["delivered"] == 2 * protocol_message_count(n)


def test_every_e2e_ledger_wrap_point_resolves():
    """``benchmarks/e2e/tracing.py`` wraps methods where a class body
    defines them (``vars(cls)[attr]``) and module functions where a
    ``repro`` module global *is* the function.  A target that matches
    nothing makes its ledger row vanish without an error, so moving a
    wrapped method into a base class must fail here instead."""
    import importlib
    import importlib.util
    import os
    import sys

    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "benchmarks", "e2e", "tracing.py")
    spec = importlib.util.spec_from_file_location("_e2e_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    assert len(tracing.TARGETS) >= 20
    for name, target, _info in tracing.TARGETS:
        module_name, _, attr_path = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in attr_path:
            class_name, _, attr = attr_path.partition(".")
            owners = list(tracing._implementations(
                getattr(module, class_name), attr))
            assert owners, f"{name}: no class body defines {target}"
        else:
            original = getattr(module, attr_path)
            holders = [other for other in list(sys.modules.values())
                       if getattr(other, "__name__", "").startswith("repro")
                       and vars(other).get(attr_path) is original]
            assert holders, f"{name}: no module global is {target}"
