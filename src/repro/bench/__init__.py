"""Benchmark support: workloads, metrics and experiment drivers."""

from repro.bench.harness import (
    assert_replicas_converged,
    build_community,
    found_dict_object,
    protocol_message_count,
    run_state_workload,
)
from repro.bench.metrics import LatencyRecorder, MessageCounter
from repro.bench.workload import counter_states, large_state

__all__ = [
    "assert_replicas_converged",
    "build_community",
    "found_dict_object",
    "protocol_message_count",
    "run_state_workload",
    "LatencyRecorder",
    "MessageCounter",
    "counter_states",
    "large_state",
]
