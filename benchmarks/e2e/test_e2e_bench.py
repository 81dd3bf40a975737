"""Self-test of the end-to-end benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload once in ``--smoke`` size, both passes, and checks the
runner against ``BENCHMARK.json`` and the tracer against its own claims.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_spec_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _smoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "11",
                           "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"),
                                             (1, "per_layer")])
def test_every_declared_metric_is_emitted_and_no_other(workload, trace,
                                                       declared):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC[declared]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} \
        == units
    values = {name: value["value"] for name, value in result["metrics"].items()}
    if trace == 0:
        assert all(value > 0 for value in values.values())
    else:
        assert values["transport.retransmits_per_update"] == 0
        assert values["transport.duplicates_per_update"] == 0
        assert 0 < values["bench.trace_coverage"] <= 1


def test_tracer_wraps_and_fully_restores():
    import repro.crypto.hashing
    import repro.crypto.signature
    import repro.storage.backends
    import repro.util.encoding

    original = repro.util.encoding.canonical_bytes
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = list(tracer.patched)
        assert len(patched) > len(tracing.TARGETS)  # rebinds + subclasses
        for owner, attr, was in patched:
            assert vars(owner)[attr] is not was
        # A module that imported the function by name is rebound too, and
        # an abstract method is wrapped where it is implemented.
        assert repro.crypto.hashing.canonical_bytes is not original
        owners = {owner for owner, _, _ in patched}
        assert repro.crypto.signature.RsaSigner in owners
        assert repro.storage.backends.FileRecordStore in owners
    finally:
        tracer.restore()
    assert not tracer.patched
    for owner, attr, was in patched:
        assert vars(owner)[attr] is was
    assert repro.crypto.hashing.canonical_bytes is original


def test_span_self_times_add_up():
    workload = workloads.WORKLOADS["serial-3p"]
    deployment = workloads.Deployment(workload)
    tracer = tracing.Tracer()
    generator = workloads.Generator(
        deployment, workloads.op_stream(11, workload), tracer)
    try:
        generator.phase(updates=3)
        with tracer:
            cpu0 = time.process_time()
            traced = generator.phase(updates=5)
            cpu = time.process_time() - cpu0
        assert not deployment.check(generator.model)
    finally:
        deployment.close()
    assert len(traced.settled) == 5
    spans = tracer.spans
    assert {span[tracing.UPDATE] for span in spans} == set(range(5))
    rows = tracing.ledger(spans, tracer.infos)
    assert all(row["self_cpu_ns"] >= 0 and row["self_wall_ns"] >= 0
               for row in rows.values())
    assert sum(row["self_cpu_ns"] for row in rows.values()) <= cpu * 1e9
    # 3(n-1) protocol messages per run, each acknowledged once.
    assert rows["transport.send"]["calls"] == 5 * 2 * 3 * (workload.parties - 1)
    assert rows["crypto.sign"]["calls"] % 5 == 0
    assert rows["util.encoding"]["info"] > 0


def test_null_update_is_counted_as_failed_not_raised():
    workload = workloads.WORKLOADS["serial-3p"]
    deployment = workloads.Deployment(workload)
    same = {"k00": "written twice"}
    ops = [("write", "doc0", same), ("write", "doc0", dict(same)),
           ("write", "doc0", {"k01": "and the stream goes on"})]
    generator = workloads.Generator(deployment, ops)
    try:
        phase = generator.phase(updates=3)
    finally:
        deployment.close()
    assert phase.attempted == 3 and phase.failed == 1
    assert [write.ok for write in phase.writes] == [True, False, True]
    assert generator.model["doc0"]["k01"] == "and the stream goes on"
