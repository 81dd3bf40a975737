"""Catalogue closure: nothing recorded is uncatalogued, nothing
catalogued is unemitted, and nothing read is unproducible.

(a) One instrumented community is driven through pipeline batches over
    four objects, a gateway session with a rejection and a replay, cached
    reads, a lossy link and an arbiter ruling; every instrument name in
    the registry, every trace record name and every flight kind it
    leaves must match a :mod:`repro.obs.catalogue` entry.
(b) Every catalogue entry has a call site under ``src/repro`` outside
    ``obs/`` (``health_*`` fire from ``obs/live/health.py``), passing
    exactly the entry's positional parameters.
(c) Every metric name ``obs/live/health.py`` reads by literal is one the
    catalogue can produce, and the text report shows every instrument
    the workload recorded.
"""

from __future__ import annotations

import ast
import os
import re

import pytest

import repro
from repro.core import Community, DictB2BObject, SimRuntime
from repro.core.readcache import bounded
from repro.errors import RateLimitedError
from repro.obs.recording import RecordingInstrumentation
from repro.obs.catalogue import CATALOGUE
from repro.obs.live import FlightRecorder
from repro.obs.report import SECTIONS, render_snapshot
from repro.protocol.dispute import Arbiter
from repro.transport.inmemory import LinkProfile

SRC = os.path.dirname(repro.__file__)
KINDS = {"counters": "counter", "gauges": "gauge", "histograms": "histogram"}
METRIC_NAME = r"[a-z]+(\.[a-z_0-9>-]+)+"


def _regex(template: str) -> str:
    """The names a metric template can produce, as a regex."""
    pattern = re.escape(template)
    pattern = re.sub(r"\\\{\w+:(\w+)\\\|(\w+)\\\}", r"(?:\1|\2)", pattern)
    return re.sub(r"\\\{\w+\\\}", "[^.]+", pattern)


def producible(name: str, kind: "str | None" = None) -> bool:
    return any(re.fullmatch(_regex(metric.name), name)
               for event in CATALOGUE for metric in event.metrics
               if kind in (None, metric.kind))


def test_templates_match_what_they_format():
    for event in CATALOGUE:
        values = dict.fromkeys(event.params, "x")
        for metric in event.metrics:
            assert producible(metric.name_for(values), metric.kind)
    assert not producible("readcache.maybe")


def test_interface_is_exactly_the_catalogue():
    from repro.obs import NULL_INSTRUMENTATION

    assert len({event.hook for event in CATALOGUE}) == len(CATALOGUE) == 48
    for obs in (NULL_INSTRUMENTATION, RecordingInstrumentation()):
        for event in CATALOGUE:
            assert callable(getattr(obs, event.hook))
        with pytest.raises(AttributeError):
            obs.no_such_hook
    with pytest.raises(TypeError, match="ack_received"):
        RecordingInstrumentation().ack_received("Org1")


def test_instruments_appear_only_once_selected():
    obs = RecordingInstrumentation()
    assert obs.registry.snapshot()["counters"] == {}
    obs.verify_timing("rsa-sha256", 10, 0.001, True)
    obs.pipeline_busy_retry("Org1", "doc", 1)
    assert set(obs.registry.snapshot()["counters"]) == {
        "crypto.verify.count", "pipeline.busy_retries"}
    obs.verify_timing("rsa-sha256", 10, 0.001, False)
    assert obs.registry.counter_value("crypto.verify.failures") == 1
    assert obs.registry.counter_value("crypto.verify.count") == 2


@pytest.fixture(scope="module")
def recorded():
    obs = RecordingInstrumentation(collect=True,
                                   flight=FlightRecorder(capacity=1 << 16))
    lossy = LinkProfile(latency=0.005, drop_probability=0.15,
                        duplicate_probability=0.1)
    names = ["Org1", "Org2", "Org3"]
    community = Community(names, runtime=SimRuntime(seed=15, profile=lossy),
                          obs=obs)
    objects = [f"obj-{i}" for i in range(4)]
    for object_name in objects:
        community.found_object(
            object_name, {name: DictB2BObject() for name in names})
    node = community.node("Org1")
    # Pipelined bursts: several updates per object ride batched runs.
    for object_name in objects:
        for index in range(4):
            node.submit_update(object_name, {f"k{index}": index})
    community.settle()
    # Gateway: a settled write, its idempotent replay, a rate rejection.
    gateway = node.gateway(rate=0.5, burst=2.0)
    session = gateway.session("alice")
    ticket = session.submit("obj-0", {"via": "gateway"})
    assert gateway.wait(ticket, 60.0) and ticket.valid
    assert session.retry(ticket).replayed
    session.submit("obj-1", {"via": "gateway"})
    with pytest.raises(RateLimitedError):
        session.submit("obj-2", {"via": "gateway"})
    community.settle()
    # Reads: a refresh, then hits on the published snapshot.
    assert not node.examine("obj-0", "settled").hit
    assert node.examine("obj-0", "cached").hit
    assert node.examine("obj-0", bounded(5.0)).hit
    # Dispute: every party submits its log, the arbiter rules on a run.
    arbiter = Arbiter(community.resolver, tsa_verifier=community.tsa.verifier,
                      obs=obs)
    for name in names:
        arbiter.submit(name, community.node(name).ctx.evidence)
    assert arbiter.rule_on_state_validity(
        "obj-0", ticket.run_id, "Org1").outcome == "upheld"
    community.close()
    return obs


def test_everything_recorded_is_catalogued(recorded):
    snapshot = recorded.registry.snapshot()
    for section, kind in KINDS.items():
        assert snapshot[section], section
        for name in snapshot[section]:
            assert producible(name, kind), f"uncatalogued {kind} {name}"
    traces = {record.name for record in recorded.collector.records}
    assert traces <= {event.trace for event in CATALOGUE}
    flights = {entry["kind"] for entry in recorded.flight.events()}
    assert flights <= {event.flight for event in CATALOGUE}
    # The workload really went where the docstring says it did.
    counters = snapshot["counters"]
    for name in ("pipeline.batches", "gateway.rejected.rate_limited",
                 "gateway.replays", "readcache.hits", "readcache.misses",
                 "transport.retransmissions",
                 "transport.duplicates_suppressed",
                 "dispute.rulings.upheld"):
        assert counters.get(name, 0) > 0, name
    assert {"run.settled", "dispute.ruling", "causal.message"} <= traces
    assert {"gateway_rejected", "gateway_replayed", "validation",
            "snapshot_published", "retransmission"} <= flights


def _python_sources():
    for directory, _dirs, files in os.walk(SRC):
        for filename in files:
            if filename.endswith(".py"):
                yield os.path.join(directory, filename)


def test_every_event_has_an_emitter_with_its_arity():
    arity = {event.hook: len(event.params) for event in CATALOGUE}
    sites = dict.fromkeys(arity, 0)
    obs_dir = os.path.join(SRC, "obs") + os.sep
    for path in _python_sources():
        if path.startswith(obs_dir) and not path.endswith("health.py"):
            continue
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in arity
                    and "obs" in ast.unparse(node.func.value)):
                where = f"{path}:{node.lineno}"
                assert not node.keywords, f"{where}: hooks are positional"
                assert len(node.args) == arity[node.func.attr], where
                sites[node.func.attr] += 1
    assert [hook for hook, count in sites.items() if not count] == []


def _call_literals(filename: str, callees: "dict[str, str | None]"):
    """(name, kind) for literal metric names passed to *callees*."""
    with open(os.path.join(SRC, "obs", filename), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = getattr(node.func, "attr", getattr(node.func, "id", ""))
        if callee in callees:
            for arg in node.args:
                if (isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                        and re.fullmatch(METRIC_NAME, arg.value)):
                    yield arg.value, callees[callee]


def test_every_metric_read_is_producible():
    health = list(_call_literals(os.path.join("live", "health.py"), {
        "counter": "counter", "counter_delta": "counter",
        "CounterRateRule": "counter", "CounterDeltaRule": "counter",
        "GaugeLevelRule": "gauge", "QuantileBudgetRule": "histogram"}))
    assert len(health) >= 10
    for name, kind in health:
        assert producible(name, kind), f"{kind} {name} is never recorded"


def test_report_shows_everything_recorded(recorded):
    snapshot = recorded.registry.snapshot()
    text = render_snapshot(snapshot)
    rows = {line.split()[0] for line in text.splitlines()
            if line and not line.startswith(("==", "-", "instrument"))}
    for section in KINDS:
        missing = set(snapshot[section]) - rows
        assert not missing, f"{section} never printed: {sorted(missing)}"
    headers = [line[3:-3] for line in text.splitlines()
               if line.startswith("== ")]
    assert headers == [prefix for prefix in SECTIONS if prefix in headers]
    assert {"dispute", "crypto", "gateway", "readcache"} <= set(headers)
    # Derived, not listed: the renderer names no metric itself.
    with open(os.path.join(SRC, "obs", "report.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    assert not [node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                and re.fullmatch(METRIC_NAME, node.value)]
