"""The live telemetry plane: exporter, health watchdogs, flight recorder."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs.hooks import Instrumentation
from repro.obs.live import (
    DEGRADED,
    HEALTHY,
    UNHEALTHY,
    CounterDeltaRule,
    CounterRateRule,
    FlightRecorder,
    GaugeLevelRule,
    HealthMonitor,
    QuantileBudgetRule,
    RuleView,
    StalledRunsRule,
    TelemetryServer,
    default_rules,
    render_prometheus,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recording import RecordingInstrumentation
from repro.obs.report import render_snapshot


class ManualClock:
    def __init__(self, start: float = 0.0) -> None:
        self.t = start

    def now(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded_and_seq_monotonic(self):
        flight = FlightRecorder(capacity=4)
        for index in range(10):
            flight.record("tick", index=index)
        events = flight.events()
        assert len(events) == 4
        assert flight.recorded == 10
        assert [event["index"] for event in events] == [6, 7, 8, 9]
        assert [event["seq"] for event in events] == [7, 8, 9, 10]

    def test_dump_is_jsonl(self, tmp_path):
        flight = FlightRecorder(capacity=8)
        flight.record("a", x=1)
        flight.record("b", y="two")
        path = tmp_path / "flight.jsonl"
        count = flight.dump(str(path))
        assert count == 2
        lines = path.read_text().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["kind"] == "a" and parsed[0]["x"] == 1
        assert parsed[1]["kind"] == "b" and parsed[1]["y"] == "two"

    def test_clock_stamps_events(self):
        clock = ManualClock(41.0)
        flight = FlightRecorder(capacity=2, clock=clock)
        flight.record("a")
        clock.advance(1.0)
        flight.record("b")
        times = [event["t"] for event in flight.events()]
        assert times == [41.0, 42.0]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_recording_instrumentation_feeds_ring(self):
        obs = RecordingInstrumentation()
        obs.flight = FlightRecorder(capacity=16)
        obs.run_started("A", "obj", "r1", "proposer", "sync")
        obs.protocol_message("A", "obj", "r1", "m1", "sent", 128)
        obs.breaker_transition("A", "obj", "closed", "open")
        kinds = [event["kind"] for event in obs.flight.events()]
        assert kinds == ["run_started", "protocol_message",
                        "breaker_transition"]

    def test_no_flight_means_no_ring_work(self):
        # The default wiring must not require a recorder.
        obs = RecordingInstrumentation()
        assert obs.flight is None
        obs.run_started("A", "obj", "r1", "proposer", "sync")
        obs.gateway_rejected("A", "obj", "c", "overloaded", 0.05)


# ---------------------------------------------------------------------------
# torn-snapshot regression (satellite)
# ---------------------------------------------------------------------------


class TestSnapshotConsistency:
    def test_concurrent_observe_and_snapshot(self):
        """A histogram snapshot must never mix fields from different
        moments: with every observation equal to 2.0, any internally
        consistent snapshot has sum == 2 * count exactly."""
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        stop = threading.Event()
        errors: "list[str]" = []

        def writer():
            while not stop.is_set():
                histogram.observe(2.0)

        def reader():
            for _ in range(400):
                snap = registry.snapshot()["histograms"].get("h")
                if snap is None:
                    continue
                if snap["sum"] != 2.0 * snap["count"]:
                    errors.append(
                        f"torn: count={snap['count']} sum={snap['sum']}")
                if snap["count"] and not (snap["min"] <= snap["p50"]
                                          <= snap["max"]):
                    errors.append("quantile outside min/max")

        threads = [threading.Thread(target=writer) for _ in range(3)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        stop.set()  # writers stop after readers spun up; some overlap ran
        for thread in threads:
            thread.join()
        assert not errors, errors[:3]

    def test_concurrent_instrument_creation_during_snapshot(self):
        registry = MetricsRegistry()

        def creator():
            for index in range(300):
                registry.counter(f"c{index}").inc()
                registry.histogram(f"h{index}").observe(1.0)

        thread = threading.Thread(target=creator)
        thread.start()
        try:
            for _ in range(50):
                snapshot = registry.snapshot()
                assert isinstance(snapshot["counters"], dict)
        finally:
            thread.join()
        final = registry.snapshot()
        assert final["counters"]["c299"] == 1

    def test_gauge_snapshot_single_acquisition(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5)
        gauge.set(3)
        assert gauge.snapshot() == {"value": 3.0, "high_water": 5.0}


# ---------------------------------------------------------------------------
# health rules
# ---------------------------------------------------------------------------


def _view(current=None, previous=None, elapsed=1.0, now=10.0):
    return RuleView(current or {}, previous or {}, elapsed, now)


class TestHealthRules:
    def test_counter_rate_rule(self):
        rule = CounterRateRule("storm", "retrans", 10.0)
        view = _view({"counters": {"retrans": 100}},
                     {"counters": {"retrans": 50}}, elapsed=2.0)
        assert rule.evaluate(view) == pytest.approx(25.0)
        calm = _view({"counters": {"retrans": 55}},
                     {"counters": {"retrans": 50}}, elapsed=2.0)
        assert rule.evaluate(calm) is None

    def test_counter_delta_rule_fires_on_any_growth(self):
        rule = CounterDeltaRule("flap", "transitions", 0.0)
        assert rule.evaluate(_view({"counters": {"transitions": 1}},
                                   {"counters": {}})) == 1.0
        assert rule.evaluate(_view({"counters": {"transitions": 1}},
                                   {"counters": {"transitions": 1}})) is None

    def test_gauge_level_rule(self):
        rule = GaugeLevelRule("sat", "depth", 8.0)
        hot = _view({"gauges": {"depth": {"value": 9.0, "high_water": 9.0}}})
        assert rule.evaluate(hot) == 9.0
        assert rule.evaluate(_view()) is None

    def test_quantile_budget_rule_needs_min_count(self):
        rule = QuantileBudgetRule("slow", "settle", 1.0, min_count=10)
        few = _view({"histograms": {"settle": {"count": 3, "p99": 9.0}}})
        assert rule.evaluate(few) is None
        many = _view({"histograms": {"settle": {"count": 50, "p99": 9.0}}})
        assert rule.evaluate(many) == 9.0

    def test_stalled_runs_rule_strikes(self):
        rule = StalledRunsRule(strikes=2)
        stalled = {"counters": {"protocol.runs.started": 5,
                                "protocol.runs.valid": 3}}
        assert rule.evaluate(_view(stalled, stalled)) is None  # strike 1
        assert rule.evaluate(_view(stalled, stalled)) == 2.0   # strike 2
        progressing = {"counters": {"protocol.runs.started": 6,
                                    "protocol.runs.valid": 4}}
        assert rule.evaluate(_view(progressing, stalled)) is None
        assert rule.severity == UNHEALTHY

    def test_rules_tolerate_empty_registry(self):
        view = _view()
        for rule in default_rules():
            assert rule.evaluate(view) is None

    def test_severity_validated(self):
        with pytest.raises(ValueError):
            CounterRateRule("x", "c", 1.0, severity="fine")


class _AlertCapture(Instrumentation):
    def __init__(self) -> None:
        self.alerts: "list[tuple]" = []
        self.changes: "list[tuple]" = []

    def health_alert(self, party, rule, severity, message, value, threshold):
        self.alerts.append((party, rule, severity, value, threshold))

    def health_changed(self, party, old_state, new_state):
        self.changes.append((party, old_state, new_state))


class TestHealthMonitor:
    def _monitor(self, registry, clock, **kwargs):
        capture = _AlertCapture()
        rules = [CounterDeltaRule("flap", "gateway.breaker.transitions",
                                  0.0, severity=DEGRADED)]
        monitor = HealthMonitor(registry, rules=rules, obs=capture,
                                party="OrgA", clock=clock.now, **kwargs)
        return monitor, capture

    def test_alert_once_per_episode_and_health_transitions(self):
        clock = ManualClock()
        registry = MetricsRegistry()
        monitor, capture = self._monitor(registry, clock)
        clock.advance(1.0)
        assert monitor.evaluate_once() == []
        assert monitor.health == HEALTHY

        registry.counter("gateway.breaker.transitions").inc()
        clock.advance(1.0)
        alerts = monitor.evaluate_once()
        assert [alert.rule for alert in alerts] == ["flap"]
        assert monitor.health == DEGRADED
        assert capture.alerts == [("OrgA", "flap", DEGRADED, 1.0, 0.0)]
        assert capture.changes == [("OrgA", HEALTHY, DEGRADED)]

        # Counter keeps growing: the rule stays red but the episode is
        # already open, so no second alert.
        registry.counter("gateway.breaker.transitions").inc()
        clock.advance(1.0)
        assert monitor.evaluate_once() == []
        assert monitor.health == DEGRADED

        # Quiet interval closes the episode and health recovers.
        clock.advance(1.0)
        assert monitor.evaluate_once() == []
        assert monitor.health == HEALTHY
        assert capture.changes[-1] == ("OrgA", DEGRADED, HEALTHY)
        assert [(old, new) for _, old, new in monitor.transitions] == [
            (HEALTHY, DEGRADED), (DEGRADED, HEALTHY)]

        # A fresh trip opens a new episode: a second alert is emitted.
        registry.counter("gateway.breaker.transitions").inc()
        clock.advance(1.0)
        assert [a.rule for a in monitor.evaluate_once()] == ["flap"]

    def test_worst_severity_wins(self):
        clock = ManualClock()
        registry = MetricsRegistry()
        rules = [
            GaugeLevelRule("queue", "depth", 1.0, severity=DEGRADED),
            GaugeLevelRule("deep", "depth", 5.0, severity=UNHEALTHY),
        ]
        monitor = HealthMonitor(registry, rules=rules, clock=clock.now)
        registry.gauge("depth").set(10)
        clock.advance(1.0)
        monitor.evaluate_once()
        assert monitor.health == UNHEALTHY
        assert monitor.firing() == {"queue", "deep"}

    def test_dump_on_alert(self, tmp_path):
        clock = ManualClock()
        registry = MetricsRegistry()
        flight = FlightRecorder(capacity=8, clock=clock)
        flight.record("protocol_message", phase="m1")
        dump = tmp_path / "dump.jsonl"
        monitor, _ = self._monitor(registry, clock, flight=flight,
                                   dump_path=str(dump))
        registry.counter("gateway.breaker.transitions").inc()
        clock.advance(1.0)
        monitor.evaluate_once()
        lines = dump.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "protocol_message"

    def test_status_shape(self):
        clock = ManualClock()
        monitor, _ = self._monitor(MetricsRegistry(), clock)
        status = monitor.status()
        assert status["health"] == HEALTHY
        assert status["firing"] == []
        assert status["alerts"] == []
        assert status["transitions"] == []

    def test_watchdog_thread_evaluates(self):
        registry = MetricsRegistry()
        registry.counter("gateway.breaker.transitions").inc()
        capture = _AlertCapture()
        rules = [CounterDeltaRule("flap", "gateway.breaker.transitions",
                                  0.0, severity=DEGRADED)]
        # Baseline is taken at construction, so inc() again afterwards.
        monitor = HealthMonitor(registry, rules=rules, obs=capture,
                                party="OrgA", interval=0.01)
        registry.counter("gateway.breaker.transitions").inc()
        monitor.start()
        try:
            deadline = threading.Event()
            for _ in range(200):
                if capture.alerts:
                    break
                deadline.wait(0.01)
            assert capture.alerts, "watchdog thread never evaluated"
        finally:
            monitor.stop()


# ---------------------------------------------------------------------------
# exporter
# ---------------------------------------------------------------------------


class TestPrometheusRendering:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("protocol.m1.sent").inc(3)
        registry.gauge("pipeline.depth").set(4)
        registry.histogram("gateway.settle_seconds").observe(0.5)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE repro_protocol_m1_sent_total counter" in text
        assert "repro_protocol_m1_sent_total 3" in text
        assert "repro_pipeline_depth 4" in text
        assert "repro_pipeline_depth_high_water 4" in text
        assert 'repro_gateway_settle_seconds{quantile="0.99"}' in text
        assert "repro_gateway_settle_seconds_count 1" in text
        assert "repro_gateway_settle_seconds_sum 0.5" in text

    def test_name_sanitisation(self):
        registry = MetricsRegistry()
        registry.counter("gateway.breaker.closed->open").inc()
        text = render_prometheus(registry.snapshot())
        assert "repro_gateway_breaker_closed__open_total 1" in text

    def test_health_gauge(self):
        text = render_prometheus({}, {"health": "degraded",
                                      "firing": ["breaker_flap"]})
        assert "repro_node_health 1" in text
        assert 'repro_health_rule_firing{rule="breaker_flap"} 1' in text

    def test_empty_snapshot_renders(self):
        assert render_prometheus({}) == "\n"


class TestTelemetryServer:
    @pytest.fixture()
    def server(self):
        registry = MetricsRegistry()
        registry.counter("protocol.runs.started").inc(2)
        flight = FlightRecorder(capacity=8)
        flight.record("protocol_message", phase="m1")
        monitor = HealthMonitor(registry, rules=[])
        server = TelemetryServer(registry, monitor=monitor,
                                 flight=flight).start()
        yield server
        server.stop()

    def _get(self, url):
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read().decode("utf-8")

    def test_metrics_route(self, server):
        status, body = self._get(server.url + "/metrics")
        assert status == 200
        assert "repro_protocol_runs_started_total 2" in body

    def test_metrics_json_route(self, server):
        status, body = self._get(server.url + "/metrics.json")
        assert status == 200
        payload = json.loads(body)
        assert payload["metrics"]["counters"]["protocol.runs.started"] == 2
        assert payload["health"]["health"] == HEALTHY
        assert payload["flight"]["recorded"] == 1

    def test_health_route(self, server):
        status, body = self._get(server.url + "/health")
        assert status == 200
        assert json.loads(body) == {"health": "healthy"}

    def test_flight_route(self, server):
        status, body = self._get(server.url + "/flight")
        assert status == 200
        assert json.loads(body.splitlines()[0])["kind"] == "protocol_message"

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(server.url + "/nope")
        assert excinfo.value.code == 404

    def test_unhealthy_answers_503(self):
        registry = MetricsRegistry()
        rules = [GaugeLevelRule("deep", "depth", 1.0, severity=UNHEALTHY)]
        monitor = HealthMonitor(registry, rules=rules)
        registry.gauge("depth").set(5)
        monitor.evaluate_once()
        server = TelemetryServer(registry, monitor=monitor).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(server.url + "/health")
            assert excinfo.value.code == 503
        finally:
            server.stop()

    def test_flight_404_without_recorder(self):
        server = TelemetryServer(MetricsRegistry()).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(server.url + "/flight")
            assert excinfo.value.code == 404
        finally:
            server.stop()


# ---------------------------------------------------------------------------
# end-to-end: injected party crash, watched live (acceptance scenario)
# ---------------------------------------------------------------------------


class TestCrashScenario:
    def test_crash_trips_breaker_alert_and_recovers(self, tmp_path):
        from repro.gateway import (
            CRASH_BREAKER_OPTIONS,
            CrashInjection,
            LoadSimConfig,
            build_gateway_community,
            run_crash_scenario,
        )

        dump = tmp_path / "flight.jsonl"
        watchdog = 0.5
        community, gateway, object_name = build_gateway_community(
            orgs=2, seed=7, obs=RecordingInstrumentation(),
            queue_capacity=256,
            breaker=dict(CRASH_BREAKER_OPTIONS),
            pipeline_options={"max_batch": 64})
        stats, live = run_crash_scenario(
            community, gateway, object_name,
            config=LoadSimConfig(clients=60, requests_per_client=2,
                                 arrival_window=3.0, seed=7),
            crash=CrashInjection(org="Org2", crash_at=1.0, recover_at=4.0),
            watchdog_interval=watchdog, dump_path=str(dump))

        # The crash tripped the breaker...
        transitions = gateway.breaker(object_name).transitions
        assert transitions, "crash never tripped the breaker"
        trip_time = transitions[0][0]
        assert trip_time > 1.0

        # ...and the watchdog alerted within one interval of the trip,
        # with no post-processing: the alert is already in the monitor.
        monitor = live.monitor
        alerts = [a for a in monitor.alerts if a.rule == "breaker_flap"]
        assert alerts, "no breaker HealthAlert fired"
        assert alerts[0].time - trip_time <= watchdog + 1e-9
        assert alerts[0].severity == DEGRADED

        # Node health went healthy -> degraded and ended healthy again.
        moves = [(old, new) for _, old, new in monitor.transitions]
        assert moves[0] == (HEALTHY, DEGRADED)
        assert moves[-1][1] == HEALTHY
        assert live.node.health() == HEALTHY

        # The flight dump was written on alert and holds the m1/m2/m3
        # protocol traffic that preceded the trip.
        events = [json.loads(line)
                  for line in dump.read_text().splitlines()]
        phases = {event["phase"] for event in events
                  if event["kind"] == "protocol_message"
                  and event["t"] <= trip_time}
        assert {"m1", "m2", "m3"} <= phases
        assert any(event["kind"] == "breaker_transition"
                   for event in events)

        # The load still made it through once the victim recovered.
        assert stats.settled_valid > 0

        # Satellite: rejections are labelled by reason and retry-after
        # hints land in the histogram.
        snapshot = live.registry.snapshot()
        rejected = gateway.stats()["rejected"]
        assert set(rejected) == {"rate_limited", "overloaded",
                                 "circuit_open"}
        if sum(rejected.values()):
            assert snapshot["histograms"][
                "gateway.retry_after_seconds"]["count"] > 0


# ---------------------------------------------------------------------------
# snapshot-based report rendering (satellite)
# ---------------------------------------------------------------------------


class TestReportRendering:
    def test_empty_snapshot_renders_without_errors(self):
        text = render_snapshot({})
        assert "== protocol phases" in text
        assert "== signature operations" in text
        # Sections gated on activity stay silent on an empty registry.
        assert "== gateway ==" not in text
        assert "== coordination runs ==" not in text

    def test_empty_registry_via_render_report(self):
        from repro.obs.report import render_report

        assert "== storage ==" in render_report(MetricsRegistry())

    def test_partial_gateway_section(self):
        # A gateway that only ever rejected: no settle histogram, no
        # queue gauge — the section must still render with zeros.
        snapshot = {"counters": {"gateway.rejected": 3,
                                 "gateway.rejected.overloaded": 3}}
        text = render_snapshot(snapshot)
        assert "shed (overloaded)" in text
        assert "retry-after p99 s" in text

    def test_gateway_retry_after_percentiles(self):
        obs = RecordingInstrumentation()
        obs.gateway_rejected("A", "obj", "c", "rate_limited", 0.25)
        obs.gateway_admitted("A", "obj", "c")
        text = render_snapshot(obs.registry.snapshot())
        assert "rate limited" in text
        assert "retry-after p50 s" in text
        assert "0.25" in text

    def test_partial_run_section(self):
        snapshot = {"counters": {"protocol.runs.started": 2}}
        text = render_snapshot(snapshot)
        assert "runs started" in text
        assert "run time p95 (s)" in text

    def test_health_section(self):
        text = render_snapshot({}, health={"health": "degraded",
                                           "firing": ["breaker_flap"],
                                           "alerts": [{"rule": "x"}],
                                           "transitions": []})
        assert "== node health ==" in text
        assert "degraded" in text
        assert "breaker_flap" in text
