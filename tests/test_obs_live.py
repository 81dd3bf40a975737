"""The live telemetry plane: exporter, health watchdogs, flight recorder."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core import DictB2BObject
from repro.obs.hooks import Instrumentation
from repro.obs.live import (
    DEGRADED,
    HEALTHY,
    UNHEALTHY,
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
from repro.obs.trace import Tracer, read_jsonl
from tests.test_composite import sim_community


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


def ring_tracer(capacity: int, clock=None):
    """A tracer exporting only to a new ring: ``(tracer, ring)``."""
    ring = FlightRecorder(capacity=capacity)
    tracer = Tracer(exporters=[ring],
                    wall_clock=clock.now if clock is not None else None)
    return tracer, ring


class TestFlightRecorder:
    def test_ring_is_bounded_and_oldest_first(self):
        tracer, flight = ring_tracer(4)
        for index in range(10):
            tracer.event("tick", index=index)
        events = flight.events()
        assert len(events) == 4
        assert flight.recorded == 10
        assert [event["index"] for event in events] == [6, 7, 8, 9]

    def test_dump_is_jsonl(self, tmp_path):
        tracer, flight = ring_tracer(8)
        tracer.event("a", x=1)
        tracer.span_end("b", 0.5, party="A", y="two")
        path = tmp_path / "flight.jsonl"
        count = flight.dump(str(path))
        assert count == 2
        lines = path.read_text().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["name"] == "a" and parsed[0]["x"] == 1
        assert parsed[1]["name"] == "b" and parsed[1]["y"] == "two"
        assert parsed[1]["kind"] == "span" and parsed[1]["seconds"] == 0.5
        # A dump is a trace file: it reads back as the records themselves.
        assert read_jsonl(str(path)) == flight.events()

    def test_clock_stamps_events(self):
        clock = ManualClock(41.0)
        tracer, flight = ring_tracer(2, clock)
        tracer.event("a")
        clock.advance(1.0)
        tracer.event("b")
        times = [event["at"] for event in flight.events()]
        assert times == [41.0, 42.0]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_recording_instrumentation_feeds_ring(self):
        obs = RecordingInstrumentation()
        ring = FlightRecorder(capacity=16)
        obs.tracer.add_exporter(ring)
        obs.run_started("A", "obj", "r1", "proposer", "sync")
        obs.protocol_message("A", "obj", "r1", "m1", "sent", 128, "B",
                             "t" * 32, "s" * 16, "", 1)
        obs.gateway_rejected("A", "obj", "c", "overloaded", 0.05)
        obs.ack_received("A", "msg-1")  # no trace record, so not in the ring
        names = [event["name"] for event in ring.events()]
        assert names == ["run.started", "protocol.message",
                         "gateway.rejected"]

    def test_no_flight_means_no_ring_work(self):
        # The default wiring needs no recorder, and with no exporter the
        # tracer builds no record at all.
        obs = RecordingInstrumentation()
        assert not hasattr(obs, "flight") and obs.tracer.exporters == []
        obs.run_started("A", "obj", "r1", "proposer", "sync")
        obs.gateway_rejected("A", "obj", "c", "overloaded", 0.05)
        assert obs.tracer.event("probe") is None


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
        rules = [GaugeLevelRule("saturation", "pipeline.depth",
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

        registry.gauge("pipeline.depth").set(1)
        clock.advance(1.0)
        alerts = monitor.evaluate_once()
        assert [alert.rule for alert in alerts] == ["saturation"]
        assert monitor.health == DEGRADED
        assert capture.alerts == [("OrgA", "saturation", DEGRADED, 1.0, 0.0)]
        assert capture.changes == [("OrgA", HEALTHY, DEGRADED)]

        # The level keeps rising: the rule stays red but the episode is
        # already open, so no second alert.
        registry.gauge("pipeline.depth").set(2)
        clock.advance(1.0)
        assert monitor.evaluate_once() == []
        assert monitor.health == DEGRADED

        # A drained queue closes the episode and health recovers.
        registry.gauge("pipeline.depth").set(0)
        clock.advance(1.0)
        assert monitor.evaluate_once() == []
        assert monitor.health == HEALTHY
        assert capture.changes[-1] == ("OrgA", DEGRADED, HEALTHY)
        assert [(old, new) for _, old, new in monitor.transitions] == [
            (HEALTHY, DEGRADED), (DEGRADED, HEALTHY)]

        # A fresh backlog opens a new episode: a second alert is emitted.
        registry.gauge("pipeline.depth").set(1)
        clock.advance(1.0)
        assert [a.rule for a in monitor.evaluate_once()] == ["saturation"]

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
        tracer, flight = ring_tracer(8, clock)
        tracer.event("protocol.message", phase="m1")
        dump = tmp_path / "dump.jsonl"
        monitor, _ = self._monitor(registry, clock, flight=flight,
                                   dump_path=str(dump))
        registry.gauge("pipeline.depth").set(1)
        clock.advance(1.0)
        monitor.evaluate_once()
        lines = dump.read_text().splitlines()
        assert json.loads(lines[0])["name"] == "protocol.message"

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
        capture = _AlertCapture()
        rules = [GaugeLevelRule("saturation", "pipeline.depth",
                                0.0, severity=DEGRADED)]
        monitor = HealthMonitor(registry, rules=rules, obs=capture,
                                party="OrgA", interval=0.01)
        registry.gauge("pipeline.depth").set(1)
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
        registry.counter("zeta.closed->open").inc()
        text = render_prometheus(registry.snapshot())
        assert "repro_zeta_closed__open_total 1" in text

    def test_health_gauge(self):
        text = render_prometheus({}, {"health": "degraded",
                                      "firing": ["pipeline_saturation"]})
        assert "repro_node_health 1" in text
        assert ('repro_health_rule_firing{rule="pipeline_saturation"} 1'
                in text)

    def test_empty_snapshot_renders(self):
        assert render_prometheus({}) == "\n"


class TestTelemetryServer:
    @pytest.fixture()
    def server(self):
        registry = MetricsRegistry()
        registry.counter("protocol.runs.started").inc(2)
        tracer, flight = ring_tracer(8)
        tracer.event("protocol.message", phase="m1")
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
        assert json.loads(body.splitlines()[0])["name"] == "protocol.message"

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
    def test_crash_fires_stall_alert_and_recovers(self, tmp_path):
        from repro.gateway import (
            CrashInjection,
            LoadSimConfig,
            build_gateway_community,
            run_crash_scenario,
        )

        dump = tmp_path / "flight.jsonl"
        watchdog = 0.5
        crash = CrashInjection(org="Org2", crash_at=1.0, recover_at=4.0)
        community, gateway, object_name = build_gateway_community(
            orgs=2, seed=7, obs=RecordingInstrumentation(),
            queue_capacity=256, pipeline_options={"max_batch": 64})
        stats, live = run_crash_scenario(
            community, gateway, object_name,
            config=LoadSimConfig(clients=60, requests_per_client=2,
                                 arrival_window=3.0, seed=7),
            crash=crash, watchdog_interval=watchdog, dump_path=str(dump))

        # The watchdog alerted while the victim was down, with no
        # post-processing: the alert is already in the monitor.
        monitor = live.monitor
        alerts = [a for a in monitor.alerts if a.rule == "stalled_runs"]
        assert alerts, "no stall HealthAlert fired"
        assert crash.crash_at < alerts[0].time < crash.recover_at
        assert alerts[0].severity == UNHEALTHY

        # Node health went healthy -> unhealthy during the outage and
        # ended healthy again.
        moved_at, old, new = monitor.transitions[0]
        assert (old, new) == (HEALTHY, UNHEALTHY)
        assert moved_at < crash.recover_at
        assert monitor.transitions[-1][2] == HEALTHY
        assert live.node.health() == HEALTHY

        # The flight dump was written on alert and holds the m1/m2/m3
        # protocol traffic that preceded the crash.
        events = [json.loads(line)
                  for line in dump.read_text().splitlines()]
        phases = {event["phase"] for event in events
                  if event["name"] == "protocol.message"
                  and event["at"] <= crash.crash_at}
        assert {"m1", "m2", "m3"} <= phases

        # Every write settled, exactly once, after the victim recovered.
        state = community.node("Org1").controllers[object_name] \
            .b2b_object.get_state()
        assert stats.settled_valid == state["applied"] == 120
        assert stats.gave_up == 0

        # Satellite: rejections are labelled by reason and retry-after
        # hints land in the histogram.
        snapshot = live.registry.snapshot()
        rejected = gateway.stats()["rejected"]
        assert set(rejected) == {"rate_limited", "overloaded"}
        if sum(rejected.values()):
            assert snapshot["histograms"][
                "gateway.retry_after_seconds"]["count"] > 0
        community.close()


# ---------------------------------------------------------------------------
# snapshot-based report rendering (satellite)
# ---------------------------------------------------------------------------


class TestReportRendering:
    def test_empty_snapshot_renders_without_errors(self):
        assert render_snapshot({}) == ""
        assert render_snapshot(MetricsRegistry().snapshot()) == ""

    def test_partial_gateway_section(self):
        # A gateway that only ever rejected: no settle histogram, no
        # queue gauge — its section is the counters it has.
        snapshot = {"counters": {"gateway.rejected": 3,
                                 "gateway.rejected.overloaded": 3}}
        text = render_snapshot(snapshot)
        assert text.splitlines() == [
            "== gateway ==",
            "instrument                   value",
            "---------------------------  -----",
            "gateway.rejected             3",
            "gateway.rejected.overloaded  3",
        ]

    def test_gateway_retry_after_percentiles(self):
        obs = RecordingInstrumentation()
        obs.gateway_rejected("A", "obj", "c", "rate_limited", 0.25)
        obs.gateway_admitted("A", "obj", "c")
        obs.pipeline_depth("A", "obj", 4)
        obs.pipeline_depth("A", "obj", 1)
        rows = {line.split()[0]: line.split()[1:]
                for line in render_snapshot(
                    obs.registry.snapshot()).splitlines()
                if line.startswith(("gateway.", "pipeline."))}
        assert rows["gateway.rejected.rate_limited"] == ["1"]
        # A histogram: count, then p50/p95/p99 in its own unit (seconds).
        assert rows["gateway.retry_after_seconds"] == ["1", "0.25", "0.25",
                                                      "0.25"]
        # A gauge: value, then its high-water mark.
        assert rows["pipeline.depth"] == ["1", "4"]

    def test_partial_run_section(self):
        snapshot = {"counters": {"protocol.runs.started": 2},
                    "histograms": {"protocol.run_seconds": {"count": 2}}}
        text = render_snapshot(snapshot)
        assert text.startswith("== protocol ==\n")
        assert "protocol.runs.started  2" in text
        assert "protocol.run_seconds   2      0    0    0" in text

    def test_sections_follow_the_catalogue(self):
        snapshot = {"counters": {"storage.syncs": 1, "zeta.custom": 1,
                                 "crypto.sign.count": 2,
                                 "protocol.runs.valid": 1},
                    "gauges": {"transport.queue_depth": {"value": 0.0,
                                                         "high_water": 3.0}}}
        headers = [line for line in render_snapshot(snapshot).splitlines()
                   if line.startswith("== ")]
        # Catalogue order (protocol, transport, crypto, storage); a prefix
        # the catalogue never produces comes last.
        assert headers == ["== protocol ==", "== transport ==",
                           "== crypto ==", "== storage ==", "== zeta =="]


class TestFlightClockBinding:
    def test_preattached_recorder_uses_virtual_time(self):
        # The CLI attaches a ring to the tracer before the community (and
        # its clock) exists; the community must bind its clock so sim
        # runs never stamp wall-clock times into the ring.
        flight = FlightRecorder(capacity=256)
        obs = RecordingInstrumentation()
        obs.tracer.add_exporter(flight)
        community = sim_community(2, seed=31, obs=obs)
        names = community.names()
        community.found_object(
            "obj", {name: DictB2BObject() for name in names})
        community.node("Org1").submit_update("obj", {"k": 1})
        community.settle()
        events = flight.events()
        assert events, "protocol activity must reach the flight ring"
        stamps = [event["at"] for event in events]
        # Virtual timestamps: small and monotone, never ~1.7e9 wall time.
        assert all(stamp < 1e6 for stamp in stamps), stamps[:5]
        assert stamps == sorted(stamps)

    def test_bind_clock_does_not_replace_existing(self):
        class FixedClock:
            def now(self) -> float:
                return 42.0

        class OtherClock:
            def now(self) -> float:
                return 7.0

        tracer, flight = ring_tracer(4, FixedClock())
        tracer.bind_clock(OtherClock())
        tracer.event("probe")
        # A clock bound late is kept against later bindings too.
        late = Tracer(exporters=[flight])
        late.bind_clock(FixedClock())
        late.bind_clock(OtherClock())
        late.event("probe")
        assert [event["at"] for event in flight.events()] == [42.0, 42.0]

    def test_node_live_reuses_preattached_recorder(self):
        flight = FlightRecorder(capacity=64)
        obs = RecordingInstrumentation()
        obs.tracer.add_exporter(flight)
        community = sim_community(2, seed=32, obs=obs)
        live = community.node("Org1").live()
        assert live.flight is flight
        assert obs.tracer.exporters == [flight]


class TestHandlerErrorAccounting:
    def test_reactor_counts_command_and_timer_errors(self):
        from repro.transport.tcp import TcpNetwork

        obs = RecordingInstrumentation()
        network = TcpNetwork(obs=obs)
        try:
            reactor = network._reactor
            fired = threading.Event()

            def boom():
                fired.set()
                raise RuntimeError("bug")

            reactor._post(boom)
            reactor.schedule(0.0, boom)
            for _ in range(40):
                counters = obs.registry.snapshot()["counters"]
                if (counters.get("transport.tcp.handler_errors.command")
                        and counters.get(
                            "transport.tcp.handler_errors.timer")):
                    break
                threading.Event().wait(0.05)
            counters = obs.registry.snapshot()["counters"]
            assert counters.get("transport.tcp.handler_errors.command") == 1
            assert counters.get("transport.tcp.handler_errors.timer") == 1
            assert counters.get("transport.tcp.handler_errors") == 2
        finally:
            network.close()

    def test_handler_errors_reach_flight_ring_and_report(self):
        flight = FlightRecorder(capacity=16)
        obs = RecordingInstrumentation()
        obs.tracer.add_exporter(flight)
        obs.handler_error("OrgX", "dispatch")
        names = [event["name"] for event in flight.events()]
        assert "transport.handler_error" in names
        report = render_snapshot(obs.registry.snapshot())
        assert "transport.tcp.handler_errors.dispatch  1" in report
