"""The repro.obs subsystem: metrics, tracing and the hook interface."""

from __future__ import annotations

import pytest

from repro.obs.hooks import NULL_INSTRUMENTATION, Instrumentation, approx_size
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    StreamingHistogram,
    exact_quantile,
    summarise,
)
from repro.obs.trace import (
    InMemoryCollector,
    JsonLinesExporter,
    Tracer,
    read_jsonl,
)


class TestExactQuantile:
    def test_empty_is_zero(self):
        assert exact_quantile([], 0.5) == 0.0

    def test_single_sample(self):
        assert exact_quantile([7.0], 0.5) == 7.0

    def test_even_count_median_interpolates(self):
        assert exact_quantile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)

    def test_odd_count_median_is_middle(self):
        assert exact_quantile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_fraction_clamped_to_bounds(self):
        samples = [1.0, 2.0, 3.0]
        assert exact_quantile(samples, -1.0) == 1.0
        assert exact_quantile(samples, 0.0) == 1.0
        assert exact_quantile(samples, 1.0) == 3.0
        assert exact_quantile(samples, 2.0) == 3.0

    def test_interpolation_between_ranks(self):
        # position 0.99 * 3 = 2.97 -> 3 + 0.97 * (4 - 3)
        assert exact_quantile([1.0, 2.0, 3.0, 4.0], 0.99) == pytest.approx(3.97)

    def test_summarise_keys(self):
        summary = summarise([1.0, 2.0])
        assert set(summary) == {"count", "mean", "min", "max",
                                "p50", "p95", "p99", "stddev"}
        assert summarise([])["count"] == 0


class TestInstruments:
    def test_counter(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_tracks_high_water(self):
        gauge = Gauge("g")
        gauge.set(3)
        gauge.set(1)
        assert gauge.value == 1.0
        assert gauge.high_water == 3.0

    def test_histogram_quantiles_within_relative_error(self):
        histogram = StreamingHistogram(growth=1.05)
        values = [0.001 * i for i in range(1, 1001)]
        histogram.observe_many(values)
        assert histogram.count == 1000
        for fraction in (0.5, 0.95, 0.99):
            exact = exact_quantile(values, fraction)
            estimate = histogram.quantile(fraction)
            assert estimate == pytest.approx(exact, rel=0.06)

    def test_histogram_clamps_to_observed_range(self):
        histogram = StreamingHistogram()
        histogram.observe(5.0)
        assert histogram.quantile(0.5) == 5.0
        assert histogram.quantile(0.0) == 5.0
        assert histogram.quantile(1.0) == 5.0

    def test_histogram_nonpositive_values(self):
        histogram = StreamingHistogram()
        histogram.observe_many([0.0, -1.0, 2.0])
        assert histogram.count == 3
        assert histogram.minimum == -1.0
        assert histogram.quantile(0.5) == 0.0

    def test_histogram_empty_summary(self):
        summary = StreamingHistogram().summary()
        assert summary["count"] == 0 and summary["p95"] == 0.0

    def test_histogram_rejects_bad_growth(self):
        with pytest.raises(ValueError):
            StreamingHistogram(growth=1.0)


class TestRegistry:
    def test_instruments_created_once(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_counter_value_defaults_to_zero(self):
        assert MetricsRegistry().counter_value("missing") == 0

    def test_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("runs").inc(2)
        registry.gauge("depth").set(4)
        registry.histogram("lat").observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"runs": 2}
        assert snapshot["gauges"]["depth"]["high_water"] == 4.0
        assert snapshot["histograms"]["lat"]["count"] == 1


class TestTracing:
    def test_collector_records_events_and_spans(self):
        tracer = Tracer()
        collector = InMemoryCollector()
        tracer.add_exporter(collector)
        tracer.event("run.started", party="OrgA", run_id="r1")
        tracer.span_end("phase.handle", 0.01, party="OrgA", phase="m1")
        assert len(collector.events()) == 1
        assert len(collector.spans()) == 1
        record = collector.named("phase.handle")[0]
        assert record.seconds == pytest.approx(0.01)
        assert record.attrs["phase"] == "m1"

    def test_span_context_manager_times_and_takes_late_attrs(self):
        tracer = Tracer()
        collector = InMemoryCollector()
        tracer.add_exporter(collector)
        with tracer.span("work", party="OrgB") as attrs:
            attrs["outcome"] = "valid"
        (record,) = collector.spans()
        assert record.seconds >= 0.0
        assert record.attrs["outcome"] == "valid"

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer()
        with JsonLinesExporter(path) as exporter:
            tracer.add_exporter(exporter)
            tracer.event("a", party="P", n=1)
            tracer.span_end("b", 0.5, party="P")
        records = read_jsonl(path)
        assert [r["name"] for r in records] == ["a", "b"]
        assert records[0]["party"] == "P" and records[0]["n"] == 1
        assert records[1]["seconds"] == pytest.approx(0.5)


class TestHooks:
    def test_null_instrumentation_is_disabled_noop(self):
        obs = NULL_INSTRUMENTATION
        assert obs.enabled is False
        # Every hook must be callable and silently do nothing.
        obs.run_started("P", "o", "r", "proposer", "overwrite")
        obs.run_settled("P", "o", "r", "proposer", "valid", 0.1)
        obs.protocol_message("P", "o", "r", "m1", "sent", 10)
        obs.phase_handled("P", "o", "m1", 0.01)
        obs.validation_decision("P", "o", "r", True, [])
        obs.message_sent("P", "Q", 10)
        obs.retransmission("P", "Q", "m", 1)
        obs.retry_exhausted("P", "Q", "m", 3)
        obs.duplicate_suppressed("P", "Q", "m")
        obs.ack_received("P", "m")
        obs.queue_depth("P", 2)
        obs.raw_send("P", "Q", 10, True)
        obs.sign_timing("P", "rsa-sha256", 10, 0.001)
        obs.verify_timing("rsa-sha256", 10, 0.001, True)
        obs.keygen_timing(512, 1, 0.1)
        obs.journal_append("P", "r", "sent", 10, 0.001)
        obs.journal_closed("P", "r", "valid")
        obs.evidence_append("P", "kind", 10, 0.001)
        obs.storage_sync("P", 3, 5, 0.002)

    def test_subclass_overrides_single_hook(self):
        seen = []

        class Probe(Instrumentation):
            enabled = True

            def message_sent(self, party, recipient, size):
                seen.append((party, recipient, size))

        probe = Probe()
        probe.message_sent("A", "B", 7)
        probe.ack_received("A", "m")  # inherited no-op
        assert seen == [("A", "B", 7)]

    def test_approx_size(self):
        assert approx_size({"a": 1}) > 0
        assert approx_size(object()) == 0
