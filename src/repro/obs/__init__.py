"""``repro.obs`` — structured tracing and metrics for the middleware.

The subsystem's parts:

* :mod:`repro.obs.catalogue` — every observable event described once
  as data (hook, layer, parameters, metrics, trace record, flight
  kind); the hook interface, the recorder, the tables in
  ``docs/OBSERVABILITY.md`` and the report's section order are all
  derived from it, so adding an event is one entry plus one call site;
* :mod:`repro.obs.report` — the ``obs-report`` text: every recorded
  instrument, one section per metric-name prefix;
* :mod:`repro.obs.metrics` — counters, gauges and streaming histograms
  in a :class:`MetricsRegistry` (the one statistics implementation);
* :mod:`repro.obs.trace` — a :class:`Tracer` emitting typed span/event
  records to in-memory collectors or JSON-lines files, plus the
  cross-party :class:`TraceContext` / Lamport-clock machinery;
* :mod:`repro.obs.hooks` — the :class:`Instrumentation` hook interface
  threaded through protocol, transport, crypto and storage (a no-op
  method per catalogue entry), with :data:`NULL_INSTRUMENTATION` as the
  zero-overhead default;
* :mod:`repro.obs.recording` — :class:`RecordingInstrumentation`, the
  generic recorder that interprets the catalogue;
* :mod:`repro.obs.merge` — offline merging of per-party trace files
  into one Lamport-ordered causal timeline with anomaly detection;
* :mod:`repro.obs.audit` — evidence forensics behind ``repro audit``;
* :mod:`repro.obs.live` — the live telemetry plane: per-node
  Prometheus/JSON export endpoint, online SLO watchdogs driving an
  aggregate node health state, and a bounded flight recorder for
  crash-time event dumps.

See ``docs/OBSERVABILITY.md`` for the rendered hook and metric catalogue.
"""

from repro.obs.hooks import (
    NULL_INSTRUMENTATION,
    PHASE_M1,
    PHASE_M2,
    PHASE_M3,
    Instrumentation,
    approx_size,
    approx_size_cached,
)
from repro.obs.merge import (
    Anomaly,
    MergedTrace,
    RunTrace,
    merge_trace_files,
    merge_traces,
    render_timeline,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    StreamingHistogram,
    exact_quantile,
    summarise,
)
from repro.obs.live import (
    FlightRecorder,
    HealthAlert,
    HealthMonitor,
    HealthRule,
    LiveTelemetry,
    TelemetryServer,
    default_rules,
    render_prometheus,
)
from repro.obs.recording import RecordingInstrumentation
from repro.obs.report import format_table, render_snapshot
from repro.obs.trace import (
    InMemoryCollector,
    JsonLinesExporter,
    LamportClock,
    PartyFilesExporter,
    PartyTraceContext,
    TraceContext,
    TraceRecord,
    Tracer,
    read_jsonl,
    span_id_for,
    trace_id_for_run,
)

__all__ = [
    "Anomaly",
    "AuditReport",
    "LamportClock",
    "MergedTrace",
    "PartyFilesExporter",
    "PartyTraceContext",
    "RunFinding",
    "RunTrace",
    "TraceContext",
    "audit_evidence",
    "merge_trace_files",
    "merge_traces",
    "render_timeline",
    "span_id_for",
    "trace_id_for_run",
    "NULL_INSTRUMENTATION",
    "PHASE_M1",
    "PHASE_M2",
    "PHASE_M3",
    "Instrumentation",
    "approx_size",
    "approx_size_cached",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "StreamingHistogram",
    "exact_quantile",
    "summarise",
    "FlightRecorder",
    "HealthAlert",
    "HealthMonitor",
    "HealthRule",
    "LiveTelemetry",
    "TelemetryServer",
    "default_rules",
    "render_prometheus",
    "RecordingInstrumentation",
    "format_table",
    "render_snapshot",
    "InMemoryCollector",
    "JsonLinesExporter",
    "TraceRecord",
    "Tracer",
    "read_jsonl",
]

_AUDIT_EXPORTS = ("AuditReport", "RunFinding", "audit_evidence")


def __getattr__(name: str):
    # The audit module pulls in crypto + protocol, which themselves hook
    # back into repro.obs at import time; loading it lazily keeps this
    # package importable from anywhere in that graph.
    if name in _AUDIT_EXPORTS:
        from repro.obs import audit

        return getattr(audit, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
