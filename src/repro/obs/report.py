"""Plain-text reporting over a metrics registry or a captured snapshot.

``render_report`` produces the per-phase breakdown the CLI's
``obs-report`` command and the benchmark ``--obs`` path print: protocol
message/byte counts and handling spans per phase (m1/m2/m3), sign/verify
latency histograms, transport reliability counters and storage append
statistics.

Sections render from a registry *snapshot* (the dict shape of
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`), not from live
instruments — so ``render_snapshot`` works equally on a running node, on
the JSON payload scraped from a telemetry endpoint, or on a snapshot
captured hours earlier.  Every accessor tolerates missing instruments: a
subsystem that never ran renders zeros, never a KeyError or a division
by zero.
"""

from __future__ import annotations

from repro.obs.hooks import PHASE_M1, PHASE_M2, PHASE_M3
from repro.obs.metrics import MetricsRegistry

PHASES = (PHASE_M1, PHASE_M2, PHASE_M3)

_EMPTY_HIST = {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
               "p50": 0.0, "p95": 0.0, "p99": 0.0}
_EMPTY_GAUGE = {"value": 0.0, "high_water": 0.0}


def format_table(headers: "list[str]", rows: "list[list]") -> str:
    """Render an aligned plain-text table (shared report output)."""
    text_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in text_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _ms(seconds: float) -> float:
    return seconds * 1000.0


# -- snapshot accessors (missing-instrument safe) --------------------------


def _c(snapshot: dict, name: str) -> int:
    return snapshot.get("counters", {}).get(name, 0)


def _g(snapshot: dict, name: str) -> dict:
    entry = snapshot.get("gauges", {}).get(name)
    return entry if entry else dict(_EMPTY_GAUGE)


def _h(snapshot: dict, name: str) -> dict:
    merged = dict(_EMPTY_HIST)
    entry = snapshot.get("histograms", {}).get(name)
    if entry:
        merged.update(entry)
    return merged


def render_report(registry: MetricsRegistry) -> str:
    """The full observability report for one instrumented run."""
    return render_snapshot(registry.snapshot())


def render_snapshot(snapshot: dict, health: "dict | None" = None) -> str:
    """Render a captured registry snapshot (optionally with health status).

    *snapshot* is ``MetricsRegistry.snapshot()`` output — live, scraped
    from ``/metrics.json``, or loaded from a file.  *health* is an
    optional ``HealthMonitor.status()`` dict appended as its own
    section.
    """
    sections = [
        _phase_section(snapshot),
        _crypto_section(snapshot),
        _transport_section(snapshot),
        _wire_section(snapshot),
        _storage_section(snapshot),
        _run_section(snapshot),
        _pipeline_section(snapshot),
        _readcache_section(snapshot),
        _gateway_section(snapshot),
        _health_section(health),
    ]
    return "\n\n".join(section for section in sections if section)


def _phase_section(snapshot: dict) -> str:
    rows = []
    for phase in PHASES:
        handle = _h(snapshot, f"protocol.{phase}.handle_seconds")
        rows.append([
            phase,
            _c(snapshot, f"protocol.{phase}.sent"),
            _c(snapshot, f"protocol.{phase}.received"),
            _c(snapshot, f"protocol.{phase}.bytes_sent"),
            handle["count"],
            _ms(handle["p50"]),
            _ms(handle["p95"]),
            _ms(handle["p99"]),
        ])
    table = format_table(
        ["phase", "sent", "received", "bytes sent",
         "handled", "handle p50 ms", "p95 ms", "p99 ms"],
        rows,
    )
    return "== protocol phases (m1 propose / m2 respond / m3 commit) ==\n" + table


def _crypto_section(snapshot: dict) -> str:
    rows = []
    for op in ("sign", "verify"):
        summary = _h(snapshot, f"crypto.{op}_seconds")
        rows.append([
            op, summary["count"], _ms(summary["mean"]),
            _ms(summary["p50"]), _ms(summary["p95"]), _ms(summary["p99"]),
        ])
    table = format_table(
        ["operation", "count", "mean ms", "p50 ms", "p95 ms", "p99 ms"], rows
    )
    return "== signature operations ==\n" + table


def _transport_section(snapshot: dict) -> str:
    depth = _g(snapshot, "transport.queue_depth")
    rows = [
        ["data messages sent", _c(snapshot, "transport.data_sent")],
        ["retransmissions", _c(snapshot, "transport.retransmissions")],
        ["duplicates suppressed",
         _c(snapshot, "transport.duplicates_suppressed")],
        ["acks received", _c(snapshot, "transport.acks_received")],
        ["retry exhausted", _c(snapshot, "transport.retry_exhausted")],
        ["max outbound queue depth", depth["high_water"]],
    ]
    pool_rows = [
        ["connections opened",
         _c(snapshot, "transport.tcp.connections_opened")],
        ["reconnects", _c(snapshot, "transport.tcp.reconnects")],
        ["connections reused",
         _c(snapshot, "transport.tcp.connections_reused")],
        ["connect failures",
         _c(snapshot, "transport.tcp.connect_failures")],
        ["frames coalesced",
         _c(snapshot, "transport.tcp.frames_coalesced")],
        ["coalesced batches", _c(snapshot, "transport.tcp.batches")],
        ["malformed frames",
         _c(snapshot, "transport.tcp.malformed_frames")],
        ["handler errors (command)",
         _c(snapshot, "transport.tcp.handler_errors.command")],
        ["handler errors (timer)",
         _c(snapshot, "transport.tcp.handler_errors.timer")],
        ["handler errors (dispatch)",
         _c(snapshot, "transport.tcp.handler_errors.dispatch")],
        ["handler errors (idle)",
         _c(snapshot, "transport.tcp.handler_errors.idle")],
    ]
    text = "== reliable transport ==\n" + format_table(["counter", "value"], rows)
    if any(value for _, value in pool_rows):
        text += ("\n\n== tcp connection pool ==\n"
                 + format_table(["counter", "value"], pool_rows))
    return text


def _wire_section(snapshot: dict) -> str:
    frames_out = _c(snapshot, "wire.frames_out")
    frames_in = _c(snapshot, "wire.frames_in")
    if frames_out == 0 and frames_in == 0:
        return ""
    encode = _h(snapshot, "wire.encode_seconds")
    decode = _h(snapshot, "wire.decode_seconds")
    table = format_table(
        ["frames out", "bytes out", "frames in", "bytes in",
         "encode p50 us", "decode p50 us"],
        [[frames_out, _c(snapshot, "wire.bytes_out"),
          frames_in, _c(snapshot, "wire.bytes_in"),
          _ms(encode["p50"]) * 1000.0, _ms(decode["p50"]) * 1000.0]],
    )
    return "== wire codec ==\n" + table


def _storage_section(snapshot: dict) -> str:
    journal = _h(snapshot, "storage.journal.append_seconds")
    evidence = _h(snapshot, "storage.evidence.append_seconds")
    rows = [
        ["journal", _c(snapshot, "storage.journal.appends"),
         _c(snapshot, "storage.journal.bytes"),
         _ms(journal["p95"])],
        ["evidence log", _c(snapshot, "storage.evidence.appends"),
         _c(snapshot, "storage.evidence.bytes"),
         _ms(evidence["p95"])],
    ]
    table = format_table(["store", "appends", "bytes", "append p95 ms"], rows)
    syncs = _c(snapshot, "storage.syncs")
    if syncs:
        # Appends to a party's stores only queue; the barrier is where
        # the fsync wait is.
        sync = _h(snapshot, "storage.sync_seconds")
        table += "\n" + format_table(
            ["commit barriers", "files synced", "records/barrier p50",
             "barrier p50 ms", "barrier p95 ms"],
            [[syncs, _c(snapshot, "storage.files_synced"),
              _h(snapshot, "storage.records_per_sync")["p50"],
              _ms(sync["p50"]), _ms(sync["p95"])]],
        )
    return "== storage ==\n" + table


def _run_section(snapshot: dict) -> str:
    started = _c(snapshot, "protocol.runs.started")
    if started == 0:
        return ""
    run = _h(snapshot, "protocol.run_seconds")
    rows = [
        ["runs started", started],
        ["runs valid", _c(snapshot, "protocol.runs.valid")],
        ["runs invalid", _c(snapshot, "protocol.runs.invalid")],
        ["validation accepted",
         _c(snapshot, "protocol.validation.accepted")],
        ["validation rejected",
         _c(snapshot, "protocol.validation.rejected")],
        ["run time p50 (s)", run["p50"]],
        ["run time p95 (s)", run["p95"]],
    ]
    return "== coordination runs ==\n" + format_table(["metric", "value"], rows)


def _pipeline_section(snapshot: dict) -> str:
    batches = _c(snapshot, "pipeline.batches")
    retries = _c(snapshot, "pipeline.busy_retries")
    saturated = _c(snapshot, "pipeline.saturated")
    depth = _g(snapshot, "pipeline.depth")
    if batches == 0 and retries == 0 and saturated == 0 \
            and depth["high_water"] == 0:
        return ""
    size = _h(snapshot, "pipeline.batch_size")
    rows = [
        ["batched proposals", batches],
        ["updates batched", _c(snapshot, "pipeline.batched_updates")],
        ["batch size p50", size["p50"]],
        ["batch size max", size["max"]],
        ["busy retries", retries],
        ["saturation rejections", saturated],
        ["max pipeline depth", depth["high_water"]],
    ]
    return "== proposal pipeline ==\n" + format_table(["metric", "value"], rows)


def _readcache_section(snapshot: dict) -> str:
    reads = _c(snapshot, "readcache.reads")
    published = _c(snapshot, "readcache.published")
    if reads == 0 and published == 0:
        return ""
    staleness = _h(snapshot, "readcache.staleness_seconds")
    version = _g(snapshot, "readcache.version")
    rows = [
        ["reads", reads],
        ["reads settled", _c(snapshot, "readcache.reads.settled")],
        ["reads bounded", _c(snapshot, "readcache.reads.bounded")],
        ["reads cached", _c(snapshot, "readcache.reads.cached")],
        ["snapshot hits", _c(snapshot, "readcache.hits")],
        ["misses (refreshed)", _c(snapshot, "readcache.misses")],
        ["snapshots published", published],
        ["snapshots invalidated", _c(snapshot, "readcache.invalidated")],
        ["latest version", version["value"]],
        ["staleness p50 ms", _ms(staleness["p50"])],
        ["staleness p95 ms", _ms(staleness["p95"])],
        ["staleness max ms", _ms(staleness["max"])],
    ]
    return "== validated read cache ==\n" + format_table(
        ["metric", "value"], rows)


def _gateway_section(snapshot: dict) -> str:
    admitted = _c(snapshot, "gateway.admitted")
    rejected = _c(snapshot, "gateway.rejected")
    replays = _c(snapshot, "gateway.replays")
    if admitted == 0 and rejected == 0 and replays == 0:
        return ""
    settle = _h(snapshot, "gateway.settle_seconds")
    retry_after = _h(snapshot, "gateway.retry_after_seconds")
    depth = _g(snapshot, "gateway.queue_depth")
    rows = [
        ["admitted", admitted],
        ["settled valid", _c(snapshot, "gateway.settled.valid")],
        ["settled invalid", _c(snapshot, "gateway.settled.invalid")],
        ["rate limited", _c(snapshot, "gateway.rejected.rate_limited")],
        ["shed (overloaded)", _c(snapshot, "gateway.rejected.overloaded")],
        ["circuit open rejections",
         _c(snapshot, "gateway.rejected.circuit_open")],
        ["idempotent replays", replays],
        ["max admission queue depth", depth["high_water"]],
        ["breaker transitions",
         _c(snapshot, "gateway.breaker.transitions")],
        ["settle latency p50 ms", _ms(settle["p50"])],
        ["settle latency p95 ms", _ms(settle["p95"])],
        ["settle latency p99 ms", _ms(settle["p99"])],
        ["retry-after p50 s", retry_after["p50"]],
        ["retry-after p95 s", retry_after["p95"]],
        ["retry-after p99 s", retry_after["p99"]],
    ]
    return "== gateway ==\n" + format_table(["metric", "value"], rows)


def _health_section(health: "dict | None") -> str:
    if not health:
        return ""
    rows = [
        ["health", health.get("health", "healthy")],
        ["firing rules", ", ".join(health.get("firing", [])) or "-"],
        ["alerts", len(health.get("alerts", []))],
        ["transitions", len(health.get("transitions", []))],
    ]
    return "== node health ==\n" + format_table(["metric", "value"], rows)
