"""Telemetry exporter: Prometheus text format + JSON snapshot over HTTP.

One tiny stdlib :mod:`http.server` endpoint per node.  Routes:

``/metrics``
    The registry in Prometheus text exposition format (version 0.0.4):
    counters as ``counter``, gauges as ``gauge`` (plus a ``_high_water``
    companion), histograms as ``summary`` with quantile labels and
    ``_sum``/``_count`` series.  Includes ``repro_node_health`` when a
    monitor is attached.
``/metrics.json``
    The raw registry snapshot plus the monitor's health status — the
    machine-readable twin that `repro top` and the C14 bench consume.
``/health``
    Tiny probe body; responds 503 when the node is ``unhealthy`` so the
    endpoint slots straight under a load-balancer health check.
``/flight``
    The flight-recorder ring as JSONL trace records, a valid ``repro
    audit --trace`` input (404 when no recorder attached).

Reads are snapshot-consistent: every request takes one
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` and renders from the
copy, never iterating live instruments.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.obs.metrics import MetricsRegistry

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")
_HEALTH_CODE = {"healthy": 0, "degraded": 1, "unhealthy": 2}


def _metric_name(name: str) -> str:
    """Registry name → Prometheus series name (``repro_`` prefixed)."""
    sanitised = _NAME_RE.sub("_", name)
    if not sanitised.startswith("repro_"):
        sanitised = "repro_" + sanitised
    return sanitised


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(snapshot: dict, health: "Optional[dict]" = None) -> str:
    """Render a registry snapshot in Prometheus text exposition format.

    *snapshot* is the dict from ``MetricsRegistry.snapshot()``; *health*
    an optional ``HealthMonitor.status()`` dict contributing the
    ``repro_node_health`` gauge (0 healthy / 1 degraded / 2 unhealthy)
    and per-rule firing flags.
    """
    lines: "list[str]" = []

    for name, value in snapshot.get("counters", {}).items():
        series = _metric_name(name) + "_total"
        lines.append(f"# TYPE {series} counter")
        lines.append(f"{series} {_fmt(value)}")

    for name, entry in snapshot.get("gauges", {}).items():
        series = _metric_name(name)
        lines.append(f"# TYPE {series} gauge")
        lines.append(f"{series} {_fmt(entry.get('value', 0.0))}")
        lines.append(f"# TYPE {series}_high_water gauge")
        lines.append(
            f"{series}_high_water {_fmt(entry.get('high_water', 0.0))}")

    for name, summary in snapshot.get("histograms", {}).items():
        series = _metric_name(name)
        lines.append(f"# TYPE {series} summary")
        for key in ("p50", "p95", "p99"):
            quantile = "0." + key[1:]
            lines.append(
                f"{series}{{quantile=\"{quantile}\"}} "
                f"{_fmt(summary.get(key, 0.0))}")
        lines.append(f"{series}_sum {_fmt(summary.get('sum', 0.0))}")
        lines.append(f"{series}_count {_fmt(summary.get('count', 0))}")

    if health is not None:
        state = health.get("health", "healthy")
        lines.append("# TYPE repro_node_health gauge")
        lines.append(f"repro_node_health {_HEALTH_CODE.get(state, 0)}")
        firing = set(health.get("firing", []))
        if firing:
            lines.append("# TYPE repro_health_rule_firing gauge")
            for rule in sorted(firing):
                label = _NAME_RE.sub("_", rule)
                lines.append(
                    f"repro_health_rule_firing{{rule=\"{label}\"}} 1")

    return "\n".join(lines) + "\n"


class TelemetryServer:
    """Per-node HTTP endpoint serving the live registry.

    Binds ``127.0.0.1`` on an ephemeral port by default; :attr:`url`
    gives the base address once started.  The server owns a daemon
    thread and must be :meth:`stop`-ped (or the process exited) to free
    the socket.
    """

    def __init__(self, registry: MetricsRegistry,
                 monitor=None, flight=None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.registry = registry
        self.monitor = monitor
        self.flight = flight
        self._host = host
        self._port = port
        self._httpd: "Optional[ThreadingHTTPServer]" = None
        self._thread: "Optional[threading.Thread]" = None

    # -- payload builders (also used by tests without a socket) ---------

    def metrics_text(self) -> str:
        status = self.monitor.status() if self.monitor is not None else None
        return render_prometheus(self.registry.snapshot(), status)

    def metrics_json(self) -> dict:
        payload = {"metrics": self.registry.snapshot()}
        if self.monitor is not None:
            payload["health"] = self.monitor.status()
        if self.flight is not None:
            payload["flight"] = {"recorded": self.flight.recorded,
                                 "capacity": self.flight.capacity}
        return payload

    # -- lifecycle ------------------------------------------------------

    @property
    def url(self) -> str:
        if self._httpd is None:
            raise RuntimeError("telemetry server not started")
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("telemetry server not started")
        return self._httpd.server_address[1]

    def start(self) -> "TelemetryServer":
        if self._httpd is not None:
            return self
        server = self

        class Handler(BaseHTTPRequestHandler):
            # Persistent connections (every reply carries Content-Length
            # already): a scraper polling on an interval reuses one
            # connection and one handler thread instead of paying socket
            # setup and a thread spawn per poll.
            protocol_version = "HTTP/1.1"

            def log_message(self, fmt, *args):  # silence stderr chatter
                pass

            def _reply(self, code: int, body: bytes,
                       content_type: str) -> None:
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):  # noqa: N802 (stdlib naming)
                path = self.path.split("?", 1)[0]
                try:
                    if path == "/metrics":
                        body = server.metrics_text().encode("utf-8")
                        self._reply(200, body,
                                    "text/plain; version=0.0.4")
                    elif path == "/metrics.json":
                        body = json.dumps(
                            server.metrics_json(), sort_keys=True,
                        ).encode("utf-8")
                        self._reply(200, body, "application/json")
                    elif path == "/health":
                        state = (server.monitor.health
                                 if server.monitor is not None
                                 else "healthy")
                        code = 503 if state == "unhealthy" else 200
                        body = json.dumps({"health": state}).encode("utf-8")
                        self._reply(code, body, "application/json")
                    elif path == "/flight":
                        if server.flight is None:
                            self._reply(404, b"no flight recorder\n",
                                        "text/plain")
                        else:
                            lines = server.flight.dump_lines()
                            body = ("\n".join(lines) + "\n").encode("utf-8")
                            self._reply(200, body, "application/x-ndjson")
                    else:
                        self._reply(404, b"not found\n", "text/plain")
                except (BrokenPipeError, ConnectionResetError):
                    pass

        self._httpd = ThreadingHTTPServer((self._host, self._port), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="telemetry-exporter", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd = None
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None
