"""Experiment C14 — cost of the live telemetry plane.

Observability is only free if nobody pays for it on the hot path.  This
bench drives pipelined bursts (the retired C12's: one proposer, batched
coordination runs, 3 parties over the in-memory simulator) in three
modes, each on a community of its own built once:

* ``off`` — the no-op :class:`Instrumentation` (hooks compiled to
  ``pass``), the floor every production deployment can fall back to;
* ``recording`` — :class:`RecordingInstrumentation` feeding the
  :class:`MetricsRegistry`;
* ``live`` — the full telemetry plane: recording *plus* the flight
  recorder ring (a tracer exporter, so every trace record is built and
  kept), the health watchdog evaluating its SLO rules on
  virtual time, and a real :class:`TelemetryServer` scraped over HTTP
  by a client thread once inside every burst.

Each update carries a small business document (an invoice-shaped dict,
~0.5 KB canonical) rather than a single integer: the paper's workload
is inter-organisational information sharing, and a degenerate payload
would measure instrumentation against a community that signs and
journals almost nothing.

Methodology: each round runs one burst per mode in palindrome order —
``off, recording, live, live, recording, off`` — and every burst's
*CPU time* (``time.process_time``, so the exporter's and the scraper's
threads are charged to the live mode) is kept.  The gated figure is the
ratio of the modes' *lower quartiles* of burst CPU time.  On a shared
machine noise only ever adds time, and it comes in episodes of seconds
that can double a burst; the lower quartile is each mode's clean level
as long as fewer than three quarters of its bursts fall in one, and
unlike a minimum it does not rest on one lucky burst.  The median of
the per-round ratios is reported next to it.

Three things keep the modes' bursts comparable, where earlier versions
of this bench let noise reach the live mode alone:

* every burst of every mode drives the same seeded community, so the
  modes differ only in their hooks (a different seed per round moved a
  burst's CPU by several per cent, and the per-mode minima could come
  from different seeds);
* the scraper connects and the server renders a first time before the
  first burst, and inside a burst exactly one scrape runs: a scraper
  polling on a wall-clock interval charged the connection and the
  server's handler thread to the first live burst, and one scrape more
  to every burst that noise had made slower;
* before each burst the cyclic collector runs and freezes what
  survives, so the history earlier bursts left is not walked again.

The comparison JSON is written to
``benchmarks/results/BENCH_obs_overhead.json`` and CI fails the build
if the live overhead exceeds :data:`MAX_OVERHEAD`.
"""

from __future__ import annotations

import gc
import json
import os
import socket
import threading
import time

from repro.core import Community, DictB2BObject, SimRuntime
from repro.obs.live import (
    FlightRecorder,
    HealthMonitor,
    TelemetryServer,
    default_rules,
)
from repro.obs.recording import RecordingInstrumentation
from repro.obs.report import format_table

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

PARTIES = 3
UPDATES = 48 if SMOKE else 64
ROUNDS = 15 if SMOKE else 25
#: Every burst of every mode drives the same seeded community, so the
#: modes do the same protocol work and only the hooks differ.
SEED = 100
MODES = ("off", "recording", "live")
PALINDROME = ("off", "recording", "live", "live", "recording", "off")
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: CI budget: the full live plane (recording + flight ring + watchdog +
#: scraped exporter) may cost at most this fraction over hooks-off.
MAX_OVERHEAD = 0.10

#: One replicated update: a small invoice-like document, the unit of
#: inter-organisational sharing the paper is about (~0.5 KB canonical).
DOCUMENT = {
    "doc_type": "invoice",
    "currency": "GBP",
    "status": "submitted",
    "lines": [
        {
            "sku": f"SKU-{item}",
            "qty": 3,
            "unit_price": 1999,
            "description": "replicated inter-organisational order line",
        }
        for item in range(3)
    ],
}


class _Plane:
    """One mode's community, built once and driven burst after burst.

    ``off`` has no-op hooks, ``recording`` a
    :class:`RecordingInstrumentation`, and ``live`` adds the flight
    ring (a tracer exporter), a watchdog evaluating the default rules
    every virtual second, and a :class:`TelemetryServer` scraped over
    HTTP by a client thread: once before the first burst (the
    connection, the server's handler thread and a first render), then
    once inside every burst.
    """

    def __init__(self, mode: str) -> None:
        names = [f"Org{i + 1}" for i in range(PARTIES)]
        self.obs = None if mode == "off" else RecordingInstrumentation()
        self.community = Community(
            names, runtime=SimRuntime(seed=SEED),
            retransmit_interval=0.2, obs=self.obs)
        self.objects = {name: DictB2BObject() for name in names}
        self.community.found_object("ledger", self.objects)
        self.node = self.community.node(names[0])
        self.server = self.flight = self.scraper = None
        self.scrapes = self.bursts = 0
        self._asked, self._scraped = threading.Event(), threading.Event()
        self._closing = False
        if mode == "live":
            self.flight = FlightRecorder(capacity=2048)
            self.obs.tracer.add_exporter(self.flight)
            monitor = HealthMonitor(self.obs.registry, rules=default_rules(),
                                    obs=self.obs, party=names[0],
                                    clock=self.community.clock.now,
                                    flight=self.flight)
            self.timer = monitor.schedule_on(self.community.runtime.network,
                                             1.0)
            self.server = TelemetryServer(self.obs.registry, monitor=monitor,
                                          flight=self.flight).start()
            self.scraper = threading.Thread(target=self._scrape, daemon=True)
            self.scraper.start()
            self._scrape_once()

    def _scrape(self) -> None:
        # Minimal keep-alive client: in production the scraper is the
        # monitoring system on another machine, so its CPU is not part
        # of the node's overhead — keep the in-process client's share of
        # the measurement as small as honesty allows while the server
        # still renders and serves every poll for real.
        request = b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n"
        sock = socket.create_connection(("127.0.0.1", self.server.port),
                                        timeout=5)
        reader = sock.makefile("rb")
        try:
            while True:
                self._asked.wait()
                self._asked.clear()
                if self._closing:
                    return
                sock.sendall(request)
                length = 0
                while True:
                    line = reader.readline()
                    if not line or line == b"\r\n":
                        break
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":", 1)[1])
                assert reader.read(length), "empty scrape body"
                self.scrapes += 1
                self._scraped.set()
        finally:
            reader.close()
            sock.close()

    def _scrape_once(self) -> None:
        self._scraped.clear()
        self._asked.set()
        assert self._scraped.wait(10.0), "exporter never scraped"

    def burst(self) -> "tuple[float, float]":
        """Submit UPDATES writes and wait for them; returns the (wall,
        cpu) seconds of the burst, a live plane's scrape included."""
        self.bursts += 1
        # Collect, then freeze what survives: the cyclic collector's
        # work inside a burst is then the burst's own garbage, not a
        # walk over the history the earlier bursts left behind.
        gc.collect()
        gc.freeze()
        self._scraped.clear()
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        if self.scraper is not None:
            self._asked.set()
        tickets = [
            self.node.submit_update(
                "ledger", {f"doc-{i}": dict(DOCUMENT, seq=i, burst=self.bursts)})
            for i in range(UPDATES)
        ]
        for ticket in tickets:
            self.node.wait_for_pipeline(ticket, timeout=120.0)
            assert ticket.valid, ticket.diagnostics
        if self.scraper is not None:
            assert self._scraped.wait(10.0), "exporter never scraped"
        wall = time.perf_counter() - wall_start
        cpu = time.process_time() - cpu_start
        states = [obj.get_state for obj in self.objects.values()]
        assert self.community.runtime.wait_until(lambda: all(
            state() == states[0]() for state in states), 120.0), \
            "replicas diverged"
        return wall, cpu

    def close(self) -> None:
        if self.scraper is not None:
            assert self.flight.recorded > 0, "flight ring never fed"
            self.timer.cancel()
            self._closing = True
            self._asked.set()
            self.scraper.join()
            self.server.stop()
        self.community.close()


def _quantile(values: "list[float]", q: float) -> float:
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _median(values: "list[float]") -> float:
    return _quantile(values, 0.5)


def test_c14_obs_overhead(report):
    """Live telemetry plane must cost < 10% over hooks-off.

    Writes ``benchmarks/results/BENCH_obs_overhead.json`` so CI can
    gate on the overhead across commits.
    """
    planes = {mode: _Plane(mode) for mode in MODES}
    try:
        for plane in planes.values():
            plane.burst()  # warm-up: first bursts pay one-off costs
        bursts = {mode: {"wall": [], "cpu": []} for mode in MODES}
        for _ in range(ROUNDS):
            for mode in PALINDROME:
                wall, cpu = planes[mode].burst()
                bursts[mode]["wall"].append(wall)
                bursts[mode]["cpu"].append(cpu)
        scrapes = planes["live"].scrapes
    finally:
        for plane in planes.values():
            plane.close()
        gc.unfreeze()
    assert scrapes == 2 + 2 * ROUNDS  # set-up, warm-up, one per burst

    clean = {mode: _quantile(bursts[mode]["cpu"], 0.25) for mode in MODES}
    overhead = {mode: clean[mode] / clean["off"] - 1.0
                for mode in ("recording", "live")}

    def round_ratios(mode: str) -> "list[float]":
        cpu = bursts[mode]["cpu"]
        off = bursts["off"]["cpu"]
        return [(cpu[i] + cpu[i + 1]) / (off[i] + off[i + 1]) - 1.0
                for i in range(0, len(cpu), 2)]

    overhead_median = {mode: _median(round_ratios(mode))
                       for mode in ("recording", "live")}
    medians = {mode: {kind: _median(values)
                      for kind, values in bursts[mode].items()}
               for mode in MODES}

    comparison = {
        "experiment": "C14",
        "workload": f"{UPDATES}-update pipelined bursts of ~0.5KB "
                    f"documents, {PARTIES} parties, in-memory simulator, "
                    f"one community per mode",
        "smoke": SMOKE,
        "rounds": ROUNDS,
        "scrapes_per_live_burst": 1,
        "median_seconds": medians,
        "lower_quartile_cpu_seconds": clean,
        "overhead": overhead,
        "overhead_median": overhead_median,
        "budget": MAX_OVERHEAD,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, "BENCH_obs_overhead.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(comparison, handle, indent=2, sort_keys=True)

    def row(label: str, mode: str) -> list:
        cells = ["—", "—"] if mode == "off" else [
            f"{overhead[mode]:+.1%}", f"{overhead_median[mode]:+.1%}"]
        return [label, medians[mode]["wall"] * 1e3,
                medians[mode]["cpu"] * 1e3] + cells

    body = format_table(
        ["instrumentation", "median wall ms", "median cpu ms",
         f"cpu overhead (lower quartiles of {2 * ROUNDS} bursts)",
         "(median of per-round ratios)"],
        [row("off (no-op hooks)", "off"), row("recording", "recording"),
         row("live (+flight+watchdog+scraped exporter)", "live")],
    ) + (f"\n\nbudget: live overhead < {MAX_OVERHEAD:.0%}"
         "\ncomparison JSON: benchmarks/results/BENCH_obs_overhead.json")
    report("C14", "live telemetry plane overhead", body)

    assert overhead["live"] < MAX_OVERHEAD, (
        f"live telemetry plane costs {overhead['live']:+.1%} over hooks-off "
        f"(budget {MAX_OVERHEAD:.0%})"
    )
