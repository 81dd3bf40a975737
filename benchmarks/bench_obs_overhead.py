"""Experiment C14 — cost of the live telemetry plane.

Observability is only free if nobody pays for it on the hot path.  This
bench drives a pipelined burst (the retired C12's: one proposer, batched
coordination runs, 3 parties over the in-memory simulator) three times:

* ``off`` — the no-op :class:`Instrumentation` (hooks compiled to
  ``pass``), the floor every production deployment can fall back to;
* ``recording`` — :class:`RecordingInstrumentation` feeding the
  :class:`MetricsRegistry`;
* ``live`` — the full telemetry plane: recording *plus* the flight
  recorder ring, the health watchdog evaluating its SLO rules on
  virtual time, and a real :class:`TelemetryServer` being scraped
  over HTTP by a background thread for the whole run.

Each update carries a small business document (an invoice-shaped dict,
~0.5 KB canonical) rather than a single integer: the paper's workload
is inter-organisational information sharing, and a degenerate payload
would measure instrumentation against a community that signs and
journals almost nothing.

Methodology: each round runs the modes in palindrome order —
``off, recording, live, live, recording, off`` — and the overhead is
the median of the per-round *CPU-time* ratios (``time.process_time``)
of the per-mode sums.  The palindrome cancels linear machine drift
(CPU-frequency scaling, noisy neighbours) to first order inside each
round, which plain back-to-back pairing does not; CPU time additionally
charges the scraper and exporter threads' work to the live mode — which
is exactly the cost being measured.  Wall-clock medians are reported
alongside for scale.

The gated figure is the ratio of the per-mode *minima* across rounds —
each mode's cleanest measurement — following the same reasoning as
``timeit``'s documented advice to take the min of repeated timings:
on a shared machine, noise only ever adds time, so the minimum is the
best estimate of what the code itself costs.  The median of per-round
ratios is reported next to it as the typical-case figure.

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

from repro.bench.metrics import format_table
from repro.core import Community, DictB2BObject, SimRuntime
from repro.obs.live import (
    FlightRecorder,
    HealthMonitor,
    TelemetryServer,
    default_rules,
)
from repro.obs.recording import RecordingInstrumentation

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

PARTIES = 3
UPDATES = 48 if SMOKE else 64
ROUNDS = 7 if SMOKE else 9
#: Real scrape intervals are seconds (Prometheus defaults to 15s); this
#: polls ~150x faster than that and still far from a tight loop that
#: would just measure GIL contention (which matters doubly on the
#: single-core CI runners, where the scraper and the burst share one
#: CPU).
SCRAPE_INTERVAL = 0.1
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


def _run_burst(seed: int, obs=None, live: bool = False) -> "tuple[float, float]":
    """One pipelined burst; returns (wall, cpu) seconds for the burst.

    With ``live=True`` the obs must be recording: the flight ring is
    attached, a watchdog evaluates the default rules every virtual
    second, and a scraper thread polls the HTTP exporter throughout.
    """
    names = [f"Org{i + 1}" for i in range(PARTIES)]
    community = Community(names, runtime=SimRuntime(seed=seed),
                          retransmit_interval=0.2, obs=obs)
    objects = {name: DictB2BObject() for name in names}
    community.found_object("ledger", objects)
    node = community.node(names[0])

    timer = server = None
    stop_scraper = threading.Event()
    scraper = None
    scrapes = [0]
    if live:
        obs.flight = FlightRecorder(capacity=2048,
                                    clock=community.clock)
        monitor = HealthMonitor(obs.registry, rules=default_rules(),
                                obs=obs, party=names[0],
                                clock=community.clock.now,
                                flight=obs.flight)
        timer = monitor.schedule_on(community.runtime.network, 1.0)
        server = TelemetryServer(obs.registry, monitor=monitor,
                                 flight=obs.flight).start()

        def scrape() -> None:
            # Minimal keep-alive client: in production the scraper is the
            # monitoring system on another machine, so its CPU is not part
            # of the node's overhead — keep the in-process client's share
            # of the measurement as small as honesty allows while the
            # server still renders and serves every poll for real.
            request = b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n"
            sock = socket.create_connection(("127.0.0.1", server.port),
                                            timeout=5)
            reader = sock.makefile("rb")
            try:
                while not stop_scraper.is_set():
                    sock.sendall(request)
                    length = 0
                    while True:
                        line = reader.readline()
                        if not line or line == b"\r\n":
                            break
                        if line.lower().startswith(b"content-length:"):
                            length = int(line.split(b":", 1)[1])
                    assert reader.read(length), "empty scrape body"
                    scrapes[0] += 1
                    stop_scraper.wait(SCRAPE_INTERVAL)
            finally:
                reader.close()
                sock.close()

        scraper = threading.Thread(target=scrape, daemon=True)
        scraper.start()

    try:
        # Align the collector's state across modes: without this, the
        # allocation threshold crossed *during* a burst depends on what
        # the previous mode left behind, and cyclic-GC pauses land on
        # one mode's clock instead of being paid equally by all three.
        gc.collect()
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        tickets = [
            node.submit_update("ledger", {f"doc-{i}": dict(DOCUMENT, seq=i)})
            for i in range(UPDATES)
        ]
        for ticket in tickets:
            node.wait_for_pipeline(ticket, timeout=120.0)
            assert ticket.valid, ticket.diagnostics
        wall = time.perf_counter() - wall_start
        cpu = time.process_time() - cpu_start
        if timer is not None:
            timer.cancel()
        community.settle(None)
        reference = objects[names[0]].get_state()
        for name in names[1:]:
            assert objects[name].get_state() == reference, name
        if live:
            assert obs.flight.recorded > 0, "flight ring never fed"
            assert scrapes[0] > 0, "exporter never scraped"
        return wall, cpu
    finally:
        stop_scraper.set()
        if scraper is not None:
            scraper.join()
        if server is not None:
            server.stop()
        community.close()


def _median(values: "list[float]") -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def test_c14_obs_overhead(report):
    """Live telemetry plane must cost < 10% over hooks-off.

    Writes ``benchmarks/results/BENCH_obs_overhead.json`` so CI can
    gate on the overhead across commits.
    """
    # Warm-up: first runs pay import and key-cache costs for everyone.
    _run_burst(seed=98)
    _run_burst(seed=99, obs=RecordingInstrumentation(), live=True)

    rounds = []
    for index in range(ROUNDS):
        seed = 100 + index
        totals = {"off": [0.0, 0.0], "recording": [0.0, 0.0],
                  "live": [0.0, 0.0]}
        palindrome = ["off", "recording", "live", "live", "recording", "off"]
        for mode in palindrome:
            if mode == "off":
                wall, cpu = _run_burst(seed)
            else:
                wall, cpu = _run_burst(seed, obs=RecordingInstrumentation(),
                                       live=(mode == "live"))
            totals[mode][0] += wall
            totals[mode][1] += cpu
        round_entry = {
            "overhead_recording":
                totals["recording"][1] / totals["off"][1] - 1.0,
            "overhead_live": totals["live"][1] / totals["off"][1] - 1.0,
        }
        for mode, (wall, cpu) in totals.items():
            round_entry[f"{mode}_wall"] = wall / 2.0
            round_entry[f"{mode}_cpu"] = cpu / 2.0
        rounds.append(round_entry)

    best = {mode: min(r[f"{mode}_cpu"] for r in rounds)
            for mode in ("off", "recording", "live")}
    overhead_recording = best["recording"] / best["off"] - 1.0
    overhead_live = best["live"] / best["off"] - 1.0
    overhead_recording_median = _median(
        [r["overhead_recording"] for r in rounds])
    overhead_live_median = _median([r["overhead_live"] for r in rounds])
    medians = {
        mode: {
            "wall": _median([r[f"{mode}_wall"] for r in rounds]),
            "cpu": _median([r[f"{mode}_cpu"] for r in rounds]),
        }
        for mode in ("off", "recording", "live")
    }

    comparison = {
        "experiment": "C14",
        "workload": f"{UPDATES}-update pipelined burst of ~0.5KB documents, "
                    f"{PARTIES} parties, in-memory simulator",
        "smoke": SMOKE,
        "rounds": ROUNDS,
        "scrape_interval_s": SCRAPE_INTERVAL,
        "median_seconds": medians,
        "overhead": {
            "recording": overhead_recording,
            "live": overhead_live,
        },
        "overhead_median": {
            "recording": overhead_recording_median,
            "live": overhead_live_median,
        },
        "budget": MAX_OVERHEAD,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, "BENCH_obs_overhead.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(comparison, handle, indent=2, sort_keys=True)

    rows = [
        ["off (no-op hooks)", medians["off"]["wall"] * 1e3,
         medians["off"]["cpu"] * 1e3, "—", "—"],
        ["recording", medians["recording"]["wall"] * 1e3,
         medians["recording"]["cpu"] * 1e3,
         f"{overhead_recording:+.1%}",
         f"{overhead_recording_median:+.1%}"],
        ["live (+flight+watchdog+scraped exporter)",
         medians["live"]["wall"] * 1e3, medians["live"]["cpu"] * 1e3,
         f"{overhead_live:+.1%}", f"{overhead_live_median:+.1%}"],
    ]
    body = format_table(
        ["instrumentation", "median wall ms", "median cpu ms",
         f"cpu overhead (per-mode best of {ROUNDS} palindrome rounds)",
         "(median)"], rows,
    ) + (f"\n\nbudget: live overhead < {MAX_OVERHEAD:.0%}"
         f"\ncomparison JSON: {json_path}")
    report("C14", "live telemetry plane overhead", body)

    assert overhead_live < MAX_OVERHEAD, (
        f"live telemetry plane costs {overhead_live:+.1%} over hooks-off "
        f"(budget {MAX_OVERHEAD:.0%})"
    )
