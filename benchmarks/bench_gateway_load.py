"""Experiment C13 — closed-loop client load through the gateway.

The paper's middleware coordinates a handful of organisations; the
population *behind* each organisation is orders of magnitude larger.
``repro.gateway`` is the front door that makes that population safe to
admit: token-bucket rate limiting, one bounded write queue per object,
idempotency keys and a per-object circuit breaker.

This bench drives a closed-loop simulated client population (10^5
clients in the full run) against a two-organisation community over the
in-memory virtual-time transport and reports settled updates/s plus
p50/p95/p99 admission-to-settlement latency from ``repro.obs``.  Three
further phases check the gateway's qualitative claims:

* a handful of *hot* clients are capped by the rate limiter without
  starving the rest of the population;
* a crash-induced degradation trips the circuit breaker open, and
  half-open probes close it again once the community recovers;
* duplicate submissions under the same idempotency keys are never
  applied twice (the shared counter's additive merge would expose it).

Results land in ``benchmarks/results/BENCH_gateway_load.json`` so CI
can track gateway throughput across commits.
"""

from __future__ import annotations

import json
import os
import time

from repro.bench.metrics import format_table
from repro.faults import FaultSchedule
from repro.gateway import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    LoadSimConfig,
    build_gateway_community,
    run_load_sim,
)
from repro.obs.recording import RecordingInstrumentation

#: ``REPRO_BENCH_SMOKE=1`` shrinks the population so CI can run this
#: bench on every push and still produce the JSON artifact.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

CLIENTS = 2_000 if SMOKE else 100_000
ARRIVAL_WINDOW = 2.0 if SMOKE else 100.0
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Floor asserted on virtual-time throughput for the headline phase —
#: batching must keep the community far above one-update-per-run pace.
MIN_UPDATES_PER_VIRTUAL_S = 200.0


def _gateway_percentiles(registry) -> dict:
    summary = registry.histogram("gateway.settle_seconds").summary()
    return {key: summary[key] for key in ("p50", "p95", "p99")}


def phase_throughput(seed: int) -> dict:
    """Headline: the full population, one request each, no rejections."""
    obs = RecordingInstrumentation()
    community, gateway, name = build_gateway_community(
        seed=seed, obs=obs, queue_capacity=4096,
        pipeline_options={"max_batch": 256})
    try:
        config = LoadSimConfig(clients=CLIENTS, requests_per_client=1,
                               arrival_window=ARRIVAL_WINDOW, seed=seed)
        start = time.perf_counter()
        stats = run_load_sim(community, gateway, name, config)
        wall = time.perf_counter() - start
        state = community.node("Org1").controllers[name] \
            .b2b_object.get_state()
        assert stats.settled_valid == CLIENTS, stats.summary()
        assert stats.gave_up == 0
        # Exactly-once: the additive merge counts every application.
        assert state["applied"] == stats.settled_valid, state
        latency = _gateway_percentiles(obs.registry)
        return {
            "phase": "throughput",
            "clients": CLIENTS,
            "settled_valid": stats.settled_valid,
            "elapsed_virtual_s": stats.elapsed,
            "updates_per_virtual_s": stats.throughput,
            "wall_s": wall,
            "updates_per_wall_s": stats.settled_valid / wall,
            "latency_s": latency,
            "rejected": gateway.stats()["rejected"],
        }
    finally:
        community.close()


def phase_hot_clients(seed: int) -> dict:
    """Rate limiter caps the hot clients; nobody else is starved."""
    clients = max(60, CLIENTS // 200)
    hot = 3
    hot_factor = 20
    community, gateway, name = build_gateway_community(
        seed=seed, rate=20.0, burst=2.0,
        pipeline_options={"max_batch": 128})
    try:
        config = LoadSimConfig(clients=clients, requests_per_client=2,
                               arrival_window=0.5, hot_clients=hot,
                               hot_factor=hot_factor, seed=seed)
        stats = run_load_sim(community, gateway, name, config)
        expected = (clients - hot) * 2 + hot * 2 * hot_factor
        rate_limited = stats.retries.get("RateLimitedError", 0)
        assert rate_limited > 0, "hot clients were never throttled"
        assert stats.settled_valid == expected, stats.summary()
        assert stats.gave_up == 0, "rate limiting starved a client"
        state = community.node("Org1").controllers[name] \
            .b2b_object.get_state()
        assert state["applied"] == expected, state
        return {
            "phase": "hot_clients",
            "clients": clients,
            "hot_clients": hot,
            "hot_factor": hot_factor,
            "settled_valid": stats.settled_valid,
            "rate_limited_attempts": rate_limited,
            "elapsed_virtual_s": stats.elapsed,
            "rejected": gateway.stats()["rejected"],
        }
    finally:
        community.close()


def phase_circuit_breaker(seed: int) -> dict:
    """A crash degrades settlement; the breaker opens, probes, closes."""
    clients = max(100, CLIENTS // 500)
    community, gateway, name = build_gateway_community(
        seed=seed, queue_capacity=512,
        breaker={"failure_threshold": 3, "window": 10,
                 "latency_threshold": 0.5, "reset_timeout": 2.0,
                 "probes": 2},
        pipeline_options={"max_batch": 128})
    try:
        FaultSchedule(community).crash("Org2", 0.5, 2.5).arm()
        config = LoadSimConfig(clients=clients, requests_per_client=4,
                               arrival_window=0.4, think_time=0.05,
                               max_retries=200, seed=seed)
        stats = run_load_sim(community, gateway, name, config)
        breaker = gateway.breaker(name)
        states = [(old, new) for _, old, new in breaker.transitions]
        assert (CLOSED, OPEN) in states, states
        assert (OPEN, HALF_OPEN) in states, states
        assert (HALF_OPEN, CLOSED) in states, states
        assert breaker.state == CLOSED
        circuit_open = stats.retries.get("CircuitOpenError", 0)
        assert circuit_open > 0, "breaker never failed a request fast"
        state = community.node("Org1").controllers[name] \
            .b2b_object.get_state()
        assert state["applied"] == stats.settled_valid, state
        return {
            "phase": "circuit_breaker",
            "clients": clients,
            "settled_valid": stats.settled_valid,
            "circuit_open_rejections": circuit_open,
            "gave_up": stats.gave_up,
            "breaker_transitions": states,
            "elapsed_virtual_s": stats.elapsed,
            "rejected": gateway.stats()["rejected"],
        }
    finally:
        community.close()


def phase_idempotent_retries(seed: int) -> dict:
    """Aggressive duplicate submission: zero double applications."""
    clients = max(50, CLIENTS // 1000)
    community, gateway, name = build_gateway_community(
        seed=seed, pipeline_options={"max_batch": 128})
    try:
        tickets = []
        for index in range(clients):
            session = gateway.session(f"dup{index}")
            key = f"op-{index}"
            update = {"client": session.client_id, "n": 1}
            ticket = session.submit(name, update, key=key)
            # Duplicate immediately (still pending) ...
            assert session.submit(name, update, key=key) is ticket
            tickets.append((session, ticket))
        community.settle()
        replays = 0
        for session, ticket in tickets:
            assert ticket.done and ticket.valid, ticket.diagnostics
            # ... and again after settlement (replayed outcome).
            replay = session.retry(ticket)
            assert replay.replayed and replay.run_id == ticket.run_id
            replays += 1
        state = community.node("Org1").controllers[name] \
            .b2b_object.get_state()
        assert state["applied"] == clients, state
        return {
            "phase": "idempotent_retries",
            "clients": clients,
            "duplicate_submissions": clients * 2,
            "replays": replays,
            "applied": state["applied"],
        }
    finally:
        community.close()


def test_c13_gateway_load(report):
    """Tentpole load run + qualitative gateway guarantees.

    Writes ``benchmarks/results/BENCH_gateway_load.json`` so CI can
    track gateway throughput across commits.
    """
    throughput = phase_throughput(seed=1)
    hot = phase_hot_clients(seed=2)
    breaker = phase_circuit_breaker(seed=3)
    idempotency = phase_idempotent_retries(seed=4)

    results = {
        "experiment": "C13",
        "workload": f"{CLIENTS} closed-loop clients through the gateway "
                    "(inmemory transport, 2 organisations)",
        "smoke": SMOKE,
        "phases": [throughput, hot, breaker, idempotency],
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, "BENCH_gateway_load.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)

    latency = throughput["latency_s"]
    rows = [
        ["clients", throughput["clients"]],
        ["settled updates", throughput["settled_valid"]],
        ["updates/s (virtual time)",
         f"{throughput['updates_per_virtual_s']:.0f}"],
        ["updates/s (wall clock)",
         f"{throughput['updates_per_wall_s']:.0f}"],
        ["settle latency p50", f"{latency['p50'] * 1e3:.1f} ms"],
        ["settle latency p95", f"{latency['p95'] * 1e3:.1f} ms"],
        ["settle latency p99", f"{latency['p99'] * 1e3:.1f} ms"],
        ["hot clients rate-limited attempts",
         hot["rate_limited_attempts"]],
        ["breaker fast-fail rejections",
         breaker["circuit_open_rejections"]],
        ["breaker transitions",
         " -> ".join(new for _, new in breaker["breaker_transitions"])],
        ["duplicate submissions replayed", idempotency["replays"]],
        ["double applications", 0],
    ]
    body = format_table(["metric", "value"], rows) + (
        f"\n\nexactly-once held in every phase (additive counter merge)"
        f"\ncomparison JSON: {json_path}")
    report("C13", "closed-loop client load through the gateway", body)

    assert throughput["updates_per_virtual_s"] >= MIN_UPDATES_PER_VIRTUAL_S
    if not SMOKE:
        assert throughput["clients"] >= 100_000
