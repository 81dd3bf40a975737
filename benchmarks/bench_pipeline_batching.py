"""Experiment C12 — proposal pipeline with batched coordination rounds.

The paper's protocol costs 3(n-1) messages and 2(n-1)+1 signatures per
coordination run *regardless of how much state change the run carries*
(section 4.4).  The proposal pipeline exploits exactly that: updates
submitted while a run is in flight are coalesced into one batched
proposal (``update_batch`` mode), so a burst of k updates settles in a
handful of runs instead of k.

This bench drives the same burst of updates through one organisation
twice — serially (one coordination run per update) and through the
pipeline (batched runs) — over the in-memory simulator for 2..5 parties
and over loopback TCP, and reports the speedup.  The comparison
JSON is written to ``benchmarks/results/BENCH_pipeline_batching.json``
so CI can track the batching win across commits.

Expected shape: the pipelined burst needs far fewer runs (and therefore
signatures and messages), so it completes several times faster; the gap
widens with party count because every avoided run saves 3(n-1)
messages.
"""

from __future__ import annotations

import json
import os
import time

from repro.bench.metrics import format_table
from repro.core import Community, DictB2BObject, SimRuntime, ThreadedRuntime
from repro.obs.recording import RecordingInstrumentation

#: ``REPRO_BENCH_SMOKE=1`` shrinks the workload so CI can run this bench
#: on every push and still produce the comparison JSON artifact.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

UPDATES = 12 if SMOKE else 40
INMEMORY_SIZES = (2, 3) if SMOKE else (2, 3, 4, 5)
TCP_SIZES = (2,) if SMOKE else (2, 3)
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Floor asserted for the headline configuration (3 parties, inmemory):
#: a burst of updates must settle at least this many times faster
#: pipelined+batched than one-coordination-run-per-update.
MIN_SPEEDUP_3P = 3.0


def _build(transport: str, n_parties: int, seed: int, obs=None):
    names = [f"Org{i + 1}" for i in range(n_parties)]
    if transport == "inmemory":
        runtime = SimRuntime(seed=seed)
    else:
        runtime = ThreadedRuntime()
    community = Community(names, runtime=runtime, retransmit_interval=0.2,
                          obs=obs)
    objects = {name: DictB2BObject() for name in names}
    community.found_object("ledger", objects)
    return community, names, objects


def _check_converged(community, names, objects) -> None:
    reference = objects[names[0]].get_state()
    assert reference.get("k") == UPDATES - 1, reference
    for name in names[1:]:
        assert objects[name].get_state() == reference, name
    for name in names:
        assert not community.node(name).misbehaviour_reports, name


def run_serial(transport: str, n_parties: int, seed: int) -> dict:
    """One coordination run per update, each awaited before the next."""
    community, names, objects = _build(transport, n_parties, seed)
    try:
        node = community.node(names[0])
        start = time.perf_counter()
        for i in range(UPDATES):
            ticket = node.propagate_update("ledger", {"k": i})
            node.wait_for_ticket(ticket, timeout=120.0)
            assert ticket.valid, ticket.diagnostics
        elapsed = time.perf_counter() - start
        community.settle(0.2 if transport == "tcp" else None)
        _check_converged(community, names, objects)
        return {"mode": "serial", "seconds": elapsed, "runs": UPDATES}
    finally:
        community.close()


def run_pipelined(transport: str, n_parties: int, seed: int) -> dict:
    """All updates submitted up front; the pipeline batches them."""
    obs = RecordingInstrumentation()
    community, names, objects = _build(transport, n_parties, seed, obs=obs)
    try:
        node = community.node(names[0])
        start = time.perf_counter()
        tickets = [node.submit_update("ledger", {"k": i})
                   for i in range(UPDATES)]
        for ticket in tickets:
            node.wait_for_pipeline(ticket, timeout=120.0)
            assert ticket.valid, ticket.diagnostics
        elapsed = time.perf_counter() - start
        community.settle(0.2 if transport == "tcp" else None)
        _check_converged(community, names, objects)
        registry = obs.registry
        runs = registry.counter_value("protocol.runs.started.proposer")
        batch = registry.histogram("pipeline.batch_size").summary()
        return {
            "mode": "pipelined",
            "seconds": elapsed,
            "runs": runs,
            "batched_proposals": registry.counter_value("pipeline.batches"),
            "updates_batched":
                registry.counter_value("pipeline.batched_updates"),
            "max_batch_size": batch["max"],
            "busy_retries": registry.counter_value("pipeline.busy_retries"),
        }
    finally:
        community.close()


def test_c12_pipeline_batching(report):
    """Tentpole comparison: batched pipeline vs run-per-update.

    Writes ``benchmarks/results/BENCH_pipeline_batching.json`` so CI can
    track the batching speedup across commits.
    """
    seeds = iter(range(1, 100))
    configs = [("inmemory", n) for n in INMEMORY_SIZES]
    configs += [("tcp", n) for n in TCP_SIZES]

    rows = []
    results = []
    for transport, n_parties in configs:
        serial = run_serial(transport, n_parties, next(seeds))
        pipelined = run_pipelined(transport, n_parties, next(seeds))
        speedup = serial["seconds"] / pipelined["seconds"]
        results.append({
            "transport": transport,
            "parties": n_parties,
            "serial": serial,
            "pipelined": pipelined,
            "speedup": speedup,
        })
        rows.append([
            transport, n_parties,
            serial["seconds"] * 1e3, serial["runs"],
            pipelined["seconds"] * 1e3, pipelined["runs"],
            pipelined["max_batch_size"], f"{speedup:.2f}x",
        ])

    comparison = {
        "experiment": "C12",
        "workload": f"{UPDATES} updates from one proposer, "
                    "serial vs batched pipeline",
        "smoke": SMOKE,
        "results": results,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, "BENCH_pipeline_batching.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(comparison, handle, indent=2, sort_keys=True)

    body = format_table(
        ["transport", "parties", "serial ms", "serial runs",
         "pipelined ms", "pipelined runs", "max batch", "speedup"],
        rows,
    ) + (f"\n\nsame agreed state and clean evidence in every "
         f"configuration\ncomparison JSON: {json_path}")
    report("C12", "batched proposal pipeline vs run-per-update", body)

    headline = [r for r in results
                if r["transport"] == "inmemory" and r["parties"] == 3]
    for result in headline:
        assert result["speedup"] >= MIN_SPEEDUP_3P, (
            f"3-party inmemory batching only {result['speedup']:.2f}x"
        )
