"""Experiment C16 — multi-object shard scheduler scale-out.

One :class:`~repro.core.node.OrganisationNode` used to coordinate one
run at a time however many independent B2BObjects it hosted.  The shard
scheduler (``repro.core.shards``) partitions objects across shards, each
with its own engine lock, worker thread and pipeline group, so
independent objects' m1/m2/m3 runs proceed concurrently.

This bench drives the scaling curve the ISSUE 9 tentpole claims on a
64-object, 3-party workload over the reactor transport (binary codec):
aggregate settled updates/s as the shard count grows.  ``shard_run_slots
= 1`` makes the shard the unit of in-flight-run concurrency — one shard
coordinates strictly serially, eight shards keep eight runs in flight —
so the curve isolates the latency-hiding the scheduler buys, not
incidental CPU parallelism (the suite runs on one core).

The workload object models what dominates real inter-organisation
validation latency: an application-level policy check (a database
lookup, a stock or credit query) that *waits* rather than computes.
Each ``validate_update`` blocks for ``VALIDATION_DELAY`` without holding
the interpreter lock.  A single shard — the pre-scheduler architecture,
where one dispatch path handles every object inline — pays those waits
end to end; with N shards the waits of N independent runs overlap, which
is exactly the concurrency the scheduler exists to reclaim.

Also exercises the cross-shard composite transaction under concurrent
per-child traffic: the transaction must settle atomically (no partial
child application) while ordinary updates race its children.

Writes ``benchmarks/results/BENCH_sharding.json`` for CI trend
tracking; ``REPRO_BENCH_SMOKE=1`` shrinks the workload for the CI smoke
gate (the >=2x scaling floor is asserted only in full runs — smoke
windows are too short for stable wall-clock ratios).
"""

from __future__ import annotations

import json
import os
import time

from repro.bench.metrics import format_table
from repro.core import Community, DictB2BObject, ThreadedRuntime
from repro.core.object import B2BObject
from repro.transport.tcp import TcpNetwork

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

PARTIES = 3
OBJECTS = 16 if SMOKE else 64
UPDATES_PER_OBJECT = 2 if SMOKE else 4
SHARD_COUNTS = (1, 4) if SMOKE else (1, 2, 4, 8)
#: Wall-clock cost of one application-level validation (policy lookup).
VALIDATION_DELAY = 0.003 if SMOKE else 0.012
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


class PolicyCheckObject(B2BObject):
    """Dict-merge object whose validation waits on a policy check."""

    def __init__(self, delay: float = VALIDATION_DELAY) -> None:
        super().__init__()
        self._state: dict = {}
        self._delay = delay

    def get_state(self) -> dict:
        return dict(self._state)

    def apply_state(self, state) -> None:
        self._state = dict(state)

    def merge_update(self, state, update):
        merged = dict(state)
        merged.update(update)
        return merged

    def validate_update(self, update, resulting, current, proposer):
        from repro.protocol.validation import Decision

        time.sleep(self._delay)  # the external lookup; GIL released
        return Decision.accept()


class CounterObject(B2BObject):
    """Additive merge: every applied update is visible in the state."""

    def __init__(self) -> None:
        super().__init__()
        self._state = {"applied": 0, "total": 0}

    def get_state(self) -> dict:
        return dict(self._state)

    def apply_state(self, state) -> None:
        self._state = dict(state)

    def merge_update(self, state, update):
        amount = int(update.get("n", 1)) if isinstance(update, dict) else 1
        return {"applied": state["applied"] + 1,
                "total": state["total"] + amount}


def _build_community(num_shards: int, objects: "list[str]",
                     obj_cls=DictB2BObject) -> Community:
    names = [f"Org{i + 1}" for i in range(PARTIES)]
    runtime = ThreadedRuntime(TcpNetwork())
    community = Community(names, runtime=runtime,
                          retransmit_interval=0.5,
                          num_shards=num_shards,
                          shard_run_slots=1)
    for object_name in objects:
        community.found_object(object_name,
                               {name: obj_cls() for name in names})
    return community


def _measure_scaleout(num_shards: int) -> dict:
    """Aggregate settled updates/s at one shard count."""
    objects = [f"obj-{i}" for i in range(OBJECTS)]
    community = _build_community(num_shards, objects,
                                 obj_cls=PolicyCheckObject)
    try:
        node = community.node("Org1")
        spread = node.shards.map.spread(objects)
        tickets = []
        start = time.perf_counter()
        for round_index in range(UPDATES_PER_OBJECT):
            for object_name in objects:
                tickets.append(node.submit_update(
                    object_name, {f"r{round_index}": round_index}))
        settled = community.runtime.wait_until(
            lambda: all(t.done for t in tickets), timeout=240.0)
        elapsed = time.perf_counter() - start
        assert settled, (
            f"{sum(1 for t in tickets if not t.done)} of {len(tickets)} "
            f"updates unsettled at {num_shards} shards"
        )
        assert all(t.valid for t in tickets), "updates vetoed unexpectedly"
        return {
            "shards": num_shards,
            "shards_used": len(spread),
            "workers": node.shards.workers,
            "objects": OBJECTS,
            "parties": PARTIES,
            "updates": len(tickets),
            "seconds": elapsed,
            "settled_per_sec": len(tickets) / elapsed,
        }
    finally:
        community.close()


def test_c16_shard_scaleout(report):
    """Settled updates/s vs shard count, 64 objects x 3 parties."""
    results = [_measure_scaleout(n) for n in SHARD_COUNTS]
    base = results[0]["settled_per_sec"]
    for result in results:
        result["speedup"] = result["settled_per_sec"] / base

    rows = [
        [r["shards"], r["shards_used"], r["objects"], r["updates"],
         r["seconds"], r["settled_per_sec"], f"{r['speedup']:.2f}x"]
        for r in results
    ]
    body = format_table(
        ["shards", "used", "objects", "updates", "seconds",
         "settled/s", "speedup"],
        rows,
    )
    report("C16", "multi-object shard scheduler scale-out", body)
    _write_results("scaleout", {
        "results": results,
        "max_speedup": results[-1]["speedup"],
    })
    # The tentpole claim: >=2x aggregate settled updates/s at 8 shards
    # vs 1 on the 64-object 3-party workload.  Smoke runs keep the
    # workload too short for stable wall-clock ratios, so the floor is
    # asserted only on full runs.
    if not SMOKE:
        speedup = results[-1]["speedup"]
        assert speedup >= 2.0, (
            f"{SHARD_COUNTS[-1]} shards reached only {speedup:.2f}x the "
            f"single-shard settled-update throughput"
        )


def test_c16b_cross_shard_transaction_atomicity(report):
    """A composite transaction stays atomic under per-child traffic."""
    children = ["tx-alpha", "tx-beta", "tx-gamma"]
    side_updates = 2 if SMOKE else 5
    community = _build_community(4 if SMOKE else 8, children,
                                 obj_cls=CounterObject)
    try:
        submitter = community.node("Org1")
        rival = community.node("Org2")
        spread = submitter.shards.map.spread(children)
        side = [rival.submit_update(name, {"n": 1})
                for name in children for _ in range(side_updates)]
        ticket = submitter.submit_composite(
            {name: {"n": 100} for name in children})
        assert not ticket.aborted, ticket.diagnostics
        done = community.runtime.wait_until(
            lambda: ticket.done and all(t.done for t in side),
            timeout=120.0)
        assert done, "transaction or side traffic did not settle"
        assert ticket.valid, ticket.child_diagnostics()
        assert not ticket.partial, "partial child application observed"
        expected = {"applied": side_updates + 1,
                    "total": side_updates + 100}
        states = {}
        for name in children:
            state = submitter.controllers[name].b2b_object.get_state()
            states[name] = state
            assert state == expected, (
                f"{name} diverged under concurrent traffic: {state}"
            )
        rows = [[name, submitter.shards.map.shard_of(name),
                 states[name]["applied"], states[name]["total"]]
                for name in children]
        body = format_table(
            ["child", "shard", "applied", "total"], rows,
        ) + (f"\n\ncross-shard children over {len(spread)} shards settled "
             f"atomically under {len(side)} concurrent rival updates")
        report("C16b", "cross-shard transaction atomicity", body)
        _write_results("transaction", {
            "children": len(children),
            "shards_used": len(spread),
            "side_updates": len(side),
            "partial": ticket.partial,
            "valid": bool(ticket.valid),
        })
    finally:
        community.close()


def _write_results(section: str, payload: dict) -> None:
    """Merge one section into ``BENCH_sharding.json`` (tests may run
    individually, so the artifact is updated incrementally)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_sharding.json")
    merged = {"experiment": "C16", "smoke": SMOKE}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                merged.update(json.load(handle))
        except (OSError, ValueError):
            pass
    merged["smoke"] = SMOKE
    merged[section] = payload
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
