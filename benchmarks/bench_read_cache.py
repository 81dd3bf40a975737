"""Experiment C17 — validated read-path cache throughput.

The seed read path (``Controller.enter`` with default semantics) makes
every read quiesce: it waits for in-flight coordination to settle before
looking at the object, so read-heavy inter-organisation workloads pay
coordination-round prices for state that only changes at settlement
boundaries.  The read cache (``repro.core.readcache``) publishes an
immutable validated snapshot at every settlement and serves ``cached``
and ``bounded`` reads from it lock-free.

This bench drives closed-loop read/write mixes (90/10 and 99/1) against
one ledger object on a 3-party community over the reactor transport
(binary codec).  Writes are submitted through the non-blocking pipeline
so reads race genuine in-flight settlements; each mix runs once per
consistency mode and reports reads/s.  Two invariants are asserted in
*every* run, smoke included:

* ``bounded`` reads never exceed their staleness bound (0 violations);
* every reader observes monotonically non-decreasing snapshot versions.

The >=5x cached-vs-settled read-throughput floor on the 90/10 mix is
asserted only in full runs — smoke workloads are too short for stable
wall-clock ratios.  Writes
``benchmarks/results/BENCH_read_cache.json`` for CI trend tracking.
"""

from __future__ import annotations

import json
import os
import time

from repro.bench.metrics import format_table
from repro.core import Community, ThreadedRuntime, bounded, cached, settled
from repro.core.object import B2BObject
from repro.transport.tcp import TcpNetwork

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

PARTIES = 3
OPS = 60 if SMOKE else 400
#: bounded-mode staleness budget (seconds).
BOUND = 0.5
#: Wall-clock cost of one application-level validation (policy lookup).
VALIDATION_DELAY = 0.002 if SMOKE else 0.004
MIXES = ((90, 10), (99, 1))
MODES = (
    ("settled", settled),
    ("bounded", lambda: bounded(BOUND)),
    ("cached", cached),
)
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


class LedgerObject(B2BObject):
    """Additive merge whose validation waits on a policy check."""

    def __init__(self, delay: float = VALIDATION_DELAY) -> None:
        super().__init__()
        self._state = {"applied": 0, "total": 0}
        self._delay = delay

    def get_state(self) -> dict:
        return dict(self._state)

    def apply_state(self, state) -> None:
        self._state = dict(state)

    def merge_update(self, state, update):
        amount = int(update.get("n", 1)) if isinstance(update, dict) else 1
        return {"applied": state["applied"] + 1,
                "total": state["total"] + amount}

    def validate_update(self, update, resulting, current, proposer):
        from repro.protocol.validation import Decision

        time.sleep(self._delay)  # the external lookup; GIL released
        return Decision.accept()


def _build_community() -> Community:
    names = [f"Org{i + 1}" for i in range(PARTIES)]
    runtime = ThreadedRuntime(TcpNetwork())
    community = Community(names, runtime=runtime,
                          retransmit_interval=0.5)
    community.found_object("ledger",
                           {name: LedgerObject() for name in names})
    return community


def _write_slots(total_ops: int, writes: int) -> "set[int]":
    """Spread *writes* evenly over *total_ops* op slots."""
    if writes == 0:
        return set()
    return {(i * total_ops) // writes for i in range(writes)}


def _measure(read_pct: int, write_pct: int, mode_name: str,
             mode_factory) -> dict:
    """One closed-loop mix run in one consistency mode."""
    writes_target = max(1, (OPS * write_pct) // 100)
    write_slots = _write_slots(OPS, writes_target)
    community = _build_community()
    try:
        node = community.node("Org1")
        tickets = []
        last_version = -1
        reads = hits = stale_violations = mono_violations = 0
        start = time.perf_counter()
        for op in range(OPS):
            if op in write_slots:
                tickets.append(node.submit_update("ledger", {"n": 1}))
                continue
            result = node.examine("ledger", mode_factory())
            reads += 1
            hits += 1 if result.hit else 0
            if result.version < last_version:
                mono_violations += 1
            last_version = max(last_version, result.version)
            if (result.mode.max_staleness is not None
                    and result.staleness > result.mode.max_staleness):
                stale_violations += 1
        elapsed = time.perf_counter() - start
        done = community.runtime.wait_until(
            lambda: all(t.done for t in tickets), timeout=240.0)
        assert done, (
            f"{sum(1 for t in tickets if not t.done)} of {len(tickets)} "
            f"writes unsettled in {mode_name} {read_pct}/{write_pct} run"
        )
        assert all(t.valid for t in tickets), "writes vetoed unexpectedly"
        final = node.examine("ledger", settled())
        assert final.state["total"] == len(tickets), (
            f"settled total {final.state['total']} != {len(tickets)} writes"
        )
        # The always-on invariants: staleness bounds hold and versions
        # never go backwards, smoke or not.
        assert stale_violations == 0, (
            f"{stale_violations} bounded reads exceeded {BOUND}s"
        )
        assert mono_violations == 0, (
            f"{mono_violations} reads observed a version rollback"
        )
        return {
            "mode": mode_name,
            "mix": f"{read_pct}/{write_pct}",
            "reads": reads,
            "writes": len(tickets),
            "hits": hits,
            "hit_rate": (hits / reads) if reads else 0.0,
            "seconds": elapsed,
            "reads_per_sec": reads / elapsed,
            "stale_violations": stale_violations,
            "mono_violations": mono_violations,
            "final_version": final.version,
        }
    finally:
        community.close()


def _run_mix(read_pct: int, write_pct: int, report, label: str,
             assert_floor: bool) -> dict:
    results = {name: _measure(read_pct, write_pct, name, factory)
               for name, factory in MODES}
    base = results["settled"]["reads_per_sec"]
    speedups = {name: results[name]["reads_per_sec"] / base
                for name in ("bounded", "cached")}
    rows = [
        [r["mode"], r["reads"], r["writes"], f"{r['hit_rate']:.2f}",
         r["seconds"], r["reads_per_sec"],
         f"{speedups.get(r['mode'], 1.0):.2f}x",
         r["stale_violations"], r["mono_violations"]]
        for r in results.values()
    ]
    body = format_table(
        ["mode", "reads", "writes", "hit rate", "seconds", "reads/s",
         "speedup", "stale viol", "mono viol"],
        rows,
    ) + (f"\n\n{read_pct}/{write_pct} read/write mix, {PARTIES} parties, "
         f"reactor transport (binary codec), bounded budget {BOUND:g}s")
    report(label, f"validated read cache, {read_pct}/{write_pct} mix", body)
    payload = {
        "results": results,
        "speedup_bounded": speedups["bounded"],
        "speedup_cached": speedups["cached"],
    }
    _write_results(f"mix_{read_pct}_{write_pct}", payload)
    # The tentpole claim: >=5x read throughput for cache-served modes on
    # the 90/10 mix.  Smoke runs keep the workload too short for stable
    # wall-clock ratios, so the floor is asserted only on full runs.
    if assert_floor and not SMOKE:
        for name in ("bounded", "cached"):
            assert speedups[name] >= 5.0, (
                f"{name} reads reached only {speedups[name]:.2f}x the "
                f"settled read throughput on the {read_pct}/{write_pct} mix"
            )
    return payload


def test_c17_read_mix_90_10(report):
    """Reads/s per consistency mode, 90/10 read/write mix."""
    _run_mix(90, 10, report, "C17", assert_floor=True)


def test_c17b_read_mix_99_1(report):
    """Reads/s per consistency mode, 99/1 read/write mix."""
    _run_mix(99, 1, report, "C17b", assert_floor=False)


def _write_results(section: str, payload: dict) -> None:
    """Merge one section into ``BENCH_read_cache.json`` (tests may run
    individually, so the artifact is updated incrementally)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "BENCH_read_cache.json")
    merged = {"experiment": "C17", "smoke": SMOKE}
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
