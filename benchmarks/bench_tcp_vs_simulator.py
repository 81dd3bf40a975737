"""Experiment C11 — the real-network prototype (section 5).

The paper's prototype ran over Java RMI between organisations; ours runs
the identical protocol stack over loopback TCP (stdlib sockets) or the
deterministic simulator.  This bench characterises the real-transport
cost: wall-clock time per coordination run over TCP, compared with the
same run driven on the in-memory simulator, for 2 and 3 parties.

Expected shape: both transports agree on semantics (same outcomes, same
evidence); TCP adds real socket/thread latency per run but stays in the
tens of milliseconds on loopback.
"""

from __future__ import annotations

import os
import time

from repro.core import Community, DictB2BObject, SimRuntime, ThreadedRuntime
from repro.obs.report import format_table

#: ``REPRO_BENCH_SMOKE=1`` shrinks the workload.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

RUNS = 3 if SMOKE else 10


def run_over(runtime_factory, n_parties, seed=0):
    runtime = runtime_factory()
    try:
        names = [f"Org{i + 1}" for i in range(n_parties)]
        community = Community(names, runtime=runtime,
                              retransmit_interval=0.2)
        objects = {name: DictB2BObject() for name in names}
        controllers = community.found_object("shared", objects)
        controller = controllers["Org1"]
        start = time.perf_counter()
        for i in range(RUNS):
            controller.enter()
            controller.overwrite()
            objects["Org1"].set_attribute("k", i)
            controller.leave()
        elapsed = (time.perf_counter() - start) / RUNS
        runtime.settle(0.2 if isinstance(runtime, ThreadedRuntime) else None)
        for name in names:
            assert objects[name].get_attribute("k") == RUNS - 1, name
        evidence_ok = all(
            community.node(name).ctx.evidence.verify_chain() > 0
            for name in names
        )
        return elapsed, evidence_ok
    finally:
        runtime.close()


def test_c11_tcp_vs_simulator(benchmark, report):
    rows = []
    seeds = iter(range(1, 100))
    for n in (2, 3):
        sim_time, sim_ok = run_over(
            lambda: SimRuntime(seed=next(seeds)), n)
        tcp_time, tcp_ok = run_over(ThreadedRuntime, n)
        assert sim_ok and tcp_ok
        rows.append([n, sim_time * 1e3, tcp_time * 1e3,
                     tcp_time / sim_time])

    # Benchmark one 2-party coordination run over real TCP.
    runtime = ThreadedRuntime()
    try:
        community = Community(["Org1", "Org2"], runtime=runtime,
                              retransmit_interval=0.2)
        objects = {n: DictB2BObject() for n in ["Org1", "Org2"]}
        controllers = community.found_object("shared", objects)
        controller = controllers["Org1"]
        counter = iter(range(1_000_000))

        def one_tcp_run():
            controller.enter()
            controller.overwrite()
            objects["Org1"].set_attribute("k", next(counter))
            controller.leave()

        benchmark.pedantic(one_tcp_run, rounds=15, iterations=1)
    finally:
        runtime.close()

    body = format_table(
        ["parties", "simulator wall ms/run", "TCP loopback wall ms/run",
         "TCP/simulator"],
        rows,
    ) + ("\n\nidentical outcomes and verified evidence chains on both "
         "transports: yes")
    report("C11", "real TCP transport vs simulator", body)
