"""Experiment C9 — communication modes (section 5).

The middleware supports synchronous, deferred-synchronous and
asynchronous coordination.  Workload: one organisation pushes one update
to each of K independent shared objects.

* synchronous — each `leave` blocks for the full protocol round trip;
* deferred-synchronous — all K proposals are launched back to back, then
  `coord_commit` collects them, overlapping the network rounds;
* asynchronous — same launch pattern, completion via `coordCallback`.

Expected shape: deferred and asynchronous pipelining finish the batch in
roughly one round-trip of virtual time instead of K.
"""

from __future__ import annotations

from repro.core import (
    ASYNCHRONOUS,
    DEFERRED_SYNCHRONOUS,
    SYNCHRONOUS,
    Community,
    DictB2BObject,
    SimRuntime,
)
from repro.obs.report import format_table
from repro.protocol.events import RunCompleted

K = 5


def build(mode, seed):
    community = Community(["Org1", "Org2"], runtime=SimRuntime(seed=seed))
    controllers = []
    objects = []
    for index in range(K):
        replicas = {n: DictB2BObject() for n in community.names()}
        ctrls = community.found_object(f"obj{index}", replicas, mode=mode)
        controllers.append(ctrls["Org1"])
        objects.append(replicas)
    return community, controllers, objects


def run_mode(mode, seed):
    community, controllers, objects = build(mode, seed)
    network = community.runtime.network
    start = network.now()
    tickets = []
    callbacks = []
    if mode == ASYNCHRONOUS:
        for replicas in objects:
            replicas["Org1"].coord_callback = callbacks.append
    for index, controller in enumerate(controllers):
        controller.enter()
        controller.overwrite()
        objects[index]["Org1"].set_attribute("v", index)
        tickets.append(controller.leave())
    if mode == DEFERRED_SYNCHRONOUS:
        for controller, ticket in zip(controllers, tickets):
            controller.coord_commit(ticket)
    elif mode == ASYNCHRONOUS:
        community.runtime.wait_until(
            lambda: sum(1 for e in callbacks
                        if isinstance(e, RunCompleted)) >= K,
            timeout=30.0,
        )
    elapsed = network.now() - start
    community.settle(2.0)
    for index, replicas in enumerate(objects):
        assert replicas["Org2"].get_attribute("v") == index
    return elapsed


def test_c9_communication_modes(benchmark, report):
    sync_time = run_mode(SYNCHRONOUS, seed=1)
    deferred_time = run_mode(DEFERRED_SYNCHRONOUS, seed=2)
    async_time = run_mode(ASYNCHRONOUS, seed=3)

    # Shape: pipelining beats serial blocking by roughly the batch size.
    assert deferred_time < sync_time / 2
    assert async_time < sync_time / 2

    def deferred_batch():
        run_mode(DEFERRED_SYNCHRONOUS, seed=4)

    benchmark.pedantic(deferred_batch, rounds=8, iterations=1)

    rows = [
        [SYNCHRONOUS, sync_time],
        [DEFERRED_SYNCHRONOUS, deferred_time],
        [ASYNCHRONOUS, async_time],
    ]
    body = format_table(
        ["mode", f"virtual time for {K}-object batch (s)"], rows
    ) + (
        f"\n\npipelining speed-up: {sync_time / deferred_time:.1f}x "
        "(deferred), "
        f"{sync_time / async_time:.1f}x (asynchronous)"
    )
    report("C9", "synchronous vs deferred vs asynchronous modes", body)
