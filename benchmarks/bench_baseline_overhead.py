"""Experiment C4 — non-repudiation overhead vs plain 2PC (section 4.3).

The paper frames the protocol as "non-repudiable two-phase commit".  We
isolate what the non-repudiation machinery costs by running the same
replication workload through (a) the full B2BObjects protocol (RSA
signatures, TSA time-stamps, hash-chained evidence logs, journalling) and
(b) the stripped baseline :class:`PlainTwoPhaseEngine` (same three message
steps and unanimity rule, no crypto, no evidence).

Expected shape: identical message counts (both are 3(n-1)); wall-clock
cost dominated by the signature work — B2BObjects is one to two orders of
magnitude slower per run, which is the price of attributable evidence.
"""

from __future__ import annotations

import time

from repro.bench.harness import build_community, found_dict_object
from repro.obs.report import format_table
from repro.protocol.baseline import PlainTwoPhaseEngine

PARTIES = 3
RUNS = 30


def run_b2b(runs=RUNS, seed=1):
    community = build_community(PARTIES, seed=seed)
    controllers, objects = found_dict_object(community)
    network = community.runtime.network
    controller = controllers["Org1"]
    before_msgs = network.stats.delivered
    start = time.perf_counter()
    for i in range(runs):
        controller.enter()
        controller.overwrite()
        objects["Org1"].set_attribute("k", i)
        controller.leave()
        community.settle(2.0)
    elapsed = time.perf_counter() - start
    protocol_msgs = (network.stats.delivered - before_msgs) / 2  # minus acks
    return elapsed / runs, protocol_msgs / runs


def run_plain(runs=RUNS):
    names = [f"Org{i + 1}" for i in range(PARTIES)]
    engines = {name: PlainTwoPhaseEngine(name, "shared", names, {})
               for name in names}
    message_count = 0

    def pump(source, output):
        nonlocal message_count
        queue = [(source, output)]
        while queue:
            sender, out = queue.pop(0)
            for recipient, message in out.messages:
                message_count += 1
                queue.append(
                    (recipient, engines[recipient].handle(sender, message))
                )

    start = time.perf_counter()
    for i in range(runs):
        _run_id, output = engines["Org1"].propose({"k": i})
        pump("Org1", output)
    elapsed = time.perf_counter() - start
    for engine in engines.values():
        assert engine.state == {"k": runs - 1}
    return elapsed / runs, message_count / runs


def test_c4_nonrepudiation_overhead(benchmark, report):
    b2b_time, b2b_msgs = run_b2b()
    plain_time, plain_msgs = run_plain()

    assert b2b_msgs == plain_msgs == 3 * (PARTIES - 1)
    factor = b2b_time / plain_time
    assert factor > 5  # evidence machinery dominates

    community = build_community(PARTIES, seed=5)
    controllers, objects = found_dict_object(community)
    controller = controllers["Org1"]
    counter = iter(range(1_000_000))

    def one_b2b_run():
        controller.enter()
        controller.overwrite()
        objects["Org1"].set_attribute("k", next(counter))
        controller.leave()
        community.settle(2.0)

    benchmark(one_b2b_run)

    rows = [
        ["B2BObjects (signed, stamped, logged)", b2b_time * 1e3, b2b_msgs],
        ["plain 2PC baseline", plain_time * 1e3, plain_msgs],
    ]
    body = format_table(
        ["protocol", "wall ms/run", "protocol msgs/run"], rows
    ) + (
        f"\n\nnon-repudiation overhead factor: {factor:.1f}x "
        "(same message complexity, all extra cost is crypto + evidence)"
    )
    report("C4", "non-repudiation overhead vs plain 2PC", body)
