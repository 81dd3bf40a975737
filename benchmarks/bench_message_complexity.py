"""Experiment C1 — message efficiency claim (section 7).

"[The protocol] is also efficient in terms of the number of messages
required (3(n-1) for n parties)": m1 to each of the n-1 recipients, one
m2 from each, and m3 to each.

We count raw protocol messages per run for n = 2..16 on a loss-free
network and check the measured count equals the formula exactly.  The
reliable layer's acknowledgements (one per protocol message) are reported
separately — they are transport cost, not protocol cost.
"""

from __future__ import annotations

from repro.bench.harness import (
    build_community,
    found_dict_object,
    protocol_message_count,
)
from repro.bench.metrics import MessageCounter
from repro.obs.report import format_table


def messages_per_run(n_parties, runs=3, seed=0):
    community = build_community(n_parties, seed=seed)
    controllers, objects = found_dict_object(community)
    network = community.runtime.network
    counter = MessageCounter()
    counter.start(network)
    controller = controllers["Org1"]
    for i in range(runs):
        controller.enter()
        controller.overwrite()
        objects["Org1"].set_attribute("k", i)
        controller.leave()
        community.settle(2.0)
    delta = counter.delta(network)
    # delivered counts protocol messages + their acks (1 ack each).
    delivered_per_run = delta["delivered"] / runs
    return delivered_per_run / 2, delivered_per_run / 2


def test_c1_message_complexity(benchmark, report):
    rows = []
    for n in (2, 3, 4, 6, 8, 12, 16):
        protocol_msgs, acks = messages_per_run(n)
        expected = protocol_message_count(n)
        rows.append([n, expected, protocol_msgs, acks])
        assert protocol_msgs == expected, (n, protocol_msgs)

    # Benchmark a 4-party coordination run end to end.
    community = build_community(4, seed=9)
    controllers, objects = found_dict_object(community)
    controller = controllers["Org1"]
    counter = iter(range(1_000_000))

    def one_run():
        controller.enter()
        controller.overwrite()
        objects["Org1"].set_attribute("k", next(counter))
        controller.leave()
        community.settle(2.0)

    benchmark(one_run)

    body = format_table(
        ["parties n", "3(n-1) formula", "measured protocol msgs/run",
         "reliable-layer acks/run"],
        rows,
    ) + "\n\nmeasured == formula for every n: yes (O(n) per run)"
    report("C1", "message complexity 3(n-1)", body)
