"""Experiment C6 — connection/disconnection/eviction cost (section 4.5).

Measures the message cost of each membership protocol as the group grows:
connect (request, proposal to n-1 members, responses, commit, welcome),
voluntary disconnect, and eviction.  Expected shape: all three are O(n)
in messages, connect costs slightly more (request + state-transfer
welcome), and every run leaves all members with identical group views.
"""

from __future__ import annotations

from repro.core import Community, DictB2BObject, SimRuntime
from repro.obs.report import format_table


def build(n, seed=0):
    names = [f"Org{i + 1}" for i in range(n)]
    community = Community(names, runtime=SimRuntime(seed=seed))
    objects = {name: DictB2BObject({"v": 1}) for name in names}
    controllers = community.found_object("shared", objects)
    return community, controllers


def measure_membership(n, seed):
    community, controllers = build(n, seed=seed)
    network = community.runtime.network

    # connect
    community.add_organisation("Joiner")
    sponsor = controllers["Org1"].members()[-1]
    before = network.stats.delivered
    joiner_controller = community.node("Joiner").connect(
        "shared", DictB2BObject({"v": 1}), sponsor
    )
    community.settle(2.0)
    connect_msgs = (network.stats.delivered - before) / 2  # minus acks

    views = {tuple(community.node(name).party.session("shared").group.members)
             for name in community.names()}
    assert len(views) == 1

    # voluntary disconnect (the joiner leaves again)
    before = network.stats.delivered
    joiner_controller.disconnect()
    community.settle(2.0)
    disconnect_msgs = (network.stats.delivered - before) / 2

    # eviction of the most recently joined original member
    before = network.stats.delivered
    controllers["Org1"].evict([f"Org{n}"])
    community.settle(2.0)
    evict_msgs = (network.stats.delivered - before) / 2
    survivors = [name for name in community.names()
                 if name not in ("Joiner", f"Org{n}")]
    views = {tuple(community.node(name).party.session("shared").group.members)
             for name in survivors}
    assert len(views) == 1

    return connect_msgs, disconnect_msgs, evict_msgs


def test_c6_membership_protocol_cost(benchmark, report):
    rows = []
    by_n = {}
    for n in (2, 3, 4, 6, 8, 12):
        connect_msgs, disconnect_msgs, evict_msgs = measure_membership(
            n, seed=n)
        rows.append([n, connect_msgs, disconnect_msgs, evict_msgs])
        by_n[n] = connect_msgs

    # Shape: linear growth — doubling n roughly doubles the message cost
    # (never quadruples it).
    assert by_n[12] > by_n[3]
    assert by_n[12] / by_n[3] < (12 / 3) ** 2 / 2

    seeds = iter(range(100, 1_000_000))

    def one_join():
        community, controllers = build(3, seed=next(seeds))
        community.add_organisation("Joiner")
        sponsor = controllers["Org1"].members()[-1]
        community.node("Joiner").connect("shared",
                                         DictB2BObject({"v": 1}), sponsor)
        community.settle(2.0)

    benchmark.pedantic(one_join, rounds=10, iterations=1)

    body = format_table(
        ["group size n", "connect msgs", "voluntary disconnect msgs",
         "evict msgs"],
        rows,
    ) + "\n\nall membership changes left consistent group views: yes"
    report("C6", "membership protocol cost vs group size", body)
