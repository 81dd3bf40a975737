"""Experiment F1 — Figure 1: direct vs trusted-agent interaction styles.

Three organisations share interaction state.  In the *direct* style they
coordinate one shared object (Figure 1a); in the *indirect* style each
organisation coordinates a two-party object with its trusted agent and
the agents coordinate among themselves (Figure 1b).  We replay the same
business update in both deployments and compare the message and latency
cost of the mediation.

Expected shape: the indirect style costs several times more messages and
latency per business update (each update crosses the inner object, the
outer agents' object, and the other principals' inner objects), which is
the price of conditional disclosure.
"""

from __future__ import annotations

from repro.agents import TrustedAgent
from repro.bench.metrics import MessageCounter
from repro.core import Community, DictB2BObject, SimRuntime
from repro.obs.report import format_table


def build_direct(seed=0):
    orgs = ["Org1", "Org2", "Org3"]
    community = Community(orgs, runtime=SimRuntime(seed=seed))
    objects = {n: DictB2BObject() for n in orgs}
    controllers = community.found_object("interaction", objects)
    return community, controllers, objects


def build_indirect(seed=0):
    orgs = ["Org1", "Org2", "Org3"]
    agents = ["TA1", "TA2", "TA3"]
    community = Community(orgs + agents, runtime=SimRuntime(seed=seed))
    inner_ctrls, inner_objs = {}, {}
    for org, agent in zip(orgs, agents):
        objects = {org: DictB2BObject(), agent: DictB2BObject()}
        ctrls = community.found_object(f"inner_{org}", objects)
        inner_ctrls[org] = ctrls[org]
        inner_objs[org] = objects[org]
    outer = {agent: DictB2BObject() for agent in agents}
    community.found_object("outer", outer)
    for org, agent in zip(orgs, agents):
        TrustedAgent(community.node(agent), f"inner_{org}", "outer")
    return community, inner_ctrls, inner_objs


def one_direct_update(community, controllers, objects, key, value):
    controller = controllers["Org1"]
    controller.enter()
    controller.overwrite()
    objects["Org1"].set_attribute(key, value)
    controller.leave()
    community.runtime.wait_until(
        lambda: all(obj.get_attribute(key) == value
                    for obj in objects.values()),
        timeout=10.0,
    )


def one_indirect_update(community, controllers, objects, key, value):
    controller = controllers["Org1"]
    controller.enter()
    controller.overwrite()
    objects["Org1"].set_attribute(key, value)
    controller.leave()
    # converged when every principal's inner replica has the value
    community.runtime.wait_until(
        lambda: all(obj.get_attribute(key) == value
                    for obj in objects.values()),
        timeout=30.0,
    )


def measure(build, update, label):
    community, controllers, objects = build()
    counter = MessageCounter()
    network = community.runtime.network
    start = network.now()
    counter.start(network)
    for i in range(5):
        update(community, controllers, objects, f"k{i}", i)
    delta = counter.delta(network)
    elapsed = network.now() - start
    return {
        "style": label,
        "messages_per_update": delta["delivered"] / 5,
        "virtual_seconds_per_update": elapsed / 5,
    }


def test_fig1_direct_vs_trusted_agents(benchmark, report):
    direct = measure(build_direct, one_direct_update, "direct (Fig 1a)")
    indirect = measure(build_indirect, one_indirect_update,
                       "via trusted agents (Fig 1b)")

    # Benchmark the direct style's per-update cost (wall clock).
    community, controllers, objects = build_direct(seed=99)
    counter = iter(range(1_000_000))

    def run():
        one_direct_update(community, controllers, objects,
                          "bench", next(counter))

    benchmark(run)

    rows = [[m["style"], m["messages_per_update"],
             m["virtual_seconds_per_update"]] for m in (direct, indirect)]
    factor = indirect["messages_per_update"] / direct["messages_per_update"]
    body = format_table(
        ["interaction style", "msgs/update", "virtual s/update"], rows
    ) + f"\n\nmediation message overhead factor: {factor:.2f}x"
    report("F1", "direct vs trusted-agent interaction styles", body)

    # Shape: mediation multiplies message cost, and both converge.
    assert factor > 2.0
    assert indirect["virtual_seconds_per_update"] \
        > direct["virtual_seconds_per_update"]
