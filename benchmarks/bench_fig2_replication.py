"""Experiment F2 — Figure 2: logical shared object vs replica coordination.

Figure 2 shows the logical view (objects in a virtual space) realised as
regulated coordination of replicas held at each organisation.  We verify
the realisation: invocations at *any* organisation become unanimously
validated transitions, after which all replicas are bit-identical, and
the per-invocation cost does not depend on which replica is invoked.
"""

from __future__ import annotations

from repro.bench.harness import assert_replicas_converged
from repro.core import Community, DictB2BObject, SimRuntime
from repro.obs.report import format_table


def build(seed=0):
    orgs = ["Org1", "Org2", "Org3"]
    community = Community(orgs, runtime=SimRuntime(seed=seed))
    objects = {n: DictB2BObject() for n in orgs}
    controllers = community.found_object("virtual-object", objects)
    return community, controllers, objects


def invoke_at(community, controllers, objects, org, key, value):
    """Returns the virtual time from invocation to full convergence."""
    network = community.runtime.network
    start = network.now()
    controller = controllers[org]
    controller.enter()
    controller.overwrite()
    objects[org].set_attribute(key, value)
    controller.leave()
    community.runtime.wait_until(
        lambda: all(replica.get_attribute(key) == value
                    for replica in objects.values()),
        timeout=10.0,
    )
    elapsed = network.now() - start
    community.settle(0.5)  # drain trailing acks so counters stay aligned
    return elapsed


def test_fig2_replica_coordination(benchmark, report):
    community, controllers, objects = build()
    network = community.runtime.network

    rows = []
    for index, org in enumerate(community.names()):
        before_msgs = network.stats.delivered
        elapsed = invoke_at(community, controllers, objects, org,
                            f"set_by_{org}", index)
        rows.append([org, network.stats.delivered - before_msgs, elapsed])
    state = assert_replicas_converged(controllers)
    assert state == {f"set_by_{org}": i
                     for i, org in enumerate(community.names())}

    # Per-invocation cost is symmetric across replicas.
    message_counts = {row[1] for row in rows}
    assert len(message_counts) == 1

    community2, controllers2, objects2 = build(seed=7)
    counter = iter(range(1_000_000))

    def run():
        invoke_at(community2, controllers2, objects2, "Org2",
                  "bench", next(counter))

    benchmark(run)

    body = format_table(
        ["invoked at", "messages", "virtual seconds"], rows
    ) + "\n\nall replicas identical after each invocation: yes"
    report("F2", "logical shared object realised by replica coordination", body)
