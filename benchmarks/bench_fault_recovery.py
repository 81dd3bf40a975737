"""Experiment C2 — liveness under bounded temporary failures (section 4.1).

"If all parties behave correctly, liveness is guaranteed despite a
bounded number of temporary network and computer related failures."

We run a fixed workload (6 coordinated updates, 3 parties) under crash
and partition schedules of increasing severity and measure time to
completion.  Expected shape: every schedule completes (liveness holds);
completion time grows roughly with injected downtime.
"""

from __future__ import annotations

from repro.bench.harness import assert_replicas_converged
from repro.core import Community, DictB2BObject, SimRuntime
from repro.faults import bounded_failure_schedule
from repro.obs.report import format_table

UPDATES = 6


def run_workload(failures, kind, seed=0):
    names = ["Org1", "Org2", "Org3"]
    community = Community(names, runtime=SimRuntime(seed=seed))
    objects = {n: DictB2BObject() for n in names}
    controllers = community.found_object("shared", objects)
    schedule = bounded_failure_schedule(
        community, names, failures=failures, period=0.4, downtime=0.35,
        start=0.02, kind=kind,
    )
    schedule.arm()
    network = community.runtime.network
    start = network.now()
    controller = controllers["Org1"]
    for i in range(UPDATES):
        controller.enter()
        controller.overwrite()
        objects["Org1"].set_attribute(f"k{i}", i)
        controller.leave()
    expected = {f"k{i}": i for i in range(UPDATES)}
    converged = community.runtime.wait_until(
        lambda: all(
            community.node(n).party.session("shared").state.agreed_state
            == expected for n in names
        ),
        timeout=120.0,
    )
    assert converged
    final = assert_replicas_converged(controllers)
    assert final == expected
    return {
        "failures": failures,
        "kind": kind,
        "downtime": schedule.total_downtime(),
        "completion_time": network.now() - start,
        "retransmissions": sum(
            community.node(n).endpoint.retransmissions for n in names
        ),
    }


def test_c2_liveness_under_bounded_failures(benchmark, report):
    rows = []
    results = []
    for kind in ("crash", "partition"):
        for failures in (0, 1, 2, 4):
            result = run_workload(failures, kind, seed=failures * 7 + 1)
            results.append(result)
            rows.append([
                kind, result["failures"], result["downtime"],
                result["completion_time"], result["retransmissions"],
            ])

    # Liveness: all workloads completed (asserted inside run_workload).
    # Shape: more downtime never makes the run *faster* by much; the
    # heaviest schedule is measurably slower than the failure-free one.
    baseline = [r for r in results if r["failures"] == 0][0]
    heaviest = max(results, key=lambda r: r["downtime"])
    assert heaviest["completion_time"] > baseline["completion_time"]
    assert heaviest["retransmissions"] > 0

    def failure_free():
        run_workload(0, "crash", seed=123)

    benchmark.pedantic(failure_free, rounds=5, iterations=1)

    body = format_table(
        ["fault kind", "temporary failures", "injected downtime (s)",
         "virtual completion time (s)", "retransmissions"],
        rows,
    ) + "\n\nall workloads completed with identical replicas: yes (liveness)"
    report("C2", "liveness under bounded temporary failures", body)
