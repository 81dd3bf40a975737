"""Experiment C7 — termination strategies ablation (section 7).

The base protocol deliberately blocks when a party stops responding.
Section 7 sketches two remedies: majority decision and deadlines with a
TTP that issues a certified abort (or a certified decision when the
response set is complete).

Scenario: 5 parties, one of which silently never responds.  We compare:

* **unanimity (paper)** — the run blocks; only evidence is produced;
* **majority + force-completion** — the run terminates *valid* (4/5);
* **deadline + TTP** — the run terminates with a certified abort and all
  honest parties share the same view.
"""

from __future__ import annotations

from repro.core import DEFERRED_SYNCHRONOUS, Community, DictB2BObject, SimRuntime
from repro.extensions import (
    DeadlineMonitor,
    MajorityCoordinationEngine,
    TerminationTTP,
)
from repro.faults import SuppressResponses
from repro.obs.report import format_table

PARTIES = 5
DEADLINE = 2.0


def build(engine_cls=None, seed=0):
    names = [f"Org{i + 1}" for i in range(PARTIES)]
    community = Community(names, runtime=SimRuntime(seed=seed))
    objects = {name: DictB2BObject() for name in names}
    kwargs = {"mode": DEFERRED_SYNCHRONOUS}
    if engine_cls is not None:
        kwargs["engine_cls"] = engine_cls
    controllers = community.found_object("shared", objects, **kwargs)
    SuppressResponses(community.node(f"Org{PARTIES}"))
    return community, controllers, objects


def propose(community, controllers, objects):
    controller = controllers["Org1"]
    controller.enter()
    controller.overwrite()
    objects["Org1"].set_attribute("x", 1)
    return controller.leave()


def scenario_unanimity(seed):
    community, controllers, objects = build(seed=seed)
    network = community.runtime.network
    start = network.now()
    ticket = propose(community, controllers, objects)
    community.settle(DEADLINE * 3)
    return {
        "strategy": "unanimity (paper)",
        "terminated": ticket.done,
        "outcome": "blocked",
        "time": float("nan"),
        "installed": objects["Org2"].get_attribute("x") == 1,
    }


def scenario_majority(seed):
    community, controllers, objects = build(
        engine_cls=MajorityCoordinationEngine, seed=seed)
    network = community.runtime.network
    start = network.now()
    ticket = propose(community, controllers, objects)
    community.settle(DEADLINE)
    engine = community.node("Org1").party.session("shared").state
    output = engine.force_completion(ticket.run_id)
    community.node("Org1")._process_output(output)
    community.settle(1.0)
    return {
        "strategy": "majority vote + deadline",
        "terminated": ticket.done,
        "outcome": "valid" if ticket.valid else "invalid",
        "time": network.now() - start,
        "installed": objects["Org2"].get_attribute("x") == 1,
    }


def scenario_deadline_ttp(seed):
    community, controllers, objects = build(seed=seed)
    network = community.runtime.network
    ttp = TerminationTTP(resolver=community.resolver)
    monitor = DeadlineMonitor(list(community.nodes.values()), ttp,
                              deadline=DEADLINE)
    start = network.now()
    ticket = propose(community, controllers, objects)
    community.settle(DEADLINE + 0.1)
    monitor.sweep()
    community.settle(0.5)
    honest = [f"Org{i + 1}" for i in range(PARTIES - 1)]
    views = {community.node(n).party.session("shared").state.busy
             for n in honest}
    return {
        "strategy": "deadline + TTP certified abort",
        "terminated": ticket.done,
        "outcome": "certified abort" if ticket.valid is False else "valid",
        "time": network.now() - start,
        "installed": objects["Org2"].get_attribute("x") == 1,
        "consistent": views == {False},
    }


def test_c7_termination_strategies(benchmark, report):
    unanimity = scenario_unanimity(seed=1)
    majority = scenario_majority(seed=2)
    certified = scenario_deadline_ttp(seed=3)

    # Shapes: the paper's protocol blocks (fail-safe), the extensions
    # terminate — majority resolves to valid, the TTP certifies abort.
    assert not unanimity["terminated"] and not unanimity["installed"]
    assert majority["terminated"] and majority["outcome"] == "valid"
    assert majority["installed"]
    assert certified["terminated"] and certified["outcome"] == "certified abort"
    assert not certified["installed"] and certified["consistent"]

    seeds = iter(range(100, 1_000_000))

    def one_certified_abort():
        scenario_deadline_ttp(seed=next(seeds))

    benchmark.pedantic(one_certified_abort, rounds=8, iterations=1)

    rows = [
        [r["strategy"], r["terminated"], r["outcome"],
         "-" if r["time"] != r["time"] else f"{r['time']:.2f}"]
        for r in (unanimity, majority, certified)
    ]
    body = format_table(
        ["termination strategy", "terminated", "outcome",
         "virtual time to resolution (s)"],
        rows,
    ) + (
        "\n\nnon-responder: 1 of 5 parties; deadline "
        f"{DEADLINE:.1f}s\n"
        "unanimity blocks fail-safe; majority installs despite the silent "
        "party; the TTP abort leaves every honest party with the same view"
    )
    report("C7", "termination strategies under a non-responder", body)
