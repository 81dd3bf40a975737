"""Experiment C10 — sponsor rotation ablation (section 4.5.1, footnote 2).

"Rotating the responsibility of sponsor reduces reliance on a single
member"; the footnote describes the alternative where the initial member
sponsors every request.  We run the same admission sequence under both
modes and compare how sponsorship work (proposals coordinated, welcome
messages sent) distributes over the members.

Expected shape: with rotation every newly joined member sponsors exactly
the next admission (work spread evenly, max-share → 1/k); with a fixed
sponsor the founding member does all of it (max-share = 100%).
"""

from __future__ import annotations

from repro.core import Community, DictB2BObject, SimRuntime
from repro.obs.report import format_table
from repro.protocol.group import FIXED, ROTATING

JOINS = 5


def run_admissions(sponsor_mode, seed):
    community = Community(["Org1", "Org2"], runtime=SimRuntime(seed=seed))
    objects = {n: DictB2BObject({"v": 1}) for n in ["Org1", "Org2"]}
    controllers = community.found_object("shared", objects,
                                         sponsor_mode=sponsor_mode)
    sponsorships: "dict[str, int]" = {}
    for index in range(JOINS):
        name = f"Joiner{index + 1}"
        community.add_organisation(name)
        group = community.node("Org1").party.session("shared").group
        sponsor = group.connect_sponsor()
        sponsorships[sponsor] = sponsorships.get(sponsor, 0) + 1
        community.node(name).connect(
            "shared", DictB2BObject({"v": 1}), sponsor,
            sponsor_mode=sponsor_mode,
        )
        community.settle(2.0)
    members = community.node("Org1").party.session("shared").group.members
    assert len(members) == 2 + JOINS
    max_share = max(sponsorships.values()) / JOINS
    return sponsorships, max_share


def test_c10_sponsor_rotation_ablation(benchmark, report):
    rotating, rotating_share = run_admissions(ROTATING, seed=1)
    fixed, fixed_share = run_admissions(FIXED, seed=2)

    # Shape: rotation spreads sponsorship (each member sponsors at most
    # once in this sequence); the fixed mode concentrates it all on the
    # founding member.
    assert max(rotating.values()) == 1
    assert fixed == {"Org1": JOINS}
    assert rotating_share < fixed_share == 1.0

    seeds = iter(range(100, 1_000_000))

    def one_rotating_admission():
        community = Community(["Org1", "Org2"],
                              runtime=SimRuntime(seed=next(seeds)))
        objects = {n: DictB2BObject({"v": 1}) for n in ["Org1", "Org2"]}
        community.found_object("shared", objects)
        community.add_organisation("Joiner")
        community.node("Joiner").connect("shared", DictB2BObject({"v": 1}),
                                         "Org2")
        community.settle(2.0)

    benchmark.pedantic(one_rotating_admission, rounds=10, iterations=1)

    rows = []
    everyone = sorted(set(rotating) | set(fixed))
    for member in everyone:
        rows.append([member, rotating.get(member, 0), fixed.get(member, 0)])
    body = format_table(
        ["member", "sponsorships (rotating)", "sponsorships (fixed)"], rows
    ) + (
        f"\n\nmax share of sponsorship work over {JOINS} admissions: "
        f"rotating {rotating_share:.0%} vs fixed {fixed_share:.0%}"
    )
    report("C10", "sponsor rotation vs fixed sponsor", body)
