"""Group view: membership ordering and sponsor selection (section 4.5.1)."""

from __future__ import annotations

import pytest

from repro.errors import MembershipError
from repro.protocol.group import FIXED, ROTATING, GroupView
from repro.protocol.ids import initial_group_id, new_group_id
from repro.crypto.prng import DeterministicRandomSource


def make_group(members, mode=ROTATING):
    return GroupView("obj", list(members), sponsor_mode=mode)


class TestConstruction:
    def test_requires_members(self):
        with pytest.raises(MembershipError):
            make_group([])

    def test_rejects_duplicates(self):
        with pytest.raises(MembershipError):
            make_group(["A", "A"])

    def test_rejects_unknown_mode(self):
        with pytest.raises(MembershipError):
            GroupView("obj", ["A"], sponsor_mode="whoever")

    def test_genesis_group_id(self):
        group = make_group(["A", "B"])
        assert group.group_id == initial_group_id(["A", "B"])


class TestQueries:
    def test_contains_and_len(self):
        group = make_group(["A", "B", "C"])
        assert "B" in group and "Z" not in group
        assert len(group) == 3

    def test_recipients_excluding(self):
        group = make_group(["A", "B", "C", "D"])
        assert group.recipients_excluding("B", "D") == ["A", "C"]


class TestSponsorSelection:
    def test_connect_sponsor_is_most_recent(self):
        group = make_group(["A", "B", "C"])
        assert group.connect_sponsor() == "C"

    def test_connect_sponsor_fixed_mode(self):
        group = make_group(["A", "B", "C"], mode=FIXED)
        assert group.connect_sponsor() == "A"

    def test_disconnect_sponsor_default(self):
        group = make_group(["A", "B", "C"])
        assert group.disconnect_sponsor("A") == "C"
        assert group.disconnect_sponsor("B") == "C"

    def test_disconnect_sponsor_when_subject_is_most_recent(self):
        group = make_group(["A", "B", "C"])
        assert group.disconnect_sponsor("C") == "B"

    def test_disconnect_sponsor_fixed_mode_subject_is_oldest(self):
        group = make_group(["A", "B", "C"], mode=FIXED)
        assert group.disconnect_sponsor("A") == "B"
        assert group.disconnect_sponsor("B") == "A"

    def test_disconnect_unknown_subject(self):
        with pytest.raises(MembershipError):
            make_group(["A"]).disconnect_sponsor("Z")

    def test_cannot_disconnect_last_member(self):
        with pytest.raises(MembershipError):
            make_group(["A"]).disconnect_sponsor("A")

    def test_eviction_sponsor_skips_subjects(self):
        group = make_group(["A", "B", "C", "D"])
        assert group.eviction_sponsor(["D"]) == "C"
        assert group.eviction_sponsor(["C", "D"]) == "B"

    def test_cannot_evict_everyone(self):
        with pytest.raises(MembershipError):
            make_group(["A", "B"]).eviction_sponsor(["A", "B"])


class TestMutation:
    def test_membership_after_connect_appends(self):
        group = make_group(["A", "B"])
        assert group.membership_after_connect("C") == ["A", "B", "C"]

    def test_connect_existing_member_rejected(self):
        with pytest.raises(MembershipError):
            make_group(["A", "B"]).membership_after_connect("B")

    def test_membership_after_removal(self):
        group = make_group(["A", "B", "C"])
        assert group.membership_after_removal(["B"]) == ["A", "C"]
        assert group.membership_after_removal(["A", "C"]) == ["B"]

    def test_removal_of_non_member_rejected(self):
        with pytest.raises(MembershipError):
            make_group(["A"]).membership_after_removal(["Z"])

    def test_removal_of_everyone_rejected(self):
        with pytest.raises(MembershipError):
            make_group(["A", "B"]).membership_after_removal(["A", "B"])

    def test_apply_change_validates_gid(self):
        group = make_group(["A", "B"])
        rng = DeterministicRandomSource(1)
        gid, _ = new_group_id(0, ["A", "B", "C"], rng)
        group.apply_change(["A", "B", "C"], gid)
        assert group.members == ["A", "B", "C"]
        bad_gid, _ = new_group_id(1, ["X"], rng)
        with pytest.raises(MembershipError):
            group.apply_change(["A", "B"], bad_gid)
