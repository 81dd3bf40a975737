"""Group membership view and sponsor selection (section 4.5.1).

Each party maintains an ordered view of the participant set ``P``: oldest
member first, most recently joined last.  The *sponsor* of a connection
request is the most recently joined member; the sponsor of a
disconnection is the same unless it is itself the subject, in which case
responsibility passes to the next most recently connected member.

A non-rotating mode (footnote 2 of the paper) pins sponsorship to the
oldest member instead; it is exposed for the sponsor-rotation ablation
benchmark.
"""

from __future__ import annotations

from repro.errors import MembershipError
from repro.protocol.ids import GroupId, initial_group_id
from repro.util.identifiers import validate_party_id

ROTATING = "rotating"
FIXED = "fixed"


class GroupView:
    """One party's view of the sharing group for one object."""

    def __init__(self, object_name: str, members: "list[str]",
                 group_id: "GroupId | None" = None,
                 sponsor_mode: str = ROTATING) -> None:
        if not members:
            raise MembershipError("a group requires at least one member")
        seen: "set[str]" = set()
        for member in members:
            validate_party_id(member)
            if member in seen:
                raise MembershipError(f"duplicate member {member!r}")
            seen.add(member)
        if sponsor_mode not in (ROTATING, FIXED):
            raise MembershipError(f"unknown sponsor mode {sponsor_mode!r}")
        self.object_name = object_name
        self.members: "list[str]" = list(members)
        self.group_id = group_id or initial_group_id(self.members)
        self.sponsor_mode = sponsor_mode

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __contains__(self, party_id: str) -> bool:
        return party_id in self.members

    def __len__(self) -> int:
        return len(self.members)

    def recipients_excluding(self, *excluded: str) -> "list[str]":
        exclude_set = set(excluded)
        return [member for member in self.members if member not in exclude_set]

    def connect_sponsor(self) -> str:
        """The legitimate sponsor for the next connection request."""
        if self.sponsor_mode == FIXED:
            return self.members[0]
        return self.members[-1]

    def disconnect_sponsor(self, subject: str) -> str:
        """The legitimate sponsor for disconnecting *subject*."""
        if subject not in self.members:
            raise MembershipError(f"{subject!r} is not a member")
        if self.sponsor_mode == FIXED:
            candidates = [m for m in self.members if m != subject]
            if not candidates:
                raise MembershipError("cannot disconnect the last member")
            return candidates[0]
        if self.members[-1] != subject:
            return self.members[-1]
        if len(self.members) < 2:
            raise MembershipError("cannot disconnect the last member")
        return self.members[-2]

    def eviction_sponsor(self, subjects: "list[str]") -> str:
        """Sponsor for evicting a subset: most recent non-subject member."""
        subject_set = set(subjects)
        candidates = [m for m in self.members if m not in subject_set]
        if not candidates:
            raise MembershipError("cannot evict every member")
        if self.sponsor_mode == FIXED:
            return candidates[0]
        return candidates[-1]

    def membership_after_connect(self, subject: str) -> "list[str]":
        if subject in self.members:
            raise MembershipError(f"{subject!r} is already a member")
        return self.members + [subject]

    def membership_after_removal(self, subjects: "list[str]") -> "list[str]":
        subject_set = set(subjects)
        missing = subject_set - set(self.members)
        if missing:
            raise MembershipError(f"not members: {sorted(missing)}")
        remaining = [m for m in self.members if m not in subject_set]
        if not remaining:
            raise MembershipError("cannot remove every member")
        return remaining

    # ------------------------------------------------------------------
    # mutation (applied only on agreed membership changes)
    # ------------------------------------------------------------------

    def apply_change(self, new_members: "list[str]", new_group_id: GroupId) -> None:
        if not new_group_id.matches_members(new_members):
            raise MembershipError("group identifier does not match the new membership")
        self.members = list(new_members)
        self.group_id = new_group_id
