"""State and group identifier tuples (sections 4.2 and 4.5.2).

The state of an object is uniquely identified by ``T = (seq, H(r), H(S))``
where ``seq`` is a proposal sequence number, ``H(r)`` the hash of a random
number generated by the proposer, and ``H(S)`` the hash of the state the
tuple refers to.  The sequence number orders state transitions; the random
component disambiguates concurrent proposals; the state hash binds the
tuple to the state it identifies.

Group membership is identified analogously by ``G = (seq, H(r), H(P))``
over the ordered member list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.crypto.hashing import hash_members, hash_value
from repro.crypto.prng import RandomSource
from repro.util.encoding import as_bytes, as_int

NONCE_BYTES = 32


@dataclass(frozen=True)
class StateId:
    """``T = (seq, H(r), H(S))`` — unique identifier of an object state."""

    seq: int
    rand_hash: bytes
    state_hash: bytes

    def to_dict(self) -> dict:
        return {"seq": self.seq, "rh": self.rand_hash, "sh": self.state_hash}

    @staticmethod
    def from_dict(data: dict) -> "StateId":
        return StateId(
            seq=as_int(data["seq"]),
            rand_hash=as_bytes(data["rh"]),
            state_hash=as_bytes(data["sh"]),
        )

    def matches_state(self, state: Any) -> bool:
        """Integrity check of the tuple against an actual state value."""
        return self.state_hash == hash_value(state)

    def short(self) -> str:
        return f"T(seq={self.seq},r={self.rand_hash.hex()[:8]},s={self.state_hash.hex()[:8]})"


@dataclass(frozen=True)
class GroupId:
    """``G = (seq, H(r), H(P_0..P_n))`` — unique identifier of a membership."""

    seq: int
    rand_hash: bytes
    members_hash: bytes

    def to_dict(self) -> dict:
        return {"seq": self.seq, "rh": self.rand_hash, "mh": self.members_hash}

    @staticmethod
    def from_dict(data: dict) -> "GroupId":
        return GroupId(
            seq=as_int(data["seq"]),
            rand_hash=as_bytes(data["rh"]),
            members_hash=as_bytes(data["mh"]),
        )

    def matches_members(self, members: "list[str]") -> bool:
        return self.members_hash == hash_members(members)


def initial_state_id(state: Any) -> StateId:
    """The genesis identifier for an object's configured initial state.

    All founding members construct this deterministically (no randomness),
    so they begin with identical ``T_agreed`` views.
    """
    return StateId(seq=0, rand_hash=hash_value("genesis"), state_hash=hash_value(state))


def initial_group_id(members: "list[str]") -> GroupId:
    """The genesis group identifier for the founding membership."""
    return GroupId(seq=0, rand_hash=hash_value("genesis"), members_hash=hash_members(members))


def new_state_id(last_seq: int, state: Any, rng: RandomSource) -> "tuple[StateId, bytes]":
    """Mint the identifier for a proposed new state.

    Returns ``(T_new, r)`` where ``r`` is the proposer's random number
    (kept local; only ``H(r)`` travels in the tuple).  The sequence number
    is one greater than the largest sequence the proposer has seen, so any
    proposed state orders after every agreed state it knows of.
    """
    nonce = rng.random_bytes(NONCE_BYTES)
    state_id = StateId(
        seq=last_seq + 1,
        rand_hash=hash_value(nonce),
        state_hash=hash_value(state),
    )
    return state_id, nonce


def new_group_id(last_seq: int, members: "list[str]",
                 rng: RandomSource) -> "tuple[GroupId, bytes]":
    """Mint the identifier for a proposed new membership."""
    nonce = rng.random_bytes(NONCE_BYTES)
    group_id = GroupId(
        seq=last_seq + 1,
        rand_hash=hash_value(nonce),
        members_hash=hash_members(members),
    )
    return group_id, nonce
