"""State check-pointing.

"Systematic check-pointing of object state upon installation of a
newly-validated state allows recovery in the event of general failures
and rollback in the event of invalidation" (section 3).

A checkpoint binds an object state to the state-identifier tuple under
which it was agreed, so recovery restores both the state *and* the
coordination context (sequence number, hashes) needed to resume protocol
participation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.crypto.hashing import hash_value
from repro.errors import CheckpointError
from repro.storage.backends import RecordStore, RecordView
from repro.util.encoding import Fragment


@dataclass(frozen=True)
class Checkpoint:
    """One durable (state-id, state) snapshot."""

    object_name: str
    state_id: dict
    state: Any
    sequence: int

    def to_dict(self) -> dict:
        return {
            "object_name": self.object_name,
            "state_id": self.state_id,
            "state": self.state,
            "sequence": self.sequence,
        }

    @staticmethod
    def from_dict(data: dict) -> "Checkpoint":
        return Checkpoint(
            object_name=str(data["object_name"]),
            state_id=dict(data["state_id"]),
            state=data["state"],
            sequence=int(data["sequence"]),
        )


class CheckpointStore(RecordView):
    """Append-only checkpoint history with fast latest-lookup per object."""

    def __init__(self, store: "RecordStore | None" = None) -> None:
        super().__init__(store)
        self._latest: "dict[str, Checkpoint]" = {}
        self._history_len: "dict[str, int]" = {}
        self._store.load(self)

    def _take(self, record: dict, previous: "dict | None") -> None:
        if "state_id" in record:
            self._note(Checkpoint.from_dict(record))

    def _note(self, checkpoint: Checkpoint) -> None:
        name = checkpoint.object_name
        self._latest[name] = checkpoint
        self._history_len[name] = self._history_len.get(name, 0) + 1

    def save(self, object_name: str, state_id: dict, state: Any,
             encoded: "Fragment | None" = None) -> Checkpoint:
        """Checkpoint a newly agreed state; *encoded* is the fragment
        the caller froze *state* from, which the stored line splices."""
        sequence = int(state_id.get("seq", -1))
        checkpoint = Checkpoint(
            object_name=object_name,
            state_id=dict(state_id),
            state=state,
            sequence=sequence,
        )
        record = dict(checkpoint.to_dict(), state=encoded or state)
        # Objects on different shards checkpoint into this one store.
        with self._store.lock:
            previous = self._latest.get(object_name)
            if previous is not None and sequence <= previous.sequence:
                raise CheckpointError(
                    f"checkpoint for {object_name!r} does not advance the sequence "
                    f"({sequence} <= {previous.sequence})"
                )
            self._store.append(record)
            self._note(checkpoint)
        return checkpoint

    def latest(self, object_name: str) -> "Optional[Checkpoint]":
        return self._latest.get(object_name)

    def require_latest(self, object_name: str) -> Checkpoint:
        checkpoint = self._latest.get(object_name)
        if checkpoint is None:
            raise CheckpointError(f"no checkpoint for object {object_name!r}")
        return checkpoint

    def history(self, object_name: str) -> "list[Checkpoint]":
        """All checkpoints for one object, oldest first."""
        return [
            Checkpoint.from_dict(record)
            for record in self._store.records("state_id")
            if record["object_name"] == object_name
        ]

    def history_length(self, object_name: str) -> int:
        return self._history_len.get(object_name, 0)

    def state_digest(self, object_name: str) -> "Optional[bytes]":
        """Hash of the latest checkpointed state (for consistency checks)."""
        checkpoint = self._latest.get(object_name)
        if checkpoint is None:
            return None
        return hash_value(checkpoint.state)
