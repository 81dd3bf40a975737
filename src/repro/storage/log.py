"""Non-repudiation evidence log.

"Evidence is stored systematically in local non-repudiation logs"
(section 3).  Each entry records a protocol artefact (message sent or
received, decision, time-stamp token) and is chained to its predecessor by
hash, so any after-the-fact tampering with local evidence is detectable —
an organisation cannot quietly rewrite its own history before presenting
it to an arbiter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.crypto.hashing import hash_value
from repro.errors import LogCorruptionError
from repro.obs.hooks import NULL_INSTRUMENTATION, Instrumentation
from repro.storage.backends import RecordStore, RecordView
from repro.util.encoding import Fragment, as_bytes

GENESIS_HASH = b"\x00" * 32


@dataclass(frozen=True)
class LogEntry:
    """One evidence record in the hash chain."""

    index: int
    prev_hash: bytes
    entry_hash: bytes
    kind: str
    payload: dict

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "prev_hash": self.prev_hash,
            "entry_hash": self.entry_hash,
            "kind": self.kind,
            "payload": self.payload,
        }

    @staticmethod
    def from_dict(data: dict) -> "LogEntry":
        """The entry a stored record holds: fields are checked, never
        coerced, and a malformed one is a :class:`LogCorruptionError`."""
        try:
            entry = LogEntry(data["index"], as_bytes(data["prev_hash"]),
                             as_bytes(data["entry_hash"]), data["kind"],
                             data["payload"])
        except (KeyError, ValueError) as exc:
            raise LogCorruptionError(f"malformed log entry: {exc!r}") from None
        if (type(entry.index), type(entry.kind), type(entry.payload)) \
                != (int, str, dict):
            raise LogCorruptionError("malformed log entry: field types")
        return entry


def _chain_hash(index: int, prev_hash: bytes, kind: str,
                payload: "dict | Fragment") -> bytes:
    return hash_value(["log-entry", index, prev_hash, kind, payload])


class NonRepudiationLog(RecordView):
    """Hash-chained append-only evidence log for one party."""

    def __init__(self, owner: str, store: "RecordStore | None" = None,
                 obs: "Instrumentation | None" = None) -> None:
        super().__init__(store)
        self.owner = owner
        self._obs = obs if obs is not None else NULL_INSTRUMENTATION
        self._head, self._count = GENESIS_HASH, 0
        # Recovery path: a pre-existing store is verified as it is read.
        self._store.load(self)

    def _take(self, record: dict, previous: "dict | None") -> None:
        """Verify one more link of the chain."""
        if "entry_hash" not in record:
            return
        entry = LogEntry.from_dict(record)
        if entry.index != self._count:
            raise LogCorruptionError(
                f"{self.owner}: entry index {entry.index} != expected {self._count}"
            )
        if entry.prev_hash != self._head:
            raise LogCorruptionError(
                f"{self.owner}: broken prev-hash link at index {entry.index}"
            )
        expected = _chain_hash(entry.index, entry.prev_hash, entry.kind, entry.payload)
        if entry.entry_hash != expected:
            raise LogCorruptionError(
                f"{self.owner}: entry hash mismatch at index {entry.index}"
            )
        self._head, self._count = entry.entry_hash, self._count + 1

    @property
    def head(self) -> bytes:
        """Hash of the most recent entry (GENESIS_HASH when empty)."""
        return self._head

    def __len__(self) -> int:
        return self._count

    def record(self, kind: str, payload: dict) -> LogEntry:
        """Append an evidence record and return the chained entry.

        The payload is encoded once: the chain hash fills the fragment
        and the stored line splices it.  The whole step holds the append
        lock: the thread that submits writes and the transport thread
        both append to and commit the party's store, and the chain only
        verifies if index, head and append move together.
        """
        encoded = Fragment(payload)
        with self._store.lock:
            entry = LogEntry(
                index=self._count,
                prev_hash=self._head,
                entry_hash=_chain_hash(self._count, self._head, kind, encoded),
                kind=kind,
                payload=payload,
            )
            record = dict(entry.to_dict(), payload=encoded)
            if self._obs.enabled:
                started = time.perf_counter()
                self._store.append(record)
                self._obs.evidence_append(
                    self.owner, kind, self._store.last_append_size,
                    time.perf_counter() - started,
                )
            else:
                self._store.append(record)
            self._head = entry.entry_hash
            self._count += 1
        return entry

    def entries(self, kind: "str | None" = None) -> "Iterator[LogEntry]":
        """Iterate entries in order, optionally filtered by kind."""
        for record in self._store.records("entry_hash"):
            entry = LogEntry.from_dict(record)
            if kind is None or entry.kind == kind:
                yield entry

    def find(self, kind: str, **payload_match: Any) -> "Optional[LogEntry]":
        """First entry of *kind* whose payload matches all given fields."""
        for entry in self.entries(kind):
            if all(entry.payload.get(key) == value for key, value in payload_match.items()):
                return entry
        return None

    def verify_chain(self) -> int:
        """Re-verify the whole chain; returns the entry count.

        Raises :class:`LogCorruptionError` on the first broken link.  An
        arbiter runs this before trusting any evidence a party presents.
        """
        with self._store.lock:  # a concurrent append must not look like tampering
            walked = NonRepudiationLog(self.owner, self._store)
            if (walked.head, len(walked)) != (self._head, self._count):
                raise LogCorruptionError(f"{self.owner}: in-memory head disagrees with store")
            return self._count
