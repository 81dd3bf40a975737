"""Protocol message journal.

"For non-repudiation, and recovery, protocol messages are held in local
persistent storage at sender and recipient" (section 4.2).  The journal
records every protocol message a party sends or receives, grouped by
protocol run, and tracks which runs are still open.  After a crash, a
recovering node replays its open runs from the journal and resumes
participation.
"""

from __future__ import annotations

import threading
import time
from typing import Iterator, Optional

from repro.obs.hooks import NULL_INSTRUMENTATION, Instrumentation
from repro.storage.backends import MemoryRecordStore, RecordStore

SENT = "sent"
RECEIVED = "received"


class MessageJournal:
    """Durable per-run message history for one party."""

    def __init__(self, owner: str, store: "RecordStore | None" = None,
                 obs: "Instrumentation | None" = None) -> None:
        self.owner = owner
        self._store = store if store is not None else MemoryRecordStore()
        self._obs = obs if obs is not None else NULL_INSTRUMENTATION
        self._open_runs: "set[str]" = set()
        self._closed_runs: "set[str]" = set()
        # Shard workers of one party share the journal: an append and
        # the open/closed bookkeeping that follows it move together.
        self._lock = threading.Lock()
        for record in self.all_records():
            self._apply(record)

    @property
    def store(self) -> RecordStore:
        """The party's one record store (all three views append to it)."""
        return self._store

    def _apply(self, record: dict) -> None:
        run_id = record["run_id"]
        if record["event"] == "close":
            self._open_runs.discard(run_id)
            self._closed_runs.add(run_id)
        elif run_id not in self._closed_runs:
            self._open_runs.add(run_id)

    def record_message(self, run_id: str, direction: str, peer: str,
                       message: dict) -> None:
        """Journal one protocol message before acting on it."""
        if direction not in (SENT, RECEIVED):
            raise ValueError(f"direction must be 'sent' or 'received', got {direction!r}")
        record = {
            "event": "message",
            "run_id": run_id,
            "direction": direction,
            "peer": peer,
            "message": message,
        }
        self._append(record, direction)

    def _append(self, record: dict, direction: str) -> None:
        with self._lock:
            if self._obs.enabled:
                started = time.perf_counter()
                self._store.append(record)
                self._obs.journal_append(
                    self.owner, record["run_id"], direction,
                    self._store.last_append_size,
                    time.perf_counter() - started,
                )
            else:
                self._store.append(record)
            self._apply(record)

    def close_run(self, run_id: str, outcome: str) -> None:
        """Mark a protocol run finished (valid / invalid / aborted)."""
        record = {"event": "close", "run_id": run_id, "outcome": outcome}
        self._append(record, "close")
        if self._obs.enabled:
            self._obs.journal_closed(self.owner, run_id, outcome)

    def open_runs(self) -> "set[str]":
        """Runs with journalled messages but no close record."""
        with self._lock:
            return set(self._open_runs)

    def is_open(self, run_id: str) -> bool:
        return run_id in self._open_runs

    def knows(self, run_id: str) -> bool:
        """Whether any record of *run_id* was ever journalled."""
        return run_id in self._open_runs or run_id in self._closed_runs

    def messages(self, run_id: str) -> "list[dict]":
        """All journalled message records for one run, in order."""
        return [
            record for record in self.all_records()
            if record["run_id"] == run_id and record["event"] == "message"
        ]

    def outcome(self, run_id: str) -> "Optional[str]":
        """The recorded outcome of a closed run, if any."""
        result = None
        for record in self.all_records():
            if record["run_id"] == run_id and record["event"] == "close":
                result = record["outcome"]
        return result

    def all_records(self) -> "Iterator[dict]":
        return self._store.records("event")
