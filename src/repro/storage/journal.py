"""Protocol message journal.

"For non-repudiation, and recovery, protocol messages are held in local
persistent storage at sender and recipient" (section 4.2).  The evidence
log holds every signed part, so a journal record keeps the rest: the
message's *stub* (the message without its signed parts) and, per part,
a reference ``[entry index, key, ...]`` into the evidence entry appended
just before the record.  After a crash, a recovering node rebuilds the
runs still open from their records and the parts those name.
"""

from __future__ import annotations

import time
from typing import Any, Iterator, Optional

from repro.obs.hooks import NULL_INSTRUMENTATION, Instrumentation
from repro.storage.backends import RecordStore, RecordView
from repro.util.encoding import freeze

SENT = "sent"
RECEIVED = "received"


class MessageJournal(RecordView):
    """Durable per-run message history for one party."""

    def __init__(self, owner: str, store: "RecordStore | None" = None,
                 obs: "Instrumentation | None" = None) -> None:
        super().__init__(store)
        self.owner = owner
        self._obs = obs if obs is not None else NULL_INSTRUMENTATION
        #: Open runs: (record, the parts its references name) per message.
        self._open: "dict[str, list[tuple[dict, dict]]]" = {}
        self._closed: "dict[str, str]" = {}  # run id -> outcome
        #: A record embeds its whole message (the format before
        #: references): the store reads, and no party appends to it.
        self.embeds_messages = False
        self._store.load(self)

    def _take(self, record: dict, previous: "dict | None") -> None:
        if "event" not in record:
            return
        self.embeds_messages = self.embeds_messages or "message" in record
        parts = {}
        for key, (index, *path) in record.get("refs", {}).items():
            if previous is not None and previous.get("index") == index:
                parts[key] = previous["payload"]
                for step in path:
                    parts[key] = parts[key][step]
        self._apply(record, parts)

    def _apply(self, record: dict, parts: dict) -> None:
        run_id = record["run_id"]
        if record["event"] == "close":
            self._open.pop(run_id, None)
            self._closed[run_id] = record["outcome"]
        elif run_id not in self._closed:
            self._open.setdefault(run_id, []).append((record, parts))

    def record_message(self, run_id: str, direction: str, peer: str,
                       message: dict,
                       refs: "dict[str, list[Any]] | None" = None) -> None:
        """Journal one protocol message before acting on it.  *refs* maps
        each key of *message* holding a signed part to where the caller's
        last evidence entry holds it (``[index, key, ...]``)."""
        if direction not in (SENT, RECEIVED):
            raise ValueError(f"direction must be 'sent' or 'received', got {direction!r}")
        refs = refs or {}
        record = {
            "event": "message",
            "run_id": run_id,
            "direction": direction,
            "peer": peer,
            "stub": {key: value for key, value in message.items()
                     if key not in refs},
        }
        if refs:
            record["refs"] = refs
        self._append(record, direction, {key: message[key] for key in refs})

    def _append(self, record: dict, direction: str, parts: dict) -> None:
        with self._store.lock:
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
            self._apply(record, parts)

    def close_run(self, run_id: str, outcome: str) -> None:
        """Mark a protocol run finished (valid / invalid / aborted)."""
        record = {"event": "close", "run_id": run_id, "outcome": outcome}
        self._append(record, "close", {})
        if self._obs.enabled:
            self._obs.journal_closed(self.owner, run_id, outcome)

    def open_runs(self) -> "set[str]":
        """Runs with journalled messages but no close record."""
        with self._store.lock:
            return set(self._open)

    def is_open(self, run_id: str) -> bool:
        return run_id in self._open

    def knows(self, run_id: str) -> bool:
        """Whether any record of *run_id* was ever journalled."""
        return run_id in self._open or run_id in self._closed

    def messages(self, run_id: str) -> "list[dict]":
        """An open run's message records, in order, each with its
        ``message``: the stub plus the parts its references name (a
        closed run's records are not held)."""
        with self._store.lock:
            held = list(self._open.get(run_id, ()))
        rebuilt = []
        for record, parts in held:
            record = freeze(record)  # plain data, and the caller's own
            if "stub" in record:
                record.pop("refs", None)
                record["message"] = dict(record.pop("stub"), **freeze(parts))
            rebuilt.append(record)
        return rebuilt

    def outcome(self, run_id: str) -> "Optional[str]":
        """The recorded outcome of a closed run, if any."""
        return self._closed.get(run_id)

    def all_records(self) -> "Iterator[dict]":
        """The journal's records as stored."""
        return self._store.records("event")
