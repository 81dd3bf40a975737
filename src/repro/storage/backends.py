"""Record storage backends.

The storage substrate persists three kinds of records (evidence log
entries, state checkpoints, journalled protocol messages).  A party
keeps all three in one store, in append order, behind this minimal
append/sync/scan abstraction, with an in-memory backend for simulation
and a crash-safe file backend (JSON-lines with fsync) for real
deployments and recovery tests.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
from typing import Iterable, Iterator

from repro.errors import ConfigurationError, StorageError
from repro.util.encoding import canonical_bytes, from_canonical_bytes


class RecordStore:
    """Append-only sequence of canonical-encodable records.

    ``append`` hands a record to the store; ``sync`` is the durability
    barrier: on return, every record appended before the call survives
    a crash.  A store that is not :attr:`deferred` runs the barrier
    itself at the end of each ``append``.
    """

    #: Encoded size in bytes of the most recent append.  Stores encode
    #: every record anyway, so instrumentation reads this instead of
    #: re-serialising the record just to size it.
    last_append_size = 0

    #: Set by the party that adopts the store (see
    #: :meth:`repro.protocol.context.PartyContext.adopt_store`): the
    #: adopter calls ``sync`` before anything that depends on a record
    #: becomes visible, so ``append`` need not.
    deferred = False

    def __init__(self) -> None:
        #: The one append lock of the party's views: an entry's index, a
        #: reference to it and the size reported for it move together,
        #: and two appends under one hold are adjacent.
        self.lock = threading.RLock()
        self._opening: "list[RecordView] | None" = None

    def load(self, view: "RecordView") -> None:
        """Fold the stored records into *view* (inside :meth:`opening`,
        when it ends)."""
        if self._opening is None:
            self._fold([view])
        else:
            self._opening.append(view)

    @contextlib.contextmanager
    def opening(self) -> "Iterator[None]":
        """Views constructed in the block share one pass, decoding each
        record once."""
        self._opening = views = []
        try:
            yield
        finally:
            self._opening = None
        self._fold(views)

    def _fold(self, views: "list[RecordView]") -> None:
        previous = None
        for record in self.scan():
            for view in views:
                view._take(record, previous)
            previous = record

    def append(self, record: dict) -> int:
        """Persist *record*, returning its zero-based index."""
        raise NotImplementedError

    def sync(self) -> int:
        """Make every record appended so far durable.

        Returns how many records this call made durable.
        """
        return 0

    def scan(self) -> "Iterator[dict]":
        """Iterate every record in append order."""
        raise NotImplementedError

    def records(self, key: str) -> "Iterator[dict]":
        """The records of one kind, in append order: a record's kind is
        what its top-level keys say (``entry_hash``: evidence, ``event``:
        journal, ``state_id``: checkpoint), not a stored tag."""
        return (record for record in self.scan() if key in record)

    def __len__(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resources (idempotent)."""


class RecordView:
    """One kind of record in a party's store, folded into memory as the
    store is read by ``_take(record, previous record)``."""

    def __init__(self, store: "RecordStore | None") -> None:
        self._store = store if store is not None else MemoryRecordStore()

    @property
    def store(self) -> RecordStore:
        """The party's one record store (all three views append to it)."""
        return self._store


class MemoryRecordStore(RecordStore):
    """Volatile in-process store used by the simulation runtime."""

    def __init__(self) -> None:
        super().__init__()
        self._records: "list[bytes]" = []

    def append(self, record: dict) -> int:
        # Records are stored encoded so that mutation of the caller's dict
        # after append cannot retroactively alter "persisted" history.
        blob = canonical_bytes(record)
        self.last_append_size = len(blob)
        self._records.append(blob)
        return len(self._records) - 1

    def scan(self) -> "Iterator[dict]":
        for blob in self._records:
            yield from_canonical_bytes(blob)

    def __len__(self) -> int:
        return len(self._records)


class FileRecordStore(RecordStore):
    """Crash-safe JSON-lines file store.

    Each record is one canonical-JSON line.  ``append`` encodes and
    queues the line; ``sync`` writes the queued lines and fsyncs the
    file (non-repudiation evidence must survive the crash-recovery model
    of section 4.2).  A standalone store syncs at the end of every
    ``append``, so a record is durable when ``append`` returns; a store
    adopted by a party is synced by that party's barrier.  Records
    reach the file in append order and only at a barrier, so whatever a
    crash leaves is a byte prefix of what was appended.  On open, a
    trailing partial line from a mid-write crash is detected and
    truncated away.
    """

    def __init__(self, path: str, fsync: bool = True) -> None:
        super().__init__()
        self._path = path
        self._fsync = fsync
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        created = not os.path.exists(path)
        #: Records in the file; the queue holds the ones after them.
        self._written = 0 if created else self._repair_and_count()
        self._queue: "list[bytes]" = []
        self._file = open(path, "ab")
        if created and fsync:
            # The file's records are only as durable as its directory
            # entry.
            _fsync_path(directory or ".")
        # _lock guards the queue and the count; _sync_lock admits one
        # writer, so a sync that finds the queue empty returns only
        # after the sync that emptied it has reached the disk.
        self._lock = threading.Lock()
        self._sync_lock = threading.Lock()

    def _repair_and_count(self) -> int:
        with open(self._path, "rb") as handle:
            data = handle.read()
        if data and not data.endswith(b"\n"):
            # A crash interrupted the final write; the record never became
            # durable, so drop the partial line.  Truncating in place
            # leaves every complete record untouched on disk whatever
            # happens during the repair.
            data = data[:data.rfind(b"\n") + 1]
            os.truncate(self._path, len(data))
            if self._fsync:
                _fsync_path(self._path)
        return data.count(b"\n")

    def append(self, record: dict) -> int:
        line = canonical_bytes(record) + b"\n"
        self.last_append_size = len(line) - 1
        with self._lock:
            self._queue.append(line)
            index = self._written + len(self._queue) - 1
        if not self.deferred:
            self.sync()
        return index

    def sync(self) -> int:
        with self._sync_lock:
            with self._lock:
                lines = list(self._queue)
            if not lines:
                return 0
            self._write(b"".join(lines))
            with self._lock:
                del self._queue[:len(lines)]
                self._written += len(lines)
            return len(lines)

    def _write(self, data: bytes) -> None:
        self._file.write(data)
        self._file.flush()
        if self._fsync:
            os.fsync(self._file.fileno())

    def scan(self) -> "Iterator[dict]":
        with self._lock:
            written, queued = self._written, list(self._queue)
        # Only the first *written* lines: a sync running beside this
        # scan may already have put queued lines into the file.
        with open(self._path, "rb") as handle:
            yield from self._decode(itertools.islice(handle, written))
        yield from self._decode(queued)

    def _decode(self, lines: "Iterable[bytes]") -> "Iterator[dict]":
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                yield from_canonical_bytes(line)
            except ValueError as exc:
                raise StorageError(f"corrupt record in {self._path}: {exc}") from exc

    def __len__(self) -> int:
        with self._lock:
            return self._written + len(self._queue)

    def close(self) -> None:
        if not self._file.closed:
            self.sync()
            self._file.close()


#: A party's one record file, and the three-file layout's names.
PARTY_LOG = "log.jsonl"
VIEW_NAMES = ("evidence.jsonl", "journal.jsonl", "checkpoints.jsonl")


def open_party_store(directory: str) -> FileRecordStore:
    """The one record file of the party that owns *directory*.

    :data:`VIEW_NAMES` are relative symlinks to it, so a tool pointed at
    ``<org>/evidence.jsonl`` opens the party's file.  A directory in the
    three-file layout (the names are regular files) still reads that
    way, and is refused here: appends to ``log.jsonl`` would not
    continue those files.
    """
    os.makedirs(directory, exist_ok=True)
    for name in VIEW_NAMES:
        path = os.path.join(directory, name)
        if os.path.islink(path):
            continue
        if os.path.exists(path):
            raise ConfigurationError(
                f"{directory} holds the three-file layout ({name} is a "
                f"regular file): readable (repro audit), not appendable")
        os.symlink(PARTY_LOG, path)
    # Creating the file fsyncs the directory, symlinks included.
    return FileRecordStore(os.path.join(directory, PARTY_LOG))


def _fsync_path(path: str) -> None:
    """fsync a file or directory by path."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
