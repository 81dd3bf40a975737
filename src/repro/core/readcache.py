"""Validated read-path cache: serve ``examine()`` without coordinating.

The paper's access-scoping model (section 5) makes every read scope wait
for in-flight coordination to settle (``Controller.enter`` →
``OrganisationNode._await_quiescent``), so read-heavy workloads pay
coordination-round prices even though *agreed* state only changes at
settlement boundaries.  This module is the read-side complement of the
shard scheduler: every settlement publishes an immutable
:class:`Snapshot` — ``(state, version, settle_seq, stamp)`` — under the
owning shard's engine lock, and read scopes pick a snapshot **lock-free**
according to an explicit consistency mode:

* :func:`settled` — today's default semantics: quiesce, refresh the
  snapshot from the engine's agreed state, serve that.  The read
  reflects every settlement this replica has installed and never races
  an in-flight run.
* :func:`bounded` — serve the cached snapshot if it was published within
  ``max_staleness`` seconds; otherwise refresh first.  ``bounded(0)``
  degenerates to :func:`settled` (a cached snapshot is always at least a
  clock tick old).
* :func:`cached` — always serve the latest published snapshot, with no
  waiting and no locks; staleness is whatever the write rate makes it.

Whatever the mode, a served snapshot is **validated**: it is a frozen
copy of a state that passed the full non-repudiable coordination round
(invariants 1–3, unanimous signed acceptance) — a vetoed or still
in-flight proposal's pre-applied state is never published, so no cached
read can observe it.  The cache trades *freshness*, never *validity*.

Concurrency contract: publications for one object are serialised by its
shard lock and carry a monotonically non-decreasing ``version`` (the
agreed ``T.seq``), so concurrent readers — which read one attribute of
one cell, an atomic operation — observe non-decreasing versions.
Invalidations (crash, recovery, restart) empty the cell; the next read
of any mode counts a miss and refreshes from the recovered engine.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import ConfigurationError
from repro.util.encoding import Fragment, freeze, from_canonical_bytes

#: Consistency-mode kinds (see the module docstring for the contract).
SETTLED = "settled"
BOUNDED = "bounded"
CACHED = "cached"


@dataclass(frozen=True)
class ReadMode:
    """An explicit consistency mode for one ``examine`` read.

    Construct via :func:`settled`, :func:`bounded` or :func:`cached`
    (or pass the strings ``"settled"`` / ``"cached"`` anywhere a mode is
    accepted).  ``max_staleness`` is only meaningful for ``bounded``.
    """

    kind: str
    max_staleness: "Optional[float]" = None

    def describe(self) -> str:
        if self.kind == BOUNDED:
            return f"bounded({self.max_staleness:g}s)"
        return self.kind


def settled() -> ReadMode:
    """Quiesce-then-read: the seed semantics, now with a snapshot."""
    return ReadMode(SETTLED)


def cached() -> ReadMode:
    """Always serve the latest published snapshot, lock-free."""
    return ReadMode(CACHED)


def bounded(max_staleness: float) -> ReadMode:
    """Serve the cached snapshot if published within *max_staleness* s."""
    max_staleness = float(max_staleness)
    if max_staleness < 0:
        raise ConfigurationError("max_staleness must be >= 0 seconds")
    return ReadMode(BOUNDED, max_staleness)


def parse_read_mode(value: "ReadMode | str | None") -> ReadMode:
    """Normalise a user-supplied mode; ``None`` means :func:`settled`."""
    if value is None:
        return ReadMode(SETTLED)
    if isinstance(value, ReadMode):
        if value.kind == BOUNDED and value.max_staleness is None:
            raise ConfigurationError("bounded mode requires max_staleness")
        if value.kind not in (SETTLED, BOUNDED, CACHED):
            raise ConfigurationError(f"unknown read mode {value.kind!r}")
        return value
    if isinstance(value, str):
        if value in (SETTLED, CACHED):
            return ReadMode(value)
        raise ConfigurationError(
            f"unknown read mode {value!r} (use 'settled', 'cached', or "
            f"bounded(max_staleness))"
        )
    raise ConfigurationError(f"not a read mode: {value!r}")


@dataclass(frozen=True)
class Snapshot:
    """One immutable published view of an object's agreed state.

    ``version`` is the agreed state identifier's sequence number — it
    increases with every settled change and never decreases across
    publications.  ``settle_seq`` is this node's monotonic publication
    counter for the object (settlements *and* explicit refreshes bump
    it; it restarts with the process).  ``stamp`` is the publication
    time on the community clock: the moment the state was last known
    agreed at this replica, which is what staleness bounds measure.
    """

    object_name: str
    state: Any
    version: int
    state_id: dict
    settle_seq: int
    stamp: float


@dataclass(frozen=True)
class ReadResult:
    """One served read: the snapshot plus how it was served.

    ``hit`` is True when the read was answered from the published
    snapshot without a refresh; ``staleness`` is how many seconds behind
    its publication the snapshot was at serve time (0.0 for a refresh).
    """

    snapshot: Snapshot
    mode: ReadMode
    hit: bool
    staleness: float

    @property
    def state(self) -> Any:
        # Each access hands out a private copy: the cached snapshot is
        # shared by every concurrent reader, so a caller mutating its
        # result must not corrupt what other readers are served.
        return freeze(self.snapshot.state)

    @property
    def version(self) -> int:
        return self.snapshot.version


class _Cell:
    """Mutable holder for one object's latest snapshot.

    Readers do ``cell.snapshot`` — a single attribute load of an
    immutable object, atomic under CPython — so the read path takes no
    lock.  Writers replace the whole snapshot under the shard lock.
    """

    __slots__ = ("snapshot",)

    def __init__(self) -> None:
        self.snapshot: "Optional[Snapshot]" = None


class ReadCache:
    """Per-node registry of validated snapshots, one cell per object."""

    def __init__(self, node: Any) -> None:
        self._node = node
        self._cells: "dict[str, _Cell]" = {}
        # Guards cell *creation* only; snapshot swaps are serialised by
        # the owning shard's lock and snapshot reads are lock-free.
        self._cells_lock = threading.Lock()

    # ------------------------------------------------------------------
    # publication (called under the owning shard's lock)
    # ------------------------------------------------------------------

    def publish(self, object_name: str, state: Any, state_id: dict,
                encoded: "Fragment | None" = None) -> Snapshot:
        """Publish a settled state as the object's latest snapshot: a
        private copy, decoded from *encoded* — the fragment *state* was
        frozen from — when the caller has it.

        Callers hold the object's shard lock (settlement dispatch,
        registration, recovery all do), so publications for one object
        are serialised.  A publication whose version is *lower* than the
        current snapshot's is ignored — a late event replayed after a
        recovery republish must not roll the visible version back.
        """
        cell = self._cell(object_name)
        version = int(state_id["seq"])
        current = cell.snapshot
        if current is not None and version < current.version:
            return current
        snapshot = Snapshot(
            object_name=object_name,
            state=(freeze(state) if encoded is None
                   else from_canonical_bytes(encoded.data)),
            version=version,
            state_id=dict(state_id),
            settle_seq=(current.settle_seq + 1) if current is not None else 1,
            stamp=self._node.ctx.clock.now(),
        )
        cell.snapshot = snapshot
        obs = self._node.ctx.obs
        if obs.enabled:
            obs.snapshot_published(self._node.party_id, object_name,
                                  snapshot.version, snapshot.settle_seq)
        return snapshot

    def invalidate(self, object_name: "Optional[str]" = None,
                   reason: str = "recovery") -> None:
        """Drop published snapshots (all objects when *object_name* is None).

        The next read of any mode misses and refreshes from the engine's
        (recovered) agreed state — a crash or restart must never let a
        pre-crash snapshot masquerade as current.
        """
        with self._cells_lock:
            cells = ([self._cells[object_name]]
                     if object_name is not None and object_name in self._cells
                     else list(self._cells.values())
                     if object_name is None else [])
        obs = self._node.ctx.obs
        for cell in cells:
            snapshot = cell.snapshot
            cell.snapshot = None
            if snapshot is not None and obs.enabled:
                obs.snapshot_invalidated(self._node.party_id,
                                        snapshot.object_name, reason)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def latest(self, object_name: str) -> "Optional[Snapshot]":
        """The latest published snapshot, lock-free (None when empty)."""
        cell = self._cells.get(object_name)
        return cell.snapshot if cell is not None else None

    def read(self, object_name: str,
             mode: "ReadMode | str | None" = None) -> ReadResult:
        """Serve one validated read in the given consistency mode."""
        mode = parse_read_mode(mode)
        obs = self._node.ctx.obs
        if mode.kind != SETTLED:
            snapshot = self.latest(object_name)
            if snapshot is not None:
                staleness = self._node.ctx.clock.now() - snapshot.stamp
                if (mode.kind == CACHED
                        or staleness <= mode.max_staleness):
                    if obs.enabled:
                        obs.read_served(self._node.party_id, object_name,
                                        mode.kind, True, max(0.0, staleness))
                    return ReadResult(snapshot, mode, True,
                                      max(0.0, staleness))
        snapshot = self.refresh(object_name)
        if obs.enabled:
            obs.read_served(self._node.party_id, object_name, mode.kind,
                            False, 0.0)
        return ReadResult(snapshot, mode, False, 0.0)

    def refresh(self, object_name: str) -> Snapshot:
        """Quiesce, then republish the engine's agreed state.

        This is the settled path (and the miss/stale fallback): wait for
        in-flight coordination at this replica to settle, then publish a
        fresh snapshot of the agreed state under the shard lock.  The
        refreshed ``stamp`` records that the state was verified current
        at this moment, which is what a later ``bounded`` read measures
        against.
        """
        node = self._node
        node._await_quiescent(object_name)
        shard = node.shards.shard_for(object_name)
        with shard.lock:
            engine = node.party.session(object_name).state
            return self.publish(object_name, engine.agreed_state,
                                engine.agreed_sid.to_dict())

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _cell(self, object_name: str) -> _Cell:
        cell = self._cells.get(object_name)
        if cell is None:
            with self._cells_lock:
                cell = self._cells.setdefault(object_name, _Cell())
        return cell
