"""Validated read-path cache: serve ``examine()`` without coordinating.

The paper's access-scoping model (section 5) makes every read scope wait
for in-flight coordination to settle (``Controller.enter`` →
``OrganisationNode._await_quiescent``), so read-heavy workloads pay
coordination-round prices even though *agreed* state only changes at
settlement boundaries.  Here every settlement publishes an immutable
:class:`Snapshot` — the agreed state's canonical bytes, its version,
``settle_seq`` and ``stamp`` — under the node's engine lock, and read
scopes pick a snapshot **lock-free** according to an explicit
consistency mode:

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

Whatever the mode, a served snapshot is **validated**: it holds the
bytes of a state that passed the full non-repudiable coordination round
(invariants 1–3, unanimous signed acceptance) — a vetoed or still
in-flight proposal's pre-applied state is never published, so no cached
read can observe it.  The cache trades *freshness*, never *validity*.

Staleness is measured on the runtime network's clock (monotonic over
sockets, virtual in the simulator), never on the wall clock the
evidence is stamped with: a wall clock that steps back must not make an
old snapshot look fresh.

Concurrency contract: publications for one object are serialised by the
engine lock and carry a monotonically non-decreasing ``version`` (the
agreed ``T.seq``), so concurrent readers — which do one lookup in the
cell dict, an atomic operation — observe non-decreasing versions.
Invalidations (crash, recovery, restart) empty the cell; the next read
of any mode counts a miss and refreshes from the recovered engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

from repro.errors import ConfigurationError
from repro.util.encoding import Fragment, canonical_bytes, from_canonical_bytes

#: Consistency-mode kinds (see the module docstring for the contract).
SETTLED = "settled"
BOUNDED = "bounded"
CACHED = "cached"


@dataclass(frozen=True)
class ReadMode:
    """An explicit consistency mode for one ``examine`` read.

    Construct via :func:`settled`, :func:`bounded` or :func:`cached`
    (or pass the strings ``"settled"`` / ``"cached"`` anywhere a mode is
    accepted).  A mode is checked when it is built: ``bounded`` needs a
    ``max_staleness`` of at least 0 seconds, the other kinds none.
    """

    kind: str
    max_staleness: "Optional[float]" = None

    def __post_init__(self) -> None:
        bound = self.max_staleness
        if self.kind == BOUNDED:
            # ``not bound >= 0`` also refuses NaN, which compares false.
            if type(bound) not in (int, float) or not bound >= 0:
                raise ConfigurationError(
                    f"bounded mode needs max_staleness >= 0 seconds, "
                    f"not {bound!r}")
            object.__setattr__(self, "max_staleness", float(bound))
        elif self.kind not in (SETTLED, CACHED):
            raise ConfigurationError(
                f"unknown read mode {self.kind!r} (use 'settled', "
                f"'cached', or bounded(max_staleness))")
        elif bound is not None:
            raise ConfigurationError(
                f"{self.kind} mode takes no max_staleness")

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
    return ReadMode(BOUNDED, max_staleness)


def parse_read_mode(value: "ReadMode | str | None") -> ReadMode:
    """Normalise a user-supplied mode; ``None`` means :func:`settled`."""
    if isinstance(value, ReadMode):
        return value  # checked when it was built
    if value is None:
        return ReadMode(SETTLED)
    if isinstance(value, str) and value in (SETTLED, CACHED):
        return ReadMode(value)
    raise ConfigurationError(
        f"not a read mode: {value!r} (use 'settled', 'cached', or "
        f"bounded(max_staleness))")


@dataclass(frozen=True)
class Snapshot:
    """One immutable published view of an object's agreed state.

    ``encoded`` is the state's canonical bytes — the bytes the signed
    coordination round agreed on — and :attr:`state` decodes them into a
    private copy on every access.  ``version`` is the agreed state
    identifier's sequence number — it increases with every settled
    change and never decreases across publications.  ``settle_seq`` is
    this node's monotonic publication counter for the object
    (settlements *and* explicit refreshes bump it; it restarts with the
    process).  ``stamp`` is the publication time on the runtime
    network's clock: the moment the state was last known agreed at this
    replica, which is what staleness bounds measure.
    """

    object_name: str
    encoded: bytes
    version: int
    state_id: dict
    settle_seq: int
    stamp: float

    @property
    def state(self) -> Any:
        # Every access decodes a private copy: the snapshot is shared by
        # every concurrent reader, so a caller mutating what it got must
        # not change what the next read is served.
        return from_canonical_bytes(self.encoded)


class ReadResult(NamedTuple):
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
        """A private copy of the served state (see :attr:`Snapshot.state`)."""
        return self.snapshot.state

    @property
    def version(self) -> int:
        return self.snapshot.version


class ReadCache:
    """Per-node registry of validated snapshots, one cell per object."""

    def __init__(self, node: Any) -> None:
        self._node = node
        #: object name -> latest snapshot.  Readers do one ``get`` and
        #: writers one store, each atomic under CPython, so the read
        #: path takes no lock; publications are serialised by the
        #: node's engine lock.
        self._cells: "dict[str, Snapshot]" = {}
        self._now = node.runtime.network.now

    # ------------------------------------------------------------------
    # publication (called under the node's engine lock)
    # ------------------------------------------------------------------

    def publish(self, object_name: str, state: Any, state_id: dict,
                encoded: "Fragment | None" = None) -> Snapshot:
        """Publish a settled state as the object's latest snapshot: the
        bytes of *encoded* — the fragment *state* was frozen from — when
        the caller has it, else *state* encoded once.

        Callers hold the node's engine lock (settlement dispatch,
        registration, recovery all do), so publications for one object
        are serialised.  A publication whose version is *lower* than the
        current snapshot's is ignored — a late event replayed after a
        recovery republish must not roll the visible version back.
        """
        version = int(state_id["seq"])
        current = self._cells.get(object_name)
        if current is not None and version < current.version:
            return current
        snapshot = Snapshot(
            object_name=object_name,
            encoded=(canonical_bytes(state) if encoded is None
                     else encoded.data),
            version=version,
            state_id=dict(state_id),
            settle_seq=(current.settle_seq + 1) if current is not None else 1,
            stamp=self._now(),
        )
        self._cells[object_name] = snapshot
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
        names = list(self._cells) if object_name is None else [object_name]
        obs = self._node.ctx.obs
        for name in names:
            snapshot = self._cells.pop(name, None)
            if snapshot is not None and obs.enabled:
                obs.snapshot_invalidated(self._node.party_id, name, reason)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def latest(self, object_name: str) -> "Optional[Snapshot]":
        """The latest published snapshot, lock-free (None when empty)."""
        return self._cells.get(object_name)

    def read(self, object_name: str,
             mode: "ReadMode | str | None" = None) -> ReadResult:
        """Serve one validated read in the given consistency mode."""
        if not isinstance(mode, ReadMode):
            mode = parse_read_mode(mode)
        if mode.kind != SETTLED:
            snapshot = self._cells.get(object_name)
            if snapshot is not None:
                staleness = self._now() - snapshot.stamp
                if mode.kind == CACHED or staleness <= mode.max_staleness:
                    obs = self._node.ctx.obs
                    if obs.enabled:
                        obs.read_served(self._node.party_id, object_name,
                                        mode.kind, True, staleness)
                    return ReadResult(snapshot, mode, True, staleness)
        snapshot = self.refresh(object_name)
        obs = self._node.ctx.obs
        if obs.enabled:
            obs.read_served(self._node.party_id, object_name, mode.kind,
                            False, 0.0)
        return ReadResult(snapshot, mode, False, 0.0)

    def refresh(self, object_name: str) -> Snapshot:
        """Quiesce, then republish the engine's agreed state.

        This is the settled path (and the miss/stale fallback): wait for
        in-flight coordination at this replica to settle, then publish a
        fresh snapshot of the agreed state under the engine lock.  The
        refreshed ``stamp`` records that the state was verified current
        at this moment, which is what a later ``bounded`` read measures
        against.
        """
        node = self._node
        node._await_quiescent(object_name)
        with node.engine_lock:
            engine = node.party.session(object_name).state
            return self.publish(object_name, engine.agreed_state,
                                engine.agreed_sid.to_dict())
