"""Multi-object shard scheduler: horizontal scale-out inside one node.

One :class:`~repro.core.node.OrganisationNode` used to serialize *every*
object's protocol work — inbound m1/m2/m3 handling, pipeline drains,
validation — behind a single re-entrant lock.  That is correct but caps
a node at one coordination step at a time however many independent
B2BObjects it hosts.  This module partitions that responsibility:

* :class:`ShardMap` — a deterministic consistent-hash ring (blake2b over
  object names, virtual nodes for smoothness), so every party of a
  community routes a given object to the same shard index without
  coordination.
* :class:`Shard` — one partition: a re-entrant lock guarding its
  objects' engines and write pipelines (one
  :class:`~repro.protocol.pipeline.ProposalPipeline` per object — the
  object's only write queue), and an optional dedicated worker thread
  draining an inbound-message queue.
* :class:`ShardScheduler` — the per-node bundle: routing, lifecycle,
  canonical all-shard lock acquisition for cross-shard operations.

Lock order (must hold everywhere): ``node._lock`` → ``shard.lock`` (in
ascending shard-index order when several are held) → the node's registry
lock.  Event listeners and ticket ``on_done`` callbacks are never
invoked while a shard lock is held.
"""

from __future__ import annotations

import bisect
import collections
import hashlib
import struct
import threading
from typing import Any, Callable, Optional

from repro.errors import ConfigurationError
from repro.protocol.pipeline import ProposalPipeline

#: Ring positions per shard: enough for <2% imbalance at 8 shards
#: without making ring construction or bisection noticeable.
VIRTUAL_NODES = 64


def _hash64(key: str) -> int:
    """Stable 64-bit hash (builtin ``hash`` is salted per process)."""
    return struct.unpack(
        ">Q", hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    )[0]


class ShardMap:
    """Deterministic object-name → shard-index mapping.

    Consistent hashing keeps the mapping stable as names come and go and
    identical at every party.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ConfigurationError("num_shards must be at least 1")
        self.num_shards = num_shards
        ring: "list[tuple[int, int]]" = []
        for shard in range(num_shards):
            for replica in range(VIRTUAL_NODES):
                ring.append((_hash64(f"shard:{shard}:vn:{replica}"), shard))
        ring.sort()
        self._ring_keys = [key for key, _ in ring]
        self._ring_shards = [shard for _, shard in ring]

    def shard_of(self, object_name: str) -> int:
        if self.num_shards == 1:
            return 0
        point = _hash64(object_name)
        index = bisect.bisect_right(self._ring_keys, point)
        if index == len(self._ring_keys):
            index = 0
        return self._ring_shards[index]

    def spread(self, names: "list[str]") -> "dict[int, list[str]]":
        """Group *names* by shard (diagnostics and tests)."""
        groups: "dict[int, list[str]]" = {}
        for name in names:
            groups.setdefault(self.shard_of(name), []).append(name)
        return groups


class Shard:
    """One partition of a node's coordination responsibility."""

    def __init__(self, index: int,
                 on_error: "Optional[Callable[[], None]]" = None) -> None:
        self.index = index
        self.lock = threading.RLock()
        #: Object name → its write pipeline, created on first use by
        #: :meth:`OrganisationNode.pipeline` under :attr:`lock`.
        self.pipelines: "dict[str, ProposalPipeline]" = {}
        self._on_error = on_error
        self._queue: "Optional[collections.deque[Callable[[], None]]]" = None
        self._ready: "Optional[threading.Condition]" = None
        self._worker: "Optional[threading.Thread]" = None
        self._stopped = False

    # ------------------------------------------------------------------
    # worker plumbing
    # ------------------------------------------------------------------

    def start_worker(self, name: str) -> None:
        if self._worker is not None:
            return
        self._queue = collections.deque()
        self._ready = threading.Condition()
        self._worker = threading.Thread(
            target=self._drain, daemon=True, name=f"shard-{name}-{self.index}")
        self._worker.start()

    @property
    def worker_running(self) -> bool:
        return self._worker is not None and self._worker.is_alive()

    @property
    def queue_depth(self) -> int:
        queue = self._queue
        return len(queue) if queue is not None else 0

    def submit(self, work: "Callable[[], None]") -> None:
        """Run *work* on the shard: queued to the worker, else inline."""
        ready = self._ready
        if ready is None or self._stopped:
            work()
            return
        with ready:
            self._queue.append(work)  # type: ignore[union-attr]
            ready.notify()

    def _drain(self) -> None:
        ready = self._ready
        queue = self._queue
        assert ready is not None and queue is not None
        while True:
            with ready:
                while not queue and not self._stopped:
                    ready.wait()
                if self._stopped and not queue:
                    return
                work = queue.popleft()
            try:
                work()
            except Exception:  # noqa: BLE001 - shard work must not kill the drain
                if self._on_error is not None:
                    self._on_error()

    def stop(self) -> None:
        ready = self._ready
        self._stopped = True
        if ready is not None:
            with ready:
                ready.notify_all()
        worker = self._worker
        if worker is not None and worker.is_alive():
            worker.join(timeout=1.0)


class ShardScheduler:
    """A node's set of shards plus the routing map over them."""

    def __init__(self, num_shards: int = 1,
                 workers: bool = False,
                 name: str = "",
                 on_error: "Optional[Callable[[], None]]" = None) -> None:
        """*on_error* is called (on the worker thread) whenever work
        handed to a shard worker raises; the worker keeps draining."""
        self.map = ShardMap(num_shards)
        self.shards = [Shard(index, on_error) for index in range(num_shards)]
        self.workers = workers
        if workers:
            for shard in self.shards:
                shard.start_worker(name)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_for(self, object_name: "Optional[str]") -> Shard:
        if object_name is None or len(self.shards) == 1:
            return self.shards[0]
        return self.shards[self.map.shard_of(object_name)]

    def shards_for(self, names: "list[str]") -> "list[Shard]":
        """Distinct shards covering *names*, in canonical (index) order."""
        seen: "dict[int, Shard]" = {}
        for name in names:
            shard = self.shard_for(name)
            seen[shard.index] = shard
        return [seen[index] for index in sorted(seen)]

    def lock_all(self) -> "_AllShardLocks":
        """Acquire every shard lock in canonical order (a context
        manager), for party-wide operations like recovery resends."""
        return _AllShardLocks(self.shards)

    def pipeline_for(self, object_name: str) -> "Optional[ProposalPipeline]":
        return self.shard_for(object_name).pipelines.get(object_name)

    def stop(self) -> None:
        for shard in self.shards:
            shard.stop()


class _AllShardLocks:
    def __init__(self, shards: "list[Shard]") -> None:
        self._shards = shards

    def __enter__(self) -> None:
        for shard in self._shards:
            shard.lock.acquire()

    def __exit__(self, *exc: Any) -> None:
        for shard in reversed(self._shards):
            shard.lock.release()
