"""Span tracer for the traced pass: layers are measured from outside.

Nothing under ``src/`` knows about this file.  :class:`Tracer` wraps the
public callables in :data:`TARGETS` — methods at class level (on the
named class and on every loaded subclass that overrides the method, so
``Signer.sign_bytes`` reaches ``RsaSigner``), module-level functions by
rebinding every ``repro.*`` module global that *is* the original
(several modules do ``from repro.util.encoding import canonical_bytes``)
— and :meth:`Tracer.restore` puts every attribute back.

A span records its name, thread, parent (thread-local stack), wall
start/end and the thread's CPU clock at start/end.  Self time is a
span's duration minus the durations of its direct children, so the
per-layer rows of :func:`ledger` add up: the sum of CPU self times is
at most the process CPU spent while tracing, and what is missing
(reactor loop, locks, scheduling, this tracer) is the residual that
``bench.trace_coverage`` reports.
"""

from __future__ import annotations

import array
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Iterable, Optional

# Span fields, in storage order.  Spans live in one flat integer array
# (plus a side table for infos): allocating an object per span would
# make the collector run far more often than in the untraced program.
FIELDS = ("id", "name", "thread", "parent", "update",
          "wall0_ns", "cpu0_ns", "wall1_ns", "cpu1_ns")
ID, NAME, THREAD, PARENT, UPDATE, WALL0, CPU0, WALL1, CPU1 = range(len(FIELDS))

Info = Optional[Callable[[tuple, Any], Any]]


def _result_len(args: tuple, result: Any) -> int:
    return len(result)


def _arg_len(args: tuple, result: Any) -> int:
    return len(args[-1])


def _append_size(args: tuple, result: Any) -> int:
    return args[0].last_append_size


def _run_id(args: tuple, result: Any) -> str:
    return result[0]


#: (span name, "module:function" or "module:Class.method", info or None).
#: ``info(args, result)`` is stored on the span: a byte count for the
#: encoders and stores, the run id for proposals.
TARGETS: "list[tuple[str, str, Info]]" = [
    ("util.encoding", "repro.util.encoding:canonical_bytes", _result_len),
    ("util.encoding", "repro.util.encoding:from_canonical_bytes", _arg_len),
    ("crypto.sign", "repro.crypto.signature:Signer.sign_bytes", None),
    ("crypto.verify", "repro.crypto.signature:Verifier.verify_bytes", None),
    ("crypto.hash", "repro.crypto.hashing:secure_hash", None),
    ("crypto.hash", "repro.crypto.hashing:hash_value", None),
    ("crypto.tsa", "repro.crypto.timestamp:TimestampService.stamp_digest", None),
    ("crypto.tsa", "repro.crypto.timestamp:verify_timestamp", None),
    ("storage.append", "repro.storage.backends:RecordStore.append", _append_size),
    ("storage.log", "repro.storage.log:NonRepudiationLog.record", None),
    ("storage.journal", "repro.storage.journal:MessageJournal.record_message", None),
    ("storage.journal", "repro.storage.journal:MessageJournal.close_run", None),
    ("storage.checkpoint", "repro.storage.checkpoint:CheckpointStore.save", None),
    ("wire.encode", "repro.wire.framing:EnvelopeEncoder.encode", _result_len),
    ("wire.decode", "repro.wire.framing:FrameDecoder.decode", _arg_len),
    ("transport.send", "repro.transport.base:Network.send", None),
    ("protocol.engine",
     "repro.protocol.coordination:StateCoordinationEngine.handle", None),
    ("protocol.engine",
     "repro.protocol.coordination:StateCoordinationEngine.propose_update", _run_id),
    ("protocol.engine",
     "repro.protocol.coordination:StateCoordinationEngine.propose_update_batch",
     _run_id),
    ("core.submit", "repro.core.node:OrganisationNode.submit_update", None),
    ("core.readcache.publish", "repro.core.readcache:ReadCache.publish", None),
    ("core.readcache.read", "repro.core.readcache:ReadCache.read", None),
    ("gateway.submit", "repro.gateway.gateway:Gateway.submit", None),
]


class Tracer:
    """Wraps :data:`TARGETS`, collects spans in memory, restores on exit."""

    def __init__(self) -> None:
        self._data = array.array("q")
        #: span id -> ``info(args, result)`` of the targets that have one.
        self.infos: "dict[int, Any]" = {}
        self._names = sorted({name for name, _, _ in TARGETS})
        #: (owner, attribute, original) for every attribute replaced.
        self.patched: "list[tuple[Any, str, Any]]" = []
        #: Index of the update in flight; the serial load loop sets it
        #: (exactly one update is in flight there), others leave it -1.
        self.update = -1
        self._ids = itertools.count()
        self._local = threading.local()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    def install(self) -> None:
        for name, target, info in TARGETS:
            module_name, _, path = target.partition(":")
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, _, attr = path.partition(".")
                for cls in _implementations(getattr(module, class_name), attr):
                    self._replace(cls, attr, name, info)
            else:
                original = getattr(module, path)
                traced = self._wrap(name, original, info)
                for other in list(sys.modules.values()):
                    if (getattr(other, "__name__", "").startswith("repro")
                            and vars(other).get(path) is original):
                        self.patched.append((other, path, original))
                        setattr(other, path, traced)

    def restore(self) -> None:
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    def _replace(self, cls: type, attr: str, name: str, info: Info) -> None:
        original = vars(cls)[attr]
        self.patched.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, info))

    def _wrap(self, name: str, fn: Callable, info: Info) -> Callable:
        record, infos = self._data.extend, self.infos
        ids, local, code = self._ids, self._local, self._names.index(name)
        wall, cpu = time.perf_counter_ns, time.thread_time_ns
        ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span)
            update = self.update
            # CPU inside wall, so a child's clocks nest in its parent's.
            wall0 = wall()
            cpu0 = cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu1 = cpu()
                wall1 = wall()
                stack.pop()
                record((span, code, ident(), parent, update,
                        wall0, cpu0, wall1, cpu1))
            if info is not None:
                infos[span] = info(args, result)
            return result

        return traced

    @property
    def spans(self) -> "list[tuple]":
        """Every finished span as a tuple in :data:`FIELDS` order, with
        the name as a string."""
        data, width, names = self._data, len(FIELDS), self._names
        return [(data[i], names[data[i + 1]], *data[i + 2:i + width])
                for i in range(0, len(data), width)]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                row = dict(zip(FIELDS, span), info=self.infos.get(span[ID]))
                handle.write(json.dumps(row) + "\n")


def _implementations(cls: type, attr: str) -> "Iterable[type]":
    """*cls* and its loaded subclasses that define *attr* themselves."""
    stack = [cls]
    while stack:
        current = stack.pop()
        if attr in vars(current):
            yield current
        stack.extend(current.__subclasses__())


def ledger(spans: "list[tuple]",
           infos: "dict[int, Any]") -> "dict[str, dict]":
    """Per span name: calls, self CPU ns, self wall ns and summed info.

    ``calls`` counts outermost spans only (``hash_value`` calling
    ``secure_hash`` is one hash call), and ``info`` sums integer infos.
    """
    by_id = {span[ID]: span for span in spans}
    child_cpu: "dict[int, int]" = {}
    child_wall: "dict[int, int]" = {}
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            child_cpu[parent] = child_cpu.get(parent, 0) + span[CPU1] - span[CPU0]
            child_wall[parent] = (child_wall.get(parent, 0)
                                  + span[WALL1] - span[WALL0])
    rows: "dict[str, dict]" = {}
    for span in spans:
        row = rows.setdefault(span[NAME], {"calls": 0, "self_cpu_ns": 0,
                                           "self_wall_ns": 0, "info": 0})
        parent = by_id.get(span[PARENT])
        if parent is None or parent[NAME] != span[NAME]:
            row["calls"] += 1
        row["self_cpu_ns"] += (span[CPU1] - span[CPU0]
                               - child_cpu.get(span[ID], 0))
        row["self_wall_ns"] += (span[WALL1] - span[WALL0]
                                - child_wall.get(span[ID], 0))
        info = infos.get(span[ID])
        if isinstance(info, int):
            row["info"] += info
    return rows
