"""Structured tracing: typed span/event records with pluggable exporters.

A :class:`Tracer` turns protocol activity into flat, timestamped records
(run id, party, phase, sizes, durations) that can be collected in memory
for assertions or streamed as JSON lines for offline analysis.  Records
are plain data — no object graph to walk — so an exporter is just a
callable receiving one dict-able record at a time.

Cross-party causality rides on a :class:`TraceContext` — a W3C-style
trace id (32 hex chars, derived from the protocol run id so every party
computes the same one), a span id (16 hex chars), and a Lamport clock
value.  The context travels in an unsigned ``trace_ctx`` field of the
wire messages, so wall-clock skew between organisations never matters:
merging per-party trace files (:mod:`repro.obs.merge`) orders records by
Lamport value with the party id as the tie-break.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.util.encoding import as_int

SPAN = "span"
EVENT = "event"

TRACE_ID_CHARS = 32  # W3C trace-id: 16 bytes hex
SPAN_ID_CHARS = 16  # W3C span-id: 8 bytes hex


def trace_id_for_run(run_id: str) -> str:
    """Derive the W3C-style trace id every party uses for one run.

    Run ids are already collision-free hashes shared by all parties (each
    derives it from the proposed state identifier), so the trace id is
    simply its 16-byte prefix — a party that never received the carried
    context still lands in the right trace.
    """
    if not run_id:
        return ""
    return run_id[:TRACE_ID_CHARS].ljust(TRACE_ID_CHARS, "0")


def span_id_for(trace_id: str, party: str, lamport: int) -> str:
    """Deterministic span id for one party's event in one trace."""
    seed = f"span|{trace_id}|{party}|{lamport}".encode("utf-8")
    return hashlib.sha256(seed).hexdigest()[:SPAN_ID_CHARS]


class LamportClock:
    """Thread-safe Lamport logical clock (one per party)."""

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def tick(self) -> int:
        """Advance for a local event; returns the event's clock value."""
        with self._lock:
            self._value += 1
            return self._value

    def observe(self, other: int) -> int:
        """Merge a received clock value; returns the receive event's value."""
        with self._lock:
            self._value = max(self._value, int(other)) + 1
            return self._value


@dataclass(frozen=True)
class TraceContext:
    """The causal context of one protocol message.

    ``span_id`` identifies the emitting event; ``parent_span_id`` (set on
    the receiving side) points at the send event that caused it.
    """

    trace_id: str
    span_id: str
    lamport: int
    parent_span_id: str = ""

    def to_dict(self) -> dict:
        data = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "lamport": self.lamport,
        }
        if self.parent_span_id:
            data["parent_span_id"] = self.parent_span_id
        return data

    @staticmethod
    def from_dict(data) -> "Optional[TraceContext]":
        """Tolerant parse; returns None for anything malformed."""
        if not isinstance(data, dict):
            return None
        try:
            return TraceContext(
                trace_id=str(data.get("trace_id", "")),
                span_id=str(data.get("span_id", "")),
                lamport=as_int(data.get("lamport", 0)),
                parent_span_id=str(data.get("parent_span_id", "")),
            )
        except (TypeError, ValueError):
            return None


class PartyTraceContext:
    """One party's causal-tracing state: its Lamport clock + id factory."""

    def __init__(self, party_id: str) -> None:
        self.party_id = party_id
        self.clock = LamportClock()

    def begin_send(self, run_id: str) -> TraceContext:
        """Context for an outbound message (one broadcast = one event)."""
        lamport = self.clock.tick()
        trace_id = trace_id_for_run(run_id)
        return TraceContext(
            trace_id=trace_id,
            span_id=span_id_for(trace_id, self.party_id, lamport),
            lamport=lamport,
        )

    def receive(self, run_id: str, raw) -> TraceContext:
        """Context for an inbound message.

        Merges the carried Lamport value into the local clock; when the
        sender attached no context (mixed deployments, older peers) the
        trace id is re-derived from the run id so the record still joins
        the right trace — causal edges are simply absent.
        """
        carried = TraceContext.from_dict(raw)
        if carried is not None:
            lamport = self.clock.observe(carried.lamport)
            trace_id = carried.trace_id or trace_id_for_run(run_id)
            parent = carried.span_id
        else:
            lamport = self.clock.tick()
            trace_id = trace_id_for_run(run_id)
            parent = ""
        return TraceContext(
            trace_id=trace_id,
            span_id=span_id_for(trace_id, self.party_id, lamport),
            lamport=lamport,
            parent_span_id=parent,
        )

    def local_event(self, run_id: str) -> TraceContext:
        """Context for a purely local causal event (decision, outcome)."""
        return self.begin_send(run_id)


@dataclass(frozen=True)
class TraceRecord:
    """One trace record: a point event or a completed span."""

    kind: str  # SPAN or EVENT
    name: str
    party: str = ""
    at: float = 0.0  # time of emission by the tracer's clock (seconds)
    seconds: "Optional[float]" = None  # span duration; None for events
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        record = {"kind": self.kind, "name": self.name, "party": self.party,
                  "at": self.at}
        if self.seconds is not None:
            record["seconds"] = self.seconds
        record.update(self.attrs)
        return record


Exporter = Callable[[TraceRecord], None]


class InMemoryCollector:
    """Exporter that keeps every record; the test-side trace sink."""

    def __init__(self) -> None:
        self.records: "list[TraceRecord]" = []

    def __call__(self, record: TraceRecord) -> None:
        self.records.append(record)

    def named(self, name: str) -> "list[TraceRecord]":
        return [r for r in self.records if r.name == name]

    def spans(self) -> "list[TraceRecord]":
        return [r for r in self.records if r.kind == SPAN]

    def events(self) -> "list[TraceRecord]":
        return [r for r in self.records if r.kind == EVENT]


class JsonLinesExporter:
    """Exporter writing one JSON object per record to a file.

    Attribute values must be JSON-serialisable (the instrumentation only
    emits str/int/float/bool); anything else is stringified rather than
    dropped, so a trace file never loses records to an odd attribute.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = open(path, "a", encoding="utf-8")

    def __call__(self, record: TraceRecord) -> None:
        line = json.dumps(record.to_dict(), default=str, sort_keys=True)
        self._handle.write(line + "\n")

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "JsonLinesExporter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class TraceFormatError(ValueError):
    """A trace input holding something other than trace records."""


#: The fields readers order and print records by, with their types.
_FIELD_TYPES = (("name", str), ("party", str), ("at", (int, float)),
                ("lamport", int))


def check_record(value, where: str) -> dict:
    """*value*, if it has a trace record's shape: a JSON object whose
    ``name``, ``party``, ``at`` and ``lamport`` (where present) have the
    types a :class:`TraceRecord` exports.  Else :class:`TraceFormatError`
    naming *where*."""
    if type(value) is not dict:
        raise TraceFormatError(f"{where}: not a JSON object")
    for key, kinds in _FIELD_TYPES:
        if key in value and not isinstance(value[key], kinds):
            raise TraceFormatError(f"{where}: {key!r} has the wrong type")
    return value


def read_jsonl(path: str) -> "list[dict]":
    """Load a JSON-lines trace file back into record dicts.

    A line that is no JSON, nests too deep or is no trace record (see
    :func:`check_record`) raises :class:`TraceFormatError` naming the
    file and line; a missing file raises :class:`OSError`.
    """
    records = []
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            where = f"{path}:{number}"
            try:
                value = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise TraceFormatError(
                    f"{where}: {type(exc).__name__}") from None
            records.append(check_record(value, where))
    return records


class Tracer:
    """Fan-out point for trace records.

    ``wall_clock`` stamps records (``time.time`` until
    :meth:`bind_clock` names the deployment's clock); ``perf_clock``
    measures span durations (monotonic, high resolution).  Both are
    injectable so tests can assert on deterministic output.

    Export is serialised under a lock: TCP deployments run parties in
    threads, and two parties flushing through one
    :class:`JsonLinesExporter` must not interleave half-written lines.
    """

    def __init__(self, exporters: "list[Exporter] | None" = None,
                 wall_clock: "Callable[[], float] | None" = None,
                 perf_clock: "Callable[[], float]" = time.perf_counter) -> None:
        self.exporters: "list[Exporter]" = list(exporters or [])
        self._wall = wall_clock or time.time
        self._clocked = wall_clock is not None
        self._perf = perf_clock
        self._lock = threading.Lock()

    def bind_clock(self, clock) -> None:
        """Stamp records with *clock* (a :class:`~repro.util.clocks.Clock`)
        from now on, unless a wall clock was given or bound before.

        Instrumentation is often built before the community that owns
        the clock; binding late keeps a simulated run's records, and the
        flight ring fed from them, on virtual time instead of mixing
        ~1.7e9 ``time.time()`` values among small simulated times.
        """
        if not self._clocked:
            self._wall, self._clocked = clock.now, True

    def add_exporter(self, exporter: Exporter) -> None:
        with self._lock:
            self.exporters.append(exporter)

    def event(self, name: str, party: str = "",
              **attrs) -> "TraceRecord | None":
        return self.emit(EVENT, name, party, None, attrs)

    def span_end(self, name: str, seconds: float, party: str = "",
                 **attrs) -> "TraceRecord | None":
        """Record an already-measured span."""
        return self.emit(SPAN, name, party, seconds, attrs)

    def emit(self, kind: str, name: str, party: str,
             seconds: "Optional[float]", attrs: dict) -> "TraceRecord | None":
        """Stamp one record and hand it to every exporter (the
        instrumentation hot path); the record keeps *attrs*, uncopied."""
        if not self.exporters:
            return None
        record = TraceRecord(kind, name, party, self._wall(), seconds, attrs)
        with self._lock:
            for exporter in self.exporters:
                exporter(record)
        return record

    @contextmanager
    def span(self, name: str, party: str = "", **attrs) -> "Iterator[dict]":
        """Measure a code block; the yielded dict adds late attributes."""
        extra: dict = {}
        started = self._perf()
        try:
            yield extra
        finally:
            seconds = self._perf() - started
            merged = dict(attrs)
            merged.update(extra)
            self.span_end(name, seconds, party=party, **merged)


class PartyFilesExporter:
    """Exporter writing each party's records to its own JSONL file.

    Models the deployment reality the merge pipeline expects: every
    organisation exports its *own* trace file, and an auditor combines
    them offline.  Records with no party attribution (community-wide
    events) go to ``trace-_shared.jsonl``.
    """

    def __init__(self, directory: str, prefix: str = "trace-") -> None:
        self.directory = directory
        self.prefix = prefix
        os.makedirs(directory, exist_ok=True)
        self._files: "dict[str, JsonLinesExporter]" = {}

    def __call__(self, record: TraceRecord) -> None:
        party = record.party or "_shared"
        exporter = self._files.get(party)
        if exporter is None:
            path = os.path.join(self.directory, f"{self.prefix}{party}.jsonl")
            exporter = JsonLinesExporter(path)
            self._files[party] = exporter
        exporter(record)

    def paths(self) -> "dict[str, str]":
        return {party: exporter.path
                for party, exporter in self._files.items()}

    def close(self) -> None:
        for exporter in self._files.values():
            exporter.close()

    def __enter__(self) -> "PartyFilesExporter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
