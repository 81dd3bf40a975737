"""The protocol flight recorder: bounded post-mortem context capture.

Always-on tracing is too expensive for production and post-hoc tracing is
too late — by the time an operator re-runs a workload with tracing
enabled, the interesting failure is gone.  A :class:`FlightRecorder`
splits the difference the way avionics do: a bounded in-memory ring of
the most recent trace records is maintained at all times (O(1) append,
one reference per record, zero cost when no recorder is attached), and
only when something goes wrong — a health alert fires, an operator asks
— is the ring dumped as a JSONL artefact.

The recorder is one more exporter of the instrumentation's
:class:`~repro.obs.trace.Tracer` (``obs.tracer.add_exporter(ring)``), so
it holds exactly what a trace file holds, stamped by the same clock: a
dump is a valid ``repro audit --trace`` input.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import IO

from repro.obs.trace import TraceRecord

DEFAULT_CAPACITY = 2048


class FlightRecorder:
    """Bounded ring buffer of the most recent trace records.

    The deque bound makes append O(1) and memory use constant however
    long the node runs; a record becomes a dict only when it is read.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.recorded = 0  # records ever exported here (≥ len(events()))
        self._ring: "deque[TraceRecord]" = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def __call__(self, record: TraceRecord) -> None:
        """Append one record; evicts the oldest when the ring is full."""
        with self._lock:
            self._ring.append(record)
            self.recorded += 1

    def events(self) -> "list[dict]":
        """The retained records as dicts, oldest first."""
        with self._lock:
            records = list(self._ring)
        return [record.to_dict() for record in records]

    def dump_lines(self) -> "list[str]":
        """The retained records as trace-file lines (no trailing newlines)."""
        return [json.dumps(event, sort_keys=True, default=str)
                for event in self.events()]

    def dump(self, target: "str | IO[str]") -> int:
        """Write the ring to *target* (path or file); returns record count."""
        lines = self.dump_lines()
        if hasattr(target, "write"):
            for line in lines:
                target.write(line + "\n")
        else:
            with open(target, "w", encoding="utf-8") as handle:
                for line in lines:
                    handle.write(line + "\n")
        return len(lines)
