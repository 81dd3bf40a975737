"""The protocol flight recorder: bounded post-mortem context capture.

Always-on tracing is too expensive for production and post-hoc tracing is
too late — by the time an operator re-runs a workload with tracing
enabled, the interesting failure is gone.  A :class:`FlightRecorder`
splits the difference the way avionics do: a bounded in-memory ring of
the most recent protocol/transport/gateway events is maintained at all
times (O(1) append, a few hundred bytes per event, zero cost when no
recorder is attached), and only when something goes wrong — a health
alert fires, an operator asks — is the ring dumped as a JSONL artefact.

The recorder is fed from the existing :class:`~repro.obs.hooks.
Instrumentation` hook sites via :class:`~repro.obs.recording.
RecordingInstrumentation` (``flight=`` argument or the ``flight``
attribute): no new call sites in the protocol/transport/gateway layers,
just a second destination for events that already flow.  Which events
reach the ring, and under which kind, is the ``flight`` field of their
:mod:`repro.obs.catalogue` entry (rendered in ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import IO, Optional

from repro.util.clocks import Clock

DEFAULT_CAPACITY = 2048


class FlightRecorder:
    """Bounded ring buffer of recent middleware events.

    Events are plain dicts stamped with a monotonically increasing
    ``seq`` and a timestamp ``t`` (the supplied protocol clock so sim
    runs dump virtual times; wall clock otherwise).  The deque bound
    makes append O(1) and memory use constant however long the node
    runs.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 clock: "Optional[Clock]" = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._clock = clock
        self._ring: "deque[dict]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0

    def _now(self) -> float:
        return self._clock.now() if self._clock is not None else time.time()

    def bind_clock(self, clock: "Optional[Clock]") -> None:
        """Adopt *clock* for event timestamps, unless one is already set.

        A recorder is often built before the community that owns the
        clock (``RecordingInstrumentation(flight=...)`` in the CLI);
        binding late keeps every event on one timeline — mixing the
        ``time.time()`` fallback with a virtual clock would interleave
        ~1.7e9 wall values among small simulated times in dumps.
        """
        if self._clock is None and clock is not None:
            self._clock = clock

    # ------------------------------------------------------------------
    # write side (hook-site hot path)
    # ------------------------------------------------------------------

    def record(self, kind: str, **fields) -> None:
        """Append one event; evicts the oldest when the ring is full."""
        fields["kind"] = kind
        fields["t"] = self._now()
        with self._lock:
            self._seq += 1
            fields["seq"] = self._seq
            self._ring.append(fields)

    # ------------------------------------------------------------------
    # read side (alerts, dumps, endpoint)
    # ------------------------------------------------------------------

    @property
    def recorded(self) -> int:
        """Total events ever recorded (≥ ``len(events())``)."""
        return self._seq

    def events(self) -> "list[dict]":
        """The retained events, oldest first (a consistent copy)."""
        with self._lock:
            return list(self._ring)

    def dump_lines(self) -> "list[str]":
        """The retained events as JSONL lines (no trailing newlines)."""
        return [json.dumps(event, sort_keys=True, default=str)
                for event in self.events()]

    def dump(self, target: "str | IO[str]") -> int:
        """Write the ring to *target* (path or file); returns event count."""
        lines = self.dump_lines()
        if hasattr(target, "write"):
            for line in lines:
                target.write(line + "\n")
        else:
            with open(target, "w", encoding="utf-8") as handle:
                for line in lines:
                    handle.write(line + "\n")
        return len(lines)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
