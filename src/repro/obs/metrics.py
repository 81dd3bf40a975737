"""Metric instruments: counters, gauges and streaming histograms.

One statistics implementation for the whole repository.  The benchmark
helpers in :mod:`repro.bench.metrics` delegate here, and the runtime
instrumentation (:mod:`repro.obs.recording`) records into a
:class:`MetricsRegistry` of these instruments.

:class:`StreamingHistogram` estimates quantiles without storing samples:
observations land in geometrically spaced buckets (relative error bounded
by the growth factor), so memory stays O(log(max/min)) however many
values are recorded — suitable for per-message latency on hot paths.
"""

from __future__ import annotations

import math
import threading
from typing import Sequence


def exact_quantile(samples: "Sequence[float]", fraction: float) -> float:
    """Quantile of *samples* with linear interpolation between ranks.

    ``fraction`` is clamped to [0, 1]; an empty sequence yields 0.0.
    This is the repository's single exact-quantile implementation.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if fraction <= 0.0:
        return ordered[0]
    if fraction >= 1.0:
        return ordered[-1]
    position = fraction * (len(ordered) - 1)
    lower = int(math.floor(position))
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def summarise(samples: "Sequence[float]") -> dict:
    """Summary statistics dict shared by recorders and reports."""
    if not samples:
        return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0, "stddev": 0.0}
    count = len(samples)
    mean = sum(samples) / count
    if count < 2:
        stddev = 0.0
    else:
        stddev = math.sqrt(
            sum((s - mean) ** 2 for s in samples) / (count - 1)
        )
    return {
        "count": count,
        "mean": mean,
        "min": min(samples),
        "max": max(samples),
        "p50": exact_quantile(samples, 0.50),
        "p95": exact_quantile(samples, 0.95),
        "p99": exact_quantile(samples, 0.99),
        "stddev": stddev,
    }


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """Last-written value plus its high-water mark."""

    __slots__ = ("name", "_value", "_high_water", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._high_water = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._value = value
            if value > self._high_water:
                self._high_water = value

    @property
    def value(self) -> float:
        return self._value

    @property
    def high_water(self) -> float:
        return self._high_water

    def snapshot(self) -> dict:
        """Value and high-water mark read under one lock acquisition."""
        with self._lock:
            return {"value": self._value, "high_water": self._high_water}


class StreamingHistogram:
    """Quantile estimation over geometric buckets, without sample storage.

    Positive observations fall into bucket ``floor(log(v) / log(growth))``;
    non-positive observations are tracked separately and report as 0.0.
    Quantile estimates carry at most ``growth - 1`` relative error and are
    clamped to the observed [min, max] range.
    """

    __slots__ = ("name", "_growth", "_log_growth", "_buckets", "_nonpositive",
                 "count", "total", "_min", "_max", "_lock")

    def __init__(self, name: str = "", growth: float = 1.05) -> None:
        if growth <= 1.0:
            raise ValueError("growth factor must exceed 1.0")
        self.name = name
        self._growth = growth
        self._log_growth = math.log(growth)
        self._buckets: "dict[int, int]" = {}
        self._nonpositive = 0
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if value <= 0.0:
                self._nonpositive += 1
            else:
                index = int(math.floor(math.log(value) / self._log_growth))
                self._buckets[index] = self._buckets.get(index, 0) + 1

    def _state(self) -> "tuple[int, float, float, float, int, dict]":
        """One lock-consistent copy of the mutable fields.

        Everything derived (quantiles, summaries, snapshots) computes from
        a copy taken under the lock, so a concurrent ``observe`` can never
        produce a torn read (count/total/buckets from different moments).
        """
        with self._lock:
            return (self.count, self.total, self._min, self._max,
                    self._nonpositive, dict(self._buckets))

    def _quantile_of(self, state, fraction: float) -> float:
        count, _total, minimum, maximum, nonpositive, buckets = state
        if count == 0:
            return 0.0
        minimum = minimum if count else 0.0
        maximum = maximum if count else 0.0
        if fraction <= 0.0:
            return minimum
        if fraction >= 1.0:
            return maximum
        target = fraction * count
        seen = nonpositive
        if seen >= target:
            return min(0.0, maximum)
        for index in sorted(buckets):
            seen += buckets[index]
            if seen >= target:
                # Geometric midpoint of the bucket's bounds.
                estimate = self._growth ** (index + 0.5)
                return max(minimum, min(estimate, maximum))
        return maximum

    def quantile(self, fraction: float) -> float:
        return self._quantile_of(self._state(), fraction)

    def _quantiles_of(self, state, fractions: "tuple[float, ...]") -> "list[float]":
        """All *fractions* (ascending, in (0, 1)) from one bucket walk.

        Equivalent to calling :meth:`_quantile_of` per fraction, but the
        bucket keys are sorted and scanned once — snapshots run on every
        exporter scrape, so the read side should not redo the walk per
        quantile.
        """
        count, _total, minimum, maximum, nonpositive, buckets = state
        if count == 0:
            return [0.0] * len(fractions)
        targets = [fraction * count for fraction in fractions]
        results: "list[float]" = []
        seen = nonpositive
        while len(results) < len(targets) and seen >= targets[len(results)]:
            results.append(min(0.0, maximum))
        if len(results) < len(targets):
            for index in sorted(buckets):
                seen += buckets[index]
                while (len(results) < len(targets)
                       and seen >= targets[len(results)]):
                    estimate = self._growth ** (index + 0.5)
                    results.append(max(minimum, min(estimate, maximum)))
                if len(results) == len(targets):
                    break
        while len(results) < len(targets):
            results.append(maximum)
        return results

    def snapshot(self) -> dict:
        """Summary statistics from one lock-consistent state copy."""
        state = self._state()
        count, total = state[0], state[1]
        p50, p95, p99 = self._quantiles_of(state, (0.50, 0.95, 0.99))
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": state[2] if count else 0.0,
            "max": state[3] if count else 0.0,
            "p50": p50,
            "p95": p95,
            "p99": p99,
        }

    def summary(self) -> dict:
        return self.snapshot()


class MetricsRegistry:
    """Named instruments, created on first use and shared thereafter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: "dict[str, Counter]" = {}
        self._gauges: "dict[str, Gauge]" = {}
        self._histograms: "dict[str, StreamingHistogram]" = {}

    # Lookups fast-path around the lock: dict reads are atomic under the
    # GIL and instruments are never removed, so a hit needs no lock and
    # only creation synchronises.

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is not None:
            return instrument
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is not None:
            return instrument
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(self, name: str, growth: float = 1.05) -> StreamingHistogram:
        instrument = self._histograms.get(name)
        if instrument is not None:
            return instrument
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = StreamingHistogram(
                    name, growth=growth
                )
            return instrument

    # -- read side ---------------------------------------------------------

    def counter_value(self, name: str) -> int:
        instrument = self._counters.get(name)
        return instrument.value if instrument is not None else 0

    def counters(self) -> "dict[str, int]":
        with self._lock:
            instruments = sorted(self._counters.items())
        return {name: c.snapshot() for name, c in instruments}

    def gauges(self) -> "dict[str, dict]":
        with self._lock:
            instruments = sorted(self._gauges.items())
        return {name: g.snapshot() for name, g in instruments}

    def histograms(self) -> "dict[str, dict]":
        with self._lock:
            instruments = sorted(self._histograms.items())
        return {name: h.snapshot() for name, h in instruments}

    def snapshot(self) -> dict:
        """Registry-wide snapshot, safe against concurrent writers.

        The instrument maps are copied under the registry lock (so an
        instrument created mid-snapshot cannot corrupt iteration) and each
        instrument then snapshots itself under its own lock, so every
        individual reading is internally consistent — a histogram's count,
        sum and quantiles always describe the same set of observations.
        Readings across *different* instruments remain only approximately
        simultaneous; that is the documented granularity.
        """
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": self.histograms(),
        }
