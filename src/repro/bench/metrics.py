"""Measurement helpers for the benchmark harness.

The statistics themselves live in :mod:`repro.obs.metrics` — the single
implementation shared by the observability registry and the benchmarks —
so quantiles reported by ``repro simulate`` and ``repro obs-report`` can
never disagree.  This module keeps the benchmark-friendly recorder API
as a thin adapter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import summarise

__all__ = ["LatencyRecorder", "MessageCounter"]


@dataclass
class LatencyRecorder:
    """Collects per-operation latencies and reports summary statistics."""

    samples: "list[float]" = field(default_factory=list)

    def record(self, value: float) -> None:
        self.samples.append(float(value))

    def summary(self) -> dict:
        return summarise(self.samples)


@dataclass
class MessageCounter:
    """Delta-counter over a simulated network's statistics."""

    baseline: dict = field(default_factory=dict)

    def start(self, network) -> None:
        self.baseline = network.stats.snapshot()

    def delta(self, network) -> dict:
        current = network.stats.snapshot()
        return {key: current[key] - self.baseline.get(key, 0)
                for key in current}
