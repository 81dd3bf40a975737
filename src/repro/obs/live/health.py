"""Online SLO watchdogs: declarative health rules over the live registry.

The post-hoc `repro obs-report` tells you runs stalled *after* the
process exits; production operation needs the answer while the incident
is still happening.  A :class:`HealthMonitor` periodically snapshots a
:class:`~repro.obs.metrics.MetricsRegistry` and evaluates declarative
:class:`HealthRule` instances against the pair (current snapshot,
previous snapshot) — counter rates and deltas, gauge levels, quantile
budgets, stalled-run detection.  A rule crossing its threshold opens a
*firing episode*: exactly one structured :class:`HealthAlert` is emitted
(via the :meth:`~repro.obs.hooks.Instrumentation.health_alert` hook) when
the episode opens, rather than on every evaluation while the rule stays
red.  The worst severity among firing rules is the node's aggregate
health (``healthy``/``degraded``/``unhealthy``), surfaced through
``node.health()``, the telemetry endpoint and the
:meth:`~repro.obs.hooks.Instrumentation.health_changed` hook.

The monitor runs three ways: :meth:`HealthMonitor.evaluate_once` for
deterministic tests, :meth:`HealthMonitor.schedule_on` as a recurring
virtual-time timer inside the simulation runtime, and
:meth:`HealthMonitor.start` as a daemon watchdog thread against real
deployments.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs.hooks import Instrumentation, NULL_INSTRUMENTATION
from repro.obs.metrics import MetricsRegistry

HEALTHY = "healthy"
DEGRADED = "degraded"
UNHEALTHY = "unhealthy"

_RANK = {HEALTHY: 0, DEGRADED: 1, UNHEALTHY: 2}


@dataclass(frozen=True)
class HealthAlert:
    """One rule opening a firing episode at one node."""

    rule: str
    severity: str
    message: str
    value: float
    threshold: float
    time: float


class RuleView:
    """What a rule may look at: two registry snapshots and the gap between.

    All accessors tolerate missing instruments (a subsystem that never
    ran) by returning zeros, so rules never raise on a fresh registry.
    """

    def __init__(self, current: dict, previous: dict,
                 elapsed: float, now: float) -> None:
        self.current = current
        self.previous = previous
        self.elapsed = elapsed
        self.now = now

    def counter(self, name: str) -> int:
        return self.current.get("counters", {}).get(name, 0)

    def counter_delta(self, name: str) -> int:
        before = self.previous.get("counters", {}).get(name, 0)
        return self.counter(name) - before

    def rate(self, name: str) -> float:
        """Counter increase per second over the evaluation interval."""
        if self.elapsed <= 0.0:
            return 0.0
        return self.counter_delta(name) / self.elapsed

    def gauge(self, name: str) -> float:
        entry = self.current.get("gauges", {}).get(name)
        return entry["value"] if entry else 0.0

    def histogram(self, name: str) -> dict:
        return self.current.get("histograms", {}).get(name, {})

    def quantile(self, name: str, key: str = "p99") -> float:
        return self.histogram(name).get(key, 0.0)

    def histogram_count(self, name: str) -> int:
        return self.histogram(name).get("count", 0)


class HealthRule:
    """One declarative SLO check.

    Subclasses implement :meth:`reading`, returning the observed value to
    compare against :attr:`threshold` (fires when reading > threshold),
    or override :meth:`evaluate` entirely for stateful rules.
    """

    def __init__(self, name: str, threshold: float,
                 severity: str = DEGRADED, message: str = "") -> None:
        if severity not in (DEGRADED, UNHEALTHY):
            raise ValueError("rule severity must be degraded or unhealthy")
        self.name = name
        self.threshold = float(threshold)
        self.severity = severity
        self.message = message or name

    def reading(self, view: RuleView) -> float:
        raise NotImplementedError

    def evaluate(self, view: RuleView) -> "Optional[float]":
        """The firing reading, or None when the rule is green."""
        value = self.reading(view)
        return value if value > self.threshold else None


class CounterRateRule(HealthRule):
    """Fires when a counter grows faster than *threshold* per second.

    e.g. a retransmission storm: ``transport.retransmissions`` climbing
    at tens per second means a peer is dark or the network is melting.
    """

    def __init__(self, name: str, counter: str, threshold: float,
                 severity: str = DEGRADED, message: str = "") -> None:
        super().__init__(name, threshold, severity, message)
        self.counter_name = counter

    def reading(self, view: RuleView) -> float:
        return view.rate(self.counter_name)


class GaugeLevelRule(HealthRule):
    """Fires while a gauge's current value exceeds *threshold*.

    e.g. queue/pipeline saturation: depth pinned above the high-water
    line means admission is outrunning settlement.
    """

    def __init__(self, name: str, gauge: str, threshold: float,
                 severity: str = DEGRADED, message: str = "") -> None:
        super().__init__(name, threshold, severity, message)
        self.gauge_name = gauge

    def reading(self, view: RuleView) -> float:
        return view.gauge(self.gauge_name)


class QuantileBudgetRule(HealthRule):
    """Fires when a histogram quantile exceeds its latency budget.

    Requires at least *min_count* observations so a single slow warm-up
    sample cannot page anyone.
    """

    def __init__(self, name: str, histogram: str, budget: float,
                 quantile: str = "p99", min_count: int = 10,
                 severity: str = DEGRADED, message: str = "") -> None:
        super().__init__(name, budget, severity, message)
        self.histogram_name = histogram
        self.quantile_key = quantile
        self.min_count = min_count

    def reading(self, view: RuleView) -> float:
        if view.histogram_count(self.histogram_name) < self.min_count:
            return 0.0
        return view.quantile(self.histogram_name, self.quantile_key)


class StalledRunsRule(HealthRule):
    """Fires when in-flight coordination runs make no settlement progress.

    A run being open across one evaluation is normal; the same runs
    still open with zero settlements for *strikes* consecutive intervals
    means coordination is stalled (crashed responder, wedged transport).
    The strike counter is internal state, so one monitor owns one rule
    instance.
    """

    def __init__(self, name: str = "stalled_runs", strikes: int = 2,
                 severity: str = UNHEALTHY, message: str = "") -> None:
        super().__init__(name, 0.0, severity,
                         message or "coordination runs stalled")
        if strikes < 1:
            raise ValueError("strikes must be at least 1")
        self.strikes = strikes
        self._strike_count = 0

    def _in_flight(self, view: RuleView) -> int:
        started = view.counter("protocol.runs.started")
        settled = (view.counter("protocol.runs.valid")
                   + view.counter("protocol.runs.invalid"))
        return started - settled

    def evaluate(self, view: RuleView) -> "Optional[float]":
        in_flight = self._in_flight(view)
        settled_delta = (view.counter_delta("protocol.runs.valid")
                         + view.counter_delta("protocol.runs.invalid"))
        if in_flight > 0 and settled_delta == 0:
            self._strike_count += 1
        else:
            self._strike_count = 0
        if self._strike_count >= self.strikes:
            return float(in_flight)
        return None


def default_rules(retransmission_rate: float = 25.0,
                  pipeline_depth: float = 64.0,
                  settle_budget: float = 30.0,
                  stall_strikes: int = 2) -> "list[HealthRule]":
    """The four default watchdogs with overridable thresholds."""
    return [
        StalledRunsRule(strikes=stall_strikes),
        CounterRateRule(
            "retransmission_storm", "transport.retransmissions",
            retransmission_rate,
            message="retransmissions exceed storm threshold"),
        GaugeLevelRule(
            "pipeline_saturation", "pipeline.depth",
            pipeline_depth, message="proposal pipeline saturated"),
        QuantileBudgetRule(
            "settle_latency_budget", "gateway.settle_seconds",
            settle_budget, message="gateway settle p99 over budget"),
    ]


class HealthMonitor:
    """Periodic rule evaluation driving aggregate node health.

    With a *flight* ring and a *dump_path*, every evaluation that opens
    an alert dumps the ring there: trace records, which ``repro audit
    --trace`` merges like any party's trace file.
    """

    def __init__(self, registry: MetricsRegistry,
                 rules: "Optional[list[HealthRule]]" = None,
                 obs: "Optional[Instrumentation]" = None,
                 party: str = "node",
                 interval: float = 1.0,
                 clock: "Optional[Callable[[], float]]" = None,
                 flight=None,
                 dump_path: "Optional[str]" = None,
                 max_alerts: int = 256) -> None:
        self.registry = registry
        self.rules = rules if rules is not None else default_rules()
        self.obs = obs if obs is not None else NULL_INSTRUMENTATION
        self.party = party
        self.interval = interval
        self._clock = clock if clock is not None else time.time
        self.flight = flight
        self.dump_path = dump_path
        self.alerts: "deque[HealthAlert]" = deque(maxlen=max_alerts)
        self.transitions: "list[tuple[float, str, str]]" = []
        self._firing: "set[str]" = set()
        self._health = HEALTHY
        self._lock = threading.Lock()
        self._thread: "Optional[threading.Thread]" = None
        self._stop = threading.Event()
        # Baseline so the first evaluation sees deltas, not totals.
        self._previous = registry.snapshot()
        self._previous_time = self._clock()

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    @property
    def health(self) -> str:
        return self._health

    def firing(self) -> "set[str]":
        with self._lock:
            return set(self._firing)

    def evaluate_once(self) -> "list[HealthAlert]":
        """Run every rule against a fresh snapshot; returns new alerts."""
        with self._lock:
            now = self._clock()
            current = self.registry.snapshot()
            elapsed = max(now - self._previous_time, 1e-9)
            view = RuleView(current, self._previous, elapsed, now)
            new_alerts: "list[HealthAlert]" = []
            firing_now: "set[str]" = set()
            worst = HEALTHY
            for rule in self.rules:
                value = rule.evaluate(view)
                if value is None:
                    continue
                firing_now.add(rule.name)
                if _RANK[rule.severity] > _RANK[worst]:
                    worst = rule.severity
                if rule.name not in self._firing:
                    alert = HealthAlert(rule.name, rule.severity,
                                        rule.message, value,
                                        rule.threshold, now)
                    new_alerts.append(alert)
                    self.alerts.append(alert)
            self._firing = firing_now
            old_health = self._health
            self._health = worst
            self._previous = current
            self._previous_time = now

        # Hooks run outside the monitor lock: a recording obs may itself
        # touch the registry (health.* counters) or the flight ring.
        for alert in new_alerts:
            self.obs.health_alert(self.party, alert.rule, alert.severity,
                                  alert.message, alert.value,
                                  alert.threshold)
        if worst != old_health:
            self.transitions.append((now, old_health, worst))
            self.obs.health_changed(self.party, old_health, worst)
        if new_alerts and self.flight is not None and self.dump_path:
            self.flight.dump(self.dump_path)
        return new_alerts

    def status(self) -> dict:
        with self._lock:
            return {
                "party": self.party,
                "health": self._health,
                "firing": sorted(self._firing),
                "alerts": [alert.to_dict() for alert in self.alerts],
                "transitions": [
                    {"time": t, "from": old, "to": new}
                    for t, old, new in self.transitions
                ],
            }

    # ------------------------------------------------------------------
    # drivers: watchdog thread (real time) or recurring sim timer
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the real-time watchdog thread (idempotent)."""
        if self._thread is not None:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(self.interval):
                self.evaluate_once()

        self._thread = threading.Thread(
            target=loop, name=f"health-{self.party}", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None

    def schedule_on(self, network, interval: "Optional[float]" = None):
        """Recurring evaluation on a sim network's virtual-time queue.

        Returns a handle with ``cancel()``; cancel it before asking the
        runtime to settle to quiescence, or the recurring timer keeps
        the event queue alive forever.
        """
        tick = interval if interval is not None else self.interval
        state = {"cancelled": False, "handle": None}

        def fire() -> None:
            if state["cancelled"]:
                return
            self.evaluate_once()
            if not state["cancelled"]:
                state["handle"] = network.schedule(tick, fire)

        state["handle"] = network.schedule(tick, fire)

        class _Recurring:
            def cancel(self) -> None:
                state["cancelled"] = True
                handle = state["handle"]
                if handle is not None:
                    handle.cancel()

        return _Recurring()
