"""``repro.obs.live`` — the live telemetry plane.

Turns the post-hoc observability of :mod:`repro.obs` into an operational
loop: a Prometheus/JSON export endpoint per node
(:mod:`~repro.obs.live.exporter`), online SLO watchdogs driving an
aggregate node health state (:mod:`~repro.obs.live.health`), and a
bounded flight recorder capturing recent protocol/transport/gateway
events for crash-time dumps (:mod:`~repro.obs.live.flight`).

:class:`LiveTelemetry` bundles the three against one
:class:`~repro.core.node.OrganisationNode`; nodes expose it lazily via
``node.live()`` the same way the gateway hangs off ``node.gateway()``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.runtime import SimRuntime
from repro.obs.live.exporter import TelemetryServer, render_prometheus
from repro.obs.live.flight import DEFAULT_CAPACITY, FlightRecorder
from repro.obs.live.health import (
    DEGRADED,
    HEALTHY,
    UNHEALTHY,
    CounterDeltaRule,
    CounterRateRule,
    GaugeLevelRule,
    HealthAlert,
    HealthMonitor,
    HealthRule,
    QuantileBudgetRule,
    RuleView,
    StalledRunsRule,
    default_rules,
)

__all__ = [
    "CounterDeltaRule",
    "CounterRateRule",
    "DEFAULT_CAPACITY",
    "DEGRADED",
    "FlightRecorder",
    "GaugeLevelRule",
    "HEALTHY",
    "HealthAlert",
    "HealthMonitor",
    "HealthRule",
    "LiveTelemetry",
    "QuantileBudgetRule",
    "RuleView",
    "StalledRunsRule",
    "TelemetryServer",
    "UNHEALTHY",
    "default_rules",
    "render_prometheus",
]


class LiveTelemetry:
    """One node's live telemetry plane: recorder + watchdog + endpoint.

    Requires the node to carry a recording instrumentation (anything
    with a ``registry``); attaches a :class:`FlightRecorder` to it,
    builds a :class:`HealthMonitor` over the registry, and can serve
    both over HTTP via :meth:`serve`.  :meth:`start` picks the right
    watchdog driver for the node's runtime — a recurring virtual-time
    timer under :class:`~repro.core.runtime.SimRuntime`, a daemon thread
    otherwise.
    """

    def __init__(self, node, rules=None, interval: float = 1.0,
                 flight_capacity: int = DEFAULT_CAPACITY,
                 dump_path: "Optional[str]" = None) -> None:
        obs = node.ctx.obs
        registry = getattr(obs, "registry", None)
        if registry is None:
            raise ValueError(
                "live telemetry needs a recording instrumentation on the "
                "node (an obs with a .registry); build the community with "
                "RecordingInstrumentation first"
            )
        self.node = node
        self.obs = obs
        self.registry = registry
        # Reuse a recorder already attached to the instrumentation (its
        # ring may hold history worth keeping) rather than replacing it;
        # either way the node's clock drives the timestamps.
        existing = getattr(obs, "flight", None)
        if existing is not None:
            existing.bind_clock(node.ctx.clock)
            self.flight = existing
        else:
            self.flight = FlightRecorder(flight_capacity,
                                         clock=node.ctx.clock)
            obs.flight = self.flight
        self.monitor = HealthMonitor(
            registry, rules=rules, obs=obs, party=node.party_id,
            interval=interval, clock=node.ctx.clock.now,
            flight=self.flight, dump_path=dump_path,
        )
        self.server: "Optional[TelemetryServer]" = None
        self._timer = None
        self._started = False

    @property
    def health(self) -> str:
        return self.monitor.health

    def start(self) -> "LiveTelemetry":
        """Start the watchdog (sim timer or daemon thread); idempotent."""
        if self._started:
            return self
        self._started = True
        if isinstance(self.node.runtime, SimRuntime):
            self._timer = self.monitor.schedule_on(
                self.node.runtime.network, self.monitor.interval)
        else:
            self.monitor.start()
        return self

    def serve(self, host: str = "127.0.0.1", port: int = 0) -> TelemetryServer:
        """Start (or return) the node's HTTP telemetry endpoint."""
        if self.server is None:
            self.server = TelemetryServer(
                self.registry, monitor=self.monitor, flight=self.flight,
                host=host, port=port,
            ).start()
        return self.server

    def stop(self) -> None:
        """Stop watchdog and endpoint; the flight ring stays readable.

        Under a sim runtime this cancels the recurring timer — required
        before ``community.settle(None)``, which runs the virtual event
        queue to quiescence.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.monitor.stop()
        if self.server is not None:
            self.server.stop()
            self.server = None
        self._started = False

    def dump_flight(self, target) -> int:
        """Dump the flight ring to *target* (path or file object)."""
        return self.flight.dump(target)
