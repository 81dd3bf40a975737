"""Deterministic discrete-event simulated network.

This is the testbed substrate for the reproduction: a virtual-time network
with seeded randomness and first-class fault injection —

* per-link latency with jitter,
* message drop and duplication probabilities,
* network partitions that heal (section 4.2: "network partitions are
  assumed to heal eventually"),
* node crash / recovery (messages to a crashed node are lost; the node's
  timers are suspended).

Identical seeds and schedules produce identical executions, which the
protocol test-suite and the benchmark harness rely on.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.crypto.prng import DeterministicRandomSource
from repro.errors import ConfigurationError
from repro.transport.base import (
    Envelope,
    MessageHandler,
    Network,
    NetworkFilter,
    TimerHandle,
    normalise_filter_result,
)
from repro.util.clocks import VirtualClock


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


@dataclass
class LinkProfile:
    """Fault/latency profile for a directed link (or the whole network)."""

    latency: float = 0.01
    jitter: float = 0.0
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0

    def validate(self) -> None:
        if self.latency < 0 or self.jitter < 0:
            raise ConfigurationError("latency and jitter must be non-negative")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ConfigurationError("drop probability must be in [0, 1)")
        if not 0.0 <= self.duplicate_probability <= 1.0:
            raise ConfigurationError("duplicate probability must be in [0, 1]")


class NetworkStats:
    """Counters for benchmark harnesses and assertions."""

    def __init__(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.duplicated = 0
        self.partition_blocked = 0
        self.crash_blocked = 0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


class SimNetwork(Network):
    """Seeded, virtual-time network simulator."""

    def __init__(self, seed: "int | str" = 0,
                 default_profile: "LinkProfile | None" = None) -> None:
        self._clock = VirtualClock()
        self._rng = DeterministicRandomSource(f"simnet:{seed}")
        self._queue: "list[_Event]" = []
        self._event_seq = itertools.count()
        self._handlers: "dict[str, MessageHandler]" = {}
        self._profiles: "dict[tuple[str, str], LinkProfile]" = {}
        self._default_profile = default_profile or LinkProfile()
        self._default_profile.validate()
        self._partitions: "list[set[str]]" = []
        self._crashed: "set[str]" = set()
        self._filters: "list[NetworkFilter]" = []
        self.stats = NetworkStats()

    # ------------------------------------------------------------------
    # Network interface
    # ------------------------------------------------------------------

    def register(self, party_id: str, handler: MessageHandler) -> None:
        self._handlers[party_id] = handler

    def now(self) -> float:
        return self._clock.now()

    def schedule(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        event = _Event(time=self._clock.now() + delay, seq=next(self._event_seq),
                       action=callback)
        heapq.heappush(self._queue, event)

        def cancel() -> None:
            event.cancelled = True

        return TimerHandle(cancel)

    def send(self, envelope: Envelope) -> None:
        self.stats.sent += 1
        envelopes = [envelope]
        for net_filter in self._filters:
            passed: "list[Envelope]" = []
            for env in envelopes:
                passed.extend(normalise_filter_result(net_filter.on_send(env)))
            envelopes = passed
        for env in envelopes:
            self._transmit(env)

    # ------------------------------------------------------------------
    # Fault injection / topology control
    # ------------------------------------------------------------------

    def set_link_profile(self, sender: str, recipient: str,
                         profile: LinkProfile) -> None:
        profile.validate()
        self._profiles[(sender, recipient)] = profile

    def add_filter(self, net_filter: NetworkFilter) -> None:
        self._filters.append(net_filter)

    def remove_filter(self, net_filter: NetworkFilter) -> None:
        self._filters.remove(net_filter)

    def partition(self, *groups: "set[str] | list[str]") -> None:
        """Split the network: traffic may only flow within a group."""
        self._partitions = [set(group) for group in groups]

    def heal_partition(self) -> None:
        self._partitions = []

    def crash(self, party_id: str) -> None:
        """Crash a node: inbound messages are lost until recovery."""
        self._crashed.add(party_id)

    def recover(self, party_id: str) -> None:
        self._crashed.discard(party_id)

    def is_crashed(self, party_id: str) -> bool:
        return party_id in self._crashed

    def _partitioned(self, sender: str, recipient: str) -> bool:
        if not self._partitions:
            return False
        for group in self._partitions:
            if sender in group and recipient in group:
                return False
        return True

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------

    def _transmit(self, envelope: Envelope) -> None:
        profile = self._profiles.get(
            (envelope.sender, envelope.recipient), self._default_profile
        )
        if self._chance(profile.drop_probability):
            self.stats.dropped += 1
            return
        copies = 1
        if self._chance(profile.duplicate_probability):
            copies = 2
            self.stats.duplicated += 1
        for _ in range(copies):
            delay = profile.latency
            if profile.jitter:
                delay += (self._rng.random_below(10_000) / 10_000.0) * profile.jitter
            self.schedule(delay, lambda env=envelope: self._deliver(env))

    def _chance(self, probability: float) -> bool:
        if probability <= 0.0:
            return False
        return self._rng.random_below(1_000_000) < int(probability * 1_000_000)

    def _deliver(self, envelope: Envelope) -> None:
        # Partition and crash state are evaluated at delivery time, so a
        # partition that heals while a message is "in flight" lets it
        # through — matching the paper's eventually-healing channel model.
        if self._partitioned(envelope.sender, envelope.recipient):
            self.stats.partition_blocked += 1
            return
        if envelope.recipient in self._crashed:
            self.stats.crash_blocked += 1
            return
        handler = self._handlers.get(envelope.recipient)
        if handler is None:
            return
        self.stats.delivered += 1
        handler(envelope)

    def step(self) -> bool:
        """Execute the next scheduled event; False when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._clock.advance_to(event.time)
            event.action()
            return True
        return False

    def run(self, max_time: "float | None" = None,
            until: "Optional[Callable[[], bool]]" = None,
            max_events: int = 1_000_000) -> float:
        """Drive the event loop.

        Stops when the queue drains, *until* returns True, virtual time
        would exceed *max_time*, or *max_events* fire (runaway guard).
        Returns the virtual time at stop.
        """
        for _ in range(max_events):
            if until is not None and until():
                return self._clock.now()
            # A cancelled timer at the head says nothing about when the
            # next event is due: drop it before reading the horizon.
            while self._queue and self._queue[0].cancelled:
                heapq.heappop(self._queue)
            if not self._queue or (max_time is not None
                                   and self._queue[0].time > max_time):
                # Idle: virtual time still passes up to the horizon, so
                # timeout/deadline logic observes elapsed time.
                if max_time is not None:
                    self._clock.advance_to(max_time)
                return self._clock.now()
            self.step()
        raise RuntimeError(f"simulation exceeded {max_events} events")

    def pending_events(self) -> int:
        return sum(1 for event in self._queue if not event.cancelled)
