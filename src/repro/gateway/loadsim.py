"""Closed-loop client load simulation against a gateway.

Drives a large simulated client population (10^5+ is routine) through a
:class:`~repro.gateway.gateway.Gateway` over the deterministic virtual-
time simulator.  Clients are event-driven state machines, not threads:
each schedules its next action on the :class:`SimNetwork`, submits
through its own :class:`~repro.gateway.session.ClientSession`, and backs
off by the gateway's advertised ``retry_after`` when rejected — the
closed loop every real client library implements.

The shared object is a :class:`CounterObject` whose merge is *additive*
(``applied`` counts every applied update), so a duplicate application —
the bug idempotency keys exist to prevent — is visible in the final
agreed state rather than silently overwritten as it would be under the
default dict merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.community import Community
from repro.core.object import B2BObject
from repro.crypto.prng import DeterministicRandomSource
from repro.errors import GatewayError
from repro.obs.metrics import exact_quantile

DEFAULT_OBJECT = "shared-counter"


class CounterObject(B2BObject):
    """Shared counter with an additive merge (duplicates are visible)."""

    def __init__(self) -> None:
        super().__init__()
        self._state = {"applied": 0, "total": 0}

    def get_state(self) -> dict:
        return dict(self._state)

    def apply_state(self, state: Any) -> None:
        self._state = dict(state)

    def merge_update(self, state: Any, update: Any) -> Any:
        amount = int(update.get("n", 1)) if isinstance(update, dict) else 1
        return {
            "applied": state["applied"] + 1,
            "total": state["total"] + amount,
        }


def build_gateway_community(orgs: int = 2, seed: "int | str" = 0,
                            obs: Any = None,
                            object_name: str = DEFAULT_OBJECT,
                            **gateway_options: Any
                            ) -> "tuple[Community, Any, str]":
    """A simulated community with a gateway on its first organisation.

    Returns ``(community, gateway, object_name)``; the shared object is
    a :class:`CounterObject` replica at every organisation.
    """
    names = [f"Org{index + 1}" for index in range(orgs)]
    community = Community(names, seed=seed, obs=obs)
    community.found_object(object_name,
                           {name: CounterObject() for name in names})
    gateway = community.node(names[0]).gateway(**gateway_options)
    return community, gateway, object_name


@dataclass
class LoadSimConfig:
    """Shape of one closed-loop load run."""

    clients: int = 1000
    requests_per_client: int = 1
    #: Client start times are spread uniformly over this many seconds.
    arrival_window: float = 1.0
    #: Idle time between a settlement and the client's next request.
    think_time: float = 0.0
    #: The first *hot_clients* clients submit ``hot_factor`` times the
    #: normal request count — the noisy neighbours the rate limiter caps.
    hot_clients: int = 0
    hot_factor: int = 10
    #: A client abandons a request after this many rejected attempts.
    max_retries: int = 50
    #: Virtual-time budget for the whole run.
    timeout: float = 3600.0
    seed: "int | str" = 0


@dataclass
class LoadSimStats:
    """Outcome of one load run (virtual-time figures)."""

    clients: int = 0
    requests: int = 0
    settled_valid: int = 0
    settled_invalid: int = 0
    replayed: int = 0
    retries: "dict[str, int]" = field(default_factory=dict)
    gave_up: int = 0
    elapsed: float = 0.0
    latencies: "list[float]" = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Settled updates per virtual second."""
        return self.settled_valid / self.elapsed if self.elapsed > 0 else 0.0

    def latency_percentiles(self) -> "dict[str, float]":
        return {f"p{q}": exact_quantile(self.latencies, q / 100)
                for q in (50, 95, 99)}

    def summary(self) -> dict:
        return {
            "clients": self.clients,
            "requests": self.requests,
            "settled_valid": self.settled_valid,
            "settled_invalid": self.settled_invalid,
            "replayed": self.replayed,
            "retries": dict(self.retries),
            "gave_up": self.gave_up,
            "elapsed_virtual_s": self.elapsed,
            "updates_per_virtual_s": self.throughput,
            "latency_s": self.latency_percentiles(),
        }


class _SimClient:
    """One closed-loop client: submit, wait for settlement, repeat."""

    __slots__ = ("sim", "session", "target", "sent", "attempts", "jitter")

    def __init__(self, sim: "LoadSim", session: Any, target: int,
                 jitter: DeterministicRandomSource) -> None:
        self.sim = sim
        self.session = session
        self.target = target
        self.sent = 0
        self.attempts = 0
        self.jitter = jitter

    def step(self) -> None:
        if self.sent >= self.target:
            self.sim.client_finished()
            return
        self.attempts = 0
        self.submit(self.session.next_key())

    def submit(self, key: str) -> None:
        update = {"client": self.session.client_id, "n": 1}
        try:
            ticket = self.session.submit(self.sim.object_name, update,
                                         key=key)
        except GatewayError as exc:
            reason = type(exc).__name__
            self.sim.stats.retries[reason] = (
                self.sim.stats.retries.get(reason, 0) + 1)
            self.attempts += 1
            if self.attempts > self.sim.config.max_retries:
                self.sim.stats.gave_up += 1
                self.sent += 1
                self.step()
                return
            delay = exc.retry_after + 0.001 * (1 + self.jitter.random_below(64))
            self.sim.schedule(delay, lambda: self.submit(key))
            return
        self.sim.stats.requests += 1
        if ticket.replayed:
            self.sim.stats.replayed += 1
        ticket.on_done(self.settled)

    def settled(self, ticket: Any) -> None:
        if ticket.valid:
            self.sim.stats.settled_valid += 1
        else:
            self.sim.stats.settled_invalid += 1
        if ticket.latency is not None:
            self.sim.stats.latencies.append(ticket.latency)
        self.sent += 1
        think = self.sim.config.think_time
        if think > 0.0:
            self.sim.schedule(think, self.step)
        else:
            self.step()


class LoadSim:
    """Run a :class:`LoadSimConfig` population against one gateway."""

    def __init__(self, community: Community, gateway: Any,
                 object_name: str = DEFAULT_OBJECT,
                 config: "Optional[LoadSimConfig]" = None) -> None:
        self.community = community
        self.gateway = gateway
        self.object_name = object_name
        self.config = config or LoadSimConfig()
        self.stats = LoadSimStats(clients=self.config.clients)
        self._finished = 0
        self._rng = DeterministicRandomSource(
            f"loadsim:{self.config.seed}")

    def schedule(self, delay: float, callback: Any) -> None:
        self.community.runtime.network.schedule(max(delay, 1e-9), callback)

    def client_finished(self) -> None:
        self._finished += 1

    def run(self) -> LoadSimStats:
        config = self.config
        started = self.community.clock.now()
        window_ticks = max(1, int(config.arrival_window * 1_000_000))
        for index in range(config.clients):
            session = self.gateway.session(f"c{index}")
            target = config.requests_per_client
            if index < config.hot_clients:
                target *= config.hot_factor
            client = _SimClient(self, session, target,
                                self._rng.fork(f"client:{index}"))
            offset = (self._rng.random_below(window_ticks) / 1_000_000.0)
            self.schedule(offset, client.step)
        finished = self.community.runtime.wait_until(
            lambda: self._finished >= config.clients, config.timeout)
        if not finished:
            raise TimeoutError(
                f"load sim did not settle within {config.timeout} virtual "
                f"seconds ({self._finished}/{config.clients} clients done)")
        self.stats.elapsed = self.community.clock.now() - started
        return self.stats


def run_load_sim(community: Community, gateway: Any,
                 object_name: str = DEFAULT_OBJECT,
                 config: "Optional[LoadSimConfig]" = None) -> LoadSimStats:
    """Convenience wrapper: build a :class:`LoadSim` and run it."""
    return LoadSim(community, gateway, object_name, config).run()


# ---------------------------------------------------------------------------
# crash injection with live telemetry
# ---------------------------------------------------------------------------


@dataclass
class CrashInjection:
    """One party crash/recovery injected into a load run (virtual time)."""

    org: str
    crash_at: float = 1.0
    recover_at: float = 4.0

    def validate(self) -> None:
        if self.recover_at <= self.crash_at:
            raise ValueError("recover_at must follow crash_at")


#: Breaker options that make a crash visible to the breaker: stalled
#: runs settle late after recovery, and with a latency threshold those
#: late settlements trip the circuit (the breaker only records at
#: settlement, so a pure stall alone never trips it).
CRASH_BREAKER_OPTIONS = {
    "latency_threshold": 1.0,
    "failure_threshold": 3,
    "reset_timeout": 1.0,
    "probes": 1,
}


def run_crash_scenario(community: Community, gateway: Any,
                       object_name: str = DEFAULT_OBJECT,
                       config: "Optional[LoadSimConfig]" = None,
                       crash: "Optional[CrashInjection]" = None,
                       watchdog_interval: float = 0.5,
                       dump_path: "Optional[str]" = None,
                       settle_after: float = 2.0
                       ) -> "tuple[LoadSimStats, Any]":
    """A load run with an injected party crash, watched live.

    Arms the gateway node's live telemetry plane (breaker watchdog +
    flight recorder, dumping to *dump_path* when an alert fires),
    schedules ``crash.org`` to crash and recover on virtual time, runs
    the closed-loop load, then lets *settle_after* more virtual seconds
    elapse so the watchdog observes the return to health.  Returns
    ``(stats, live)`` — ``live.monitor`` holds the alerts and health
    transitions, ``live.flight`` the recorded events.

    The node must carry a recording instrumentation, and the gateway
    should be built with :data:`CRASH_BREAKER_OPTIONS` (or an equivalent
    ``latency_threshold``) for the crash to trip the breaker.
    """
    from repro.obs.live import DEGRADED, CounterDeltaRule

    if crash is None:
        raise ValueError("run_crash_scenario needs a CrashInjection")
    crash.validate()
    node = gateway.node
    # Watch the breaker alone: the scenario's health story is the trip
    # and the recovery, not the (expected) stall noise while the victim
    # is down.
    rules = [CounterDeltaRule(
        "breaker_flap", "gateway.breaker.transitions", 0.0,
        severity=DEGRADED, message="circuit breaker changed state")]
    live = node.live(rules=rules, interval=watchdog_interval,
                     dump_path=dump_path)
    live.start()
    network = community.runtime.network
    victim = community.node(crash.org)
    network.schedule(crash.crash_at, victim.crash)
    network.schedule(crash.recover_at, victim.recover)
    try:
        stats = run_load_sim(community, gateway, object_name, config)
        # Let the watchdog see quiet intervals after the last breaker
        # movement so aggregate health returns to healthy.
        community.runtime.settle(settle_after)
    finally:
        live.stop()
    return stats, live
