"""The front-door gateway: admission control for client traffic.

The middleware's coordination machinery (engines, pipeline, node) deals
in *organisations* — a handful of mutually suspicious parties running a
unanimous protocol.  The population pushing updates at one organisation
is a different animal: many clients, bursty, retry-happy, and unaware of
each other.  :class:`Gateway` is the boundary between the two worlds.
It decides *whether* a client write is admitted — four guards — and
hands an admitted write straight to the object's
:class:`~repro.protocol.pipeline.ProposalPipeline`, the one queue it
waits in, under the one ticket the client holds:

* **Rate limiting** — a per-client token bucket
  (:mod:`repro.gateway.ratelimit`); a flooding client is answered with
  :class:`~repro.errors.RateLimitedError` and an exact retry delay,
  without starving well-behaved clients.
* **Load leveling** — ``queue_capacity`` is the bound (``max_depth``)
  of each object's pipeline queue; a full queue *sheds* with
  :class:`~repro.errors.GatewayOverloadedError` rather than buffering
  without bound.
* **Idempotency** — requests carry a per-client idempotency key
  (:mod:`repro.gateway.idempotency`); a retry of a pending request
  joins the original ticket, and a retry of a settled one replays the
  original outcome.  The update is applied exactly once.
* **Circuit breaking** — a per-object
  :class:`~repro.gateway.breaker.CircuitBreaker` watches settlement
  latency and veto rates; when the community is unhealthy the gateway
  fails fast with :class:`~repro.errors.CircuitOpenError` and recovers
  via half-open probe requests.

Threading: the gateway shares the node's re-entrant lock.  The node
resolves settled tickets with that lock held (and not its engine lock), and
the gateway's admission path takes it too — sharing one lock makes the
lock order trivially consistent (no gateway-then-node vs
node-then-gateway deadlock) and keeps admission atomic with respect to
settlement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import (
    CircuitOpenError,
    GatewayOverloadedError,
    PipelineSaturatedError,
    RateLimitedError,
)
from repro.gateway.breaker import CircuitBreaker
from repro.gateway.idempotency import IdempotencyCache
from repro.gateway.ratelimit import RateLimiter
from repro.gateway.session import ClientSession
from repro.protocol.events import Event
from repro.protocol.pipeline import Ticket

#: What a shed client is told to wait: about one settlement round, after
#: which the full queue has given a batch to a run.
SHED_RETRY_AFTER = 0.05


@dataclass
class GatewayTicket(Ticket):
    """One client submission: the ticket the client holds *is* the entry
    the object's pipeline queues (``key`` is the idempotency key)."""

    client_id: str = ""
    update: Any = None
    submitted_at: float = 0.0
    #: Admission→settlement seconds on the protocol clock.
    latency: "Optional[float]" = None
    #: True when this handle was served from the idempotency cache.
    replayed: bool = False
    _probe: bool = field(default=False, repr=False)
    #: The admitting gateway; None on a replayed view.
    _gateway: Any = field(default=None, repr=False)

    def resolve(self, valid: bool, diagnostics: "list[str]",
                event: "Optional[Event]" = None,
                run_id: "Optional[str]" = None) -> None:
        # The gateway's books (latency, breaker, idempotency window) are
        # closed before the ticket reads done and callbacks run.
        if self._gateway is not None:
            self._gateway._settled(self, valid)
        super().resolve(valid, diagnostics, event, run_id)

    def replay_view(self) -> "GatewayTicket":
        """A settled copy marked ``replayed`` (original outcome intact)."""
        view = GatewayTicket(
            object_name=self.object_name, key=self.key,
            client_id=self.client_id, update=self.update,
            submitted_at=self.submitted_at, replayed=True,
            latency=self.latency if self.latency is not None else 0.0,
        )
        view.resolve(bool(self.valid), self.diagnostics, run_id=self.run_id)
        return view


class Gateway:
    """Admission-controlled client entry point for one organisation node."""

    def __init__(self, node: Any,
                 queue_capacity: int = 1024,
                 rate: "Optional[float]" = None,
                 burst: float = 16.0,
                 breaker: "Optional[dict]" = None,
                 idempotency_capacity: int = 4096,
                 pipeline_options: "Optional[dict]" = None) -> None:
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        self.node = node
        #: Writes that may wait per object; it becomes the ``max_depth``
        #: of every pipeline this gateway fronts (over any ``max_depth``
        #: in *pipeline_options*).
        self.queue_capacity = queue_capacity
        self.breaker_options = dict(breaker or {})
        self.pipeline_options = dict(pipeline_options or {})
        clock = node.ctx.clock
        self.limiter: "Optional[RateLimiter]" = (
            RateLimiter(rate, burst, clock) if rate is not None else None)
        self.idempotency = IdempotencyCache(idempotency_capacity)
        self._breakers: "dict[str, CircuitBreaker]" = {}
        # Share the node's re-entrant lock (see module docstring).
        self._lock = node._lock
        self._session_serial = 0
        # Local tallies mirroring the obs counters, so callers without
        # instrumentation (the load sim, quick scripts) still get totals.
        self.stats_admitted = 0
        self.stats_reads = 0
        self.stats_replayed = 0
        self.stats_settled_valid = 0
        self.stats_settled_invalid = 0
        self.stats_rejected: "dict[str, int]" = {
            "rate_limited": 0, "overloaded": 0, "circuit_open": 0,
        }

    # ------------------------------------------------------------------
    # client-facing API
    # ------------------------------------------------------------------

    def session(self, client_id: "Optional[str]" = None) -> ClientSession:
        """Open a client session (auto-named when *client_id* is None)."""
        with self._lock:
            self._session_serial += 1
            serial = self._session_serial
        if client_id is None:
            client_id = f"client-{serial}"
        return ClientSession(self, client_id, serial)

    def submit(self, client_id: str, object_name: str, update: Any,
               key: str) -> GatewayTicket:
        """Admit one client update for *object_name*.

        Raises :class:`~repro.errors.RateLimitedError`,
        :class:`~repro.errors.GatewayOverloadedError` or
        :class:`~repro.errors.CircuitOpenError` when a guard rejects;
        each carries ``retry_after`` seconds.  Returns the original
        ticket when *key* repeats a pending request, and a settled
        ``replayed`` view when it repeats a completed one.
        """
        obs = self.node.ctx.obs
        party = self.node.party_id
        with self._lock:
            existing = self.idempotency.lookup(client_id, key)
            if existing is not None:
                self.stats_replayed += 1
                if obs.enabled:
                    obs.gateway_replayed(party, object_name, client_id)
                return existing.replay_view() if existing.done else existing
            breaker = self._breaker(object_name)
            admitted, probe = breaker.allow()
            if not admitted:
                self._reject(obs, party, object_name, client_id,
                             "circuit_open", breaker.retry_after())
                raise CircuitOpenError(
                    f"circuit for {object_name!r} is "
                    f"{breaker.state}; failing fast",
                    retry_after=breaker.retry_after(),
                )
            if self.limiter is not None:
                ok, retry_after = self.limiter.admit(client_id)
                if not ok:
                    if probe:
                        breaker.release_probe()
                    self._reject(obs, party, object_name, client_id,
                                 "rate_limited", retry_after)
                    raise RateLimitedError(
                        f"client {client_id!r} exceeded its rate limit",
                        retry_after=retry_after,
                    )
            ticket = GatewayTicket(
                object_name=object_name, key=key, client_id=client_id,
                update=update, submitted_at=self.node.ctx.clock.now(),
                _probe=probe, _gateway=self,
            )
            try:
                self.node.submit_update(object_name, update, ticket)
            except PipelineSaturatedError as exc:
                if probe:
                    breaker.release_probe()
                self._reject(obs, party, object_name, client_id,
                             "overloaded", SHED_RETRY_AFTER)
                raise GatewayOverloadedError(
                    f"write queue for {object_name!r} is full "
                    f"({self.queue_capacity} waiting)",
                    retry_after=SHED_RETRY_AFTER,
                ) from exc
            except Exception:
                # Not admitted: nothing is recorded, so the key stays
                # free and the caller's retry meets the same error.
                if probe:
                    breaker.release_probe()
                raise
            self.stats_admitted += 1
            if obs.enabled:
                obs.gateway_admitted(party, object_name, client_id)
                obs.gateway_queue_depth(party, object_name,
                                        self.queue_depth(object_name))
            if not ticket.done:
                self.idempotency.note_pending(client_id, key, ticket)
            return ticket

    def read(self, client_id: str, object_name: str,
             read_mode: Any = None) -> Any:
        """Serve one client read from the validated snapshot cache.

        Reads go through the per-client rate limiter but never occupy a
        queue slot, pipeline slot, or breaker budget — a read storm
        cannot displace write admission, and with ``cached``/``bounded``
        modes it never even enters the coordination critical section.
        Returns a :class:`~repro.core.readcache.ReadResult`; raises
        :class:`~repro.errors.RateLimitedError` when the client's token
        bucket is empty.
        """
        if self.limiter is not None:
            with self._lock:
                ok, retry_after = self.limiter.admit(client_id)
                if not ok:
                    self._reject(self.node.ctx.obs, self.node.party_id,
                                 object_name, client_id, "rate_limited",
                                 retry_after)
                    raise RateLimitedError(
                        f"client {client_id!r} exceeded its rate limit",
                        retry_after=retry_after,
                    )
        result = self.node.readcache.read(object_name, read_mode)
        self.stats_reads += 1
        return result

    def wait(self, ticket: GatewayTicket,
             timeout: "float | None" = None) -> bool:
        """Block until *ticket* settles (or *timeout* passes)."""
        timeout = (timeout if timeout is not None
                   else self.node.default_timeout)
        return self.node.runtime.wait_until(lambda: ticket.done, timeout)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def breaker(self, object_name: str) -> CircuitBreaker:
        with self._lock:
            return self._breaker(object_name)

    def queue_depth(self, object_name: str) -> int:
        """Writes waiting in the object's pipeline queue."""
        pipe = self.node.pipeline_for(object_name)
        return pipe.depth if pipe is not None else 0

    def stats(self) -> dict:
        """Cumulative admission tallies (also available via repro.obs)."""
        with self._lock:
            return {
                "admitted": self.stats_admitted,
                "reads": self.stats_reads,
                "replayed": self.stats_replayed,
                "settled_valid": self.stats_settled_valid,
                "settled_invalid": self.stats_settled_invalid,
                "rejected": dict(self.stats_rejected),
                "breakers": {name: breaker.state
                             for name, breaker in self._breakers.items()},
            }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _breaker(self, object_name: str) -> CircuitBreaker:
        breaker = self._breakers.get(object_name)
        if breaker is None:
            # The gateway's first sight of the object: bound its queue
            # (NotConnectedError here if this node does not share it).
            pipe = self.node.pipeline(object_name, **self.pipeline_options)
            pipe.max_depth = self.queue_capacity
            obs = self.node.ctx.obs
            party = self.node.party_id

            def announce(old_state: str, new_state: str) -> None:
                if obs.enabled:
                    obs.breaker_transition(party, object_name,
                                           old_state, new_state)

            breaker = self._breakers[object_name] = CircuitBreaker(
                self.node.ctx.clock, on_transition=announce,
                **self.breaker_options)
        return breaker

    def _reject(self, obs: Any, party: str, object_name: str,
                client_id: str, reason: str, retry_after: float) -> None:
        self.stats_rejected[reason] += 1
        if obs.enabled:
            obs.gateway_rejected(party, object_name, client_id, reason,
                                 retry_after)

    def _settled(self, ticket: GatewayTicket, valid: bool) -> None:
        """Close the books on *ticket* as it resolves (node lock held)."""
        ticket.latency = latency = (self.node.ctx.clock.now()
                                    - ticket.submitted_at)
        self._breakers[ticket.object_name].record(valid, latency,
                                                  probe=ticket._probe)
        self.idempotency.complete(ticket.client_id, ticket.key, ticket)
        if valid:
            self.stats_settled_valid += 1
        else:
            self.stats_settled_invalid += 1
        obs = self.node.ctx.obs
        if obs.enabled:
            obs.gateway_settled(self.node.party_id, ticket.object_name,
                                valid, latency)
