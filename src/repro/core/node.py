"""The organisation node: the B2BCoordinator of Figure 4.

One :class:`OrganisationNode` hosts everything Figure 3 places inside an
organisation's middleware boundary: the reliable communication endpoint,
the protocol engines (via :class:`~repro.protocol.party.ProtocolParty`),
certificate management, the non-repudiation log, check-pointing, and the
local propagation interface (``propagate_new_state`` / ``propagate_update``
/ ``propagate_connect`` / ``propagate_disconnect``) that insulates
controllers from protocol-specific detail.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional

from repro.core.controller import (
    B2BObjectController,
    ObjectMergerAdapter,
    ObjectValidatorAdapter,
)
from repro.core.modes import SYNCHRONOUS
from repro.core.object import B2BObject
from repro.core.readcache import ReadCache, ReadMode, ReadResult
from repro.core.runtime import Runtime, SimRuntime, ThreadedRuntime
from repro.errors import NotConnectedError, ProtocolBlocked
from repro.protocol.context import PartyContext
from repro.protocol.events import (
    ConnectionDecided,
    DisconnectionDecided,
    Event,
    MembershipChanged,
    MisbehaviourEvent,
    Output,
    RunCompleted,
    StateInstalled,
    StateRolledBack,
)
from repro.protocol.group import ROTATING
from repro.protocol.membership import CertificateResolver
from repro.protocol.party import ProtocolParty
from repro.protocol.pipeline import Overwrite, ProposalPipeline, Ticket
from repro.transport.base import TimerHandle
from repro.transport.reliable import ReliableEndpoint

EventListener = Callable[[Event], None]


class OrganisationNode:
    """One organisation's complete middleware instance."""

    def __init__(self, ctx: PartyContext, runtime: Runtime,
                 certificate_resolver: "CertificateResolver | None" = None,
                 certificate: "dict | None" = None,
                 retransmit_interval: float = 0.05,
                 default_timeout: "float | None" = None) -> None:
        self.ctx = ctx
        # This node is where a record's consequences leave the party
        # (_process_output), so it owes the commit barrier there and may
        # let appends queue until then.
        ctx.adopt_store()
        self.runtime = runtime
        self.certificate = certificate
        self.party = ProtocolParty(ctx, certificate_resolver=certificate_resolver)
        self.endpoint = ReliableEndpoint(
            ctx.party_id, runtime.network,
            retransmit_interval=retransmit_interval, obs=ctx.obs,
        )
        self.endpoint.on_message(self._on_message)
        self.controllers: "dict[str, B2BObjectController]" = {}
        self.listeners: "list[EventListener]" = []
        self.misbehaviour_reports: "list[MisbehaviourEvent]" = []
        if default_timeout is None:
            default_timeout = (SimRuntime.DEFAULT_TIMEOUT
                               if isinstance(runtime, SimRuntime)
                               else ThreadedRuntime.DEFAULT_TIMEOUT)
        self.default_timeout = default_timeout
        self.readcache = ReadCache(self)
        #: Object name → its write pipeline (the object's one write
        #: queue), created on first use by :meth:`pipeline`.
        self.pipelines: "dict[str, ProposalPipeline]" = {}
        #: Unresolved tickets of the membership requests this node
        #: tracks by key; an entry leaves when it resolves.
        self._tickets: "dict[str, Ticket]" = {}
        self._pipeline_timers: "dict[str, TimerHandle]" = {}
        #: Objects whose pipeline was woken and has not been polled
        #: since, oldest first (a dict for its order and its lookup).
        self._ready: "dict[str, None]" = {}
        #: Runs this node's pipelines have in flight.
        self._own_runs = 0
        #: An idle callback is out and has not come back.
        self._idle_requested = False
        self._gateway: "Optional[Any]" = None
        self._live: "Optional[Any]" = None
        # Control-plane lock (object registration, joins, lazy gateway/
        # live construction).  The engine lock guards every engine and
        # pipeline of the node; the registry lock below is the leaf for
        # tickets/timers/reports.
        # Lock order: node lock -> engine lock -> registry lock.
        self._lock = threading.RLock()
        self.engine_lock = threading.RLock()
        self._registry_lock = threading.Lock()
        self._join_objects: "dict[str, B2BObject]" = {}
        self._join_modes: "dict[str, str]" = {}
        self._crashed = False
        # Fault-injection hook: maps one outbound (recipient, message) to a
        # replacement list (empty = suppress).  Used by repro.faults to
        # model misbehaving parties that alter or omit their own traffic.
        self.outbound_interceptor: "Optional[Callable[[str, dict], list[tuple[str, dict]]]]" = None

    @property
    def party_id(self) -> str:
        return self.ctx.party_id

    @property
    def shards(self) -> "OrganisationNode":
        """Read-only alias kept for ``benchmarks/e2e/workloads.py``, which
        calls ``node.shards.pipeline_for(obj)``; the benchmark follow-up
        that stops passing ``Community(num_shards=...)`` deletes it."""
        return self

    def add_listener(self, listener: EventListener) -> None:
        """Observe every protocol event this node surfaces."""
        self.listeners.append(listener)

    # ------------------------------------------------------------------
    # object lifecycle
    # ------------------------------------------------------------------

    def register_object(self, object_name: str, b2b_object: B2BObject,
                        members: "list[str]",
                        mode: str = SYNCHRONOUS,
                        sponsor_mode: str = ROTATING,
                        reject_null_transitions: bool = True,
                        timeout: "float | None" = None,
                        engine_cls: "Optional[type]" = None) -> B2BObjectController:
        """Found a shared object (every founding member calls this)."""
        with self._lock:
            controller = B2BObjectController(
                self, object_name, b2b_object, mode=mode,
                timeout=timeout if timeout is not None else self.default_timeout,
            )
            extra: dict = {}
            if engine_cls is not None:
                extra["engine_cls"] = engine_cls
            with self.engine_lock:
                self.party.create_object(
                    object_name,
                    members,
                    b2b_object.get_state(),
                    validator=ObjectValidatorAdapter(b2b_object),
                    merger=ObjectMergerAdapter(b2b_object),
                    sponsor_mode=sponsor_mode,
                    reject_null_transitions=reject_null_transitions,
                    **extra,
                )
                engine = self.party.session(object_name).state
                self.ctx.commit()  # the genesis checkpoints
                self.readcache.publish(object_name, engine.agreed_state,
                                       engine.agreed_sid.to_dict())
            self.controllers[object_name] = controller
            return controller

    def restore_object(self, object_name: str, b2b_object: B2BObject,
                       mode: str = SYNCHRONOUS,
                       timeout: "float | None" = None,
                       engine_cls: "Optional[type]" = None) -> B2BObjectController:
        """Rebuild a shared object from durable state after a restart.

        Counterpart of :meth:`register_object` for a node whose process
        restarted: the agreed state and group view come from the
        checkpoint store and any in-flight protocol runs are resumed from
        the journal.  The application object receives the recovered
        agreed state via ``apply_state``.
        """
        with self._lock:
            controller = B2BObjectController(
                self, object_name, b2b_object, mode=mode,
                timeout=timeout if timeout is not None else self.default_timeout,
            )
            extra: dict = {}
            if engine_cls is not None:
                extra["engine_cls"] = engine_cls
            with self.engine_lock:
                session, output = self.party.restore_object(
                    object_name,
                    validator=ObjectValidatorAdapter(b2b_object),
                    merger=ObjectMergerAdapter(b2b_object),
                    **extra,
                )
                b2b_object.apply_state(session.state.agreed_state)
                self.readcache.publish(object_name,
                                       session.state.agreed_state,
                                       session.state.agreed_sid.to_dict())
            self.controllers[object_name] = controller
        self._process_output(output)
        return controller

    def connect(self, object_name: str, b2b_object: B2BObject,
                sponsor: "str | None" = None,
                mode: str = SYNCHRONOUS,
                sponsor_mode: str = ROTATING,
                timeout: "float | None" = None,
                via: "str | None" = None) -> B2BObjectController:
        """Join an existing shared object.

        Name the *sponsor* directly, or pass any known member as *via* to
        have the sponsor discovered (section 4.5.3).  Synchronous-mode
        semantics: blocks until admitted (returning the new controller)
        or raises on rejection/timeout.  For deferred or asynchronous
        use, call :meth:`propagate_connect` directly.
        """
        ticket = self.propagate_connect(object_name, b2b_object, sponsor,
                                        mode=mode, sponsor_mode=sponsor_mode,
                                        via=via)
        self.wait_for_ticket(ticket, timeout)
        if not ticket.done:
            raise ProtocolBlocked(
                f"connection to {object_name!r} did not complete"
            )
        if not ticket.valid:
            raise NotConnectedError(
                f"connection to {object_name!r} was rejected: {ticket.diagnostics}"
            )
        return self.controllers[object_name]

    # ------------------------------------------------------------------
    # B2BCoordinatorLocal propagation interface (section 5): every state
    # change reaches its engine through the object's one write queue
    # ------------------------------------------------------------------

    def pipeline(self, object_name: str, **options: Any) -> ProposalPipeline:
        """The write pipeline for *object_name*, created on first use.

        *options* (``max_batch``, ``max_busy_retries``, ...) configure the
        pipeline on creation and are ignored once it exists.
        """
        with self.engine_lock:
            pipe = self.pipelines.get(object_name)
            if pipe is None:
                pipe = self.pipelines[object_name] = ProposalPipeline(
                    self.party.session(object_name).state, **options)
            return pipe

    def pipeline_for(self, object_name: str) -> "Optional[ProposalPipeline]":
        """The object's write pipeline, or None before its first write."""
        return self.pipelines.get(object_name)

    def submit_update(self, object_name: str, update: Any,
                      ticket: "Optional[Ticket]" = None) -> Ticket:
        """Queue *update* in the object's write pipeline.

        The paper's ``propagateUpdate`` (a controller's updating
        ``leave()`` calls it under that name): it never blocks and never
        raises for concurrency: the update queues, and is proposed at
        once only if none of this node's runs is in flight — otherwise
        once the node has finished what it started (:meth:`_start_runs`),
        coalesced with everything queued for the object meanwhile into
        one batched proposal.  Either way the proposal is made on the
        network's own thread (on a simulator, inside this call), never
        on the caller's when that is another.  Benign busy vetoes
        retry automatically; the ticket (*ticket* itself when the caller
        brings one) resolves invalid only for genuine policy vetoes (or
        retry exhaustion).  Raises
        :class:`~repro.errors.NotConnectedError` for an object this node
        does not share and
        :class:`~repro.errors.PipelineSaturatedError` at the queue bound.
        """
        with self.engine_lock:
            ticket = self.pipeline(object_name).enqueue(update, ticket)
        self._wake_pipelines(object_name)
        return ticket

    propagate_update = submit_update

    def propagate_new_state(self, object_name: str,
                            new_state: Any) -> Ticket:
        """Queue a full-state overwrite by the same door: it keeps its
        place in the FIFO and is proposed alone, never coalesced."""
        return self.submit_update(object_name, Overwrite(new_state))

    def gateway(self, **options: Any) -> "Any":
        """This node's client gateway, created on first use.

        *options* (``rate``, ``queue_capacity``, ``burst``, ...)
        configure the :class:`~repro.gateway.gateway.Gateway` on
        creation and are ignored once it exists.
        """
        with self._lock:
            if self._gateway is None:
                from repro.gateway.gateway import Gateway

                self._gateway = Gateway(self, **options)
            return self._gateway

    def live(self, **options: Any) -> "Any":
        """This node's live telemetry plane, created on first use.

        *options* (``rules``, ``interval``, ``flight_capacity``,
        ``dump_path``) configure the
        :class:`~repro.obs.live.LiveTelemetry` bundle on creation and
        are ignored once it exists.  Requires the node's context to
        carry a recording instrumentation (an obs with a registry).
        """
        with self._lock:
            if self._live is None:
                from repro.obs.live import LiveTelemetry

                self._live = LiveTelemetry(self, **options)
            return self._live

    def health(self) -> str:
        """Aggregate node health (``healthy``/``degraded``/``unhealthy``).

        Driven by the live telemetry watchdog; a node without live
        telemetry reports ``healthy``.
        """
        with self._lock:
            live = self._live
        return live.health if live is not None else "healthy"

    def _wake_pipelines(self, *object_names: str) -> None:
        """Every reason a pipeline may have a batch to propose — a write
        queued, an event that frees its engine, its backoff run out,
        recovery — arrives here: the pipeline joins the ready FIFO."""
        with self._registry_lock:
            for object_name in object_names:
                self._ready.setdefault(object_name)
        self._start_runs()

    def _start_runs(self, idle: bool = False,
                    in_loop: bool = False) -> None:
        """Finish before you start: the rule for *when* a queued write
        becomes a run.

        While none of this node's runs is in flight, ready pipelines are
        polled oldest first, on the network's own thread (*in_loop*:
        :meth:`~repro.transport.base.Network.call_in_loop`), until one
        proposes — the floor, which alone drains every queue.  Beyond
        that one run the rest wait until the node has nothing inbound
        left to handle (*idle*:
        :meth:`~repro.transport.base.Network.when_idle`), and what is
        queued for them meanwhile rides in their next batch.
        """
        hand_off = False
        while True:
            with self._registry_lock:
                if idle:
                    self._idle_requested = False
                    names = list(self._ready)
                elif not self._ready:
                    return
                elif not self._own_runs:
                    if not in_loop:
                        # Nothing is reserved across the hand-off: the
                        # loop decides afresh (a crash meanwhile empties
                        # the ready FIFO, and nothing starts).
                        hand_off = True
                        break
                    names = [next(iter(self._ready))]
                elif self._idle_requested:
                    return
                else:
                    # At most one idle callback is out at a time.
                    self._idle_requested = True
                    break
                for name in names:
                    del self._ready[name]
                # Counted before the poll, so that a concurrent submit
                # sees the floor taken; what does not start is given back.
                self._own_runs += len(names)
            idle = False
            started = 0
            try:
                for name in names:
                    started += self._poll_pipeline(name)
            finally:
                with self._registry_lock:
                    self._own_runs -= len(names) - started
        if hand_off:
            self.runtime.network.call_in_loop(self._start_in_loop)
        else:
            self.runtime.network.when_idle(self._on_idle)

    def _start_in_loop(self) -> None:
        self._start_runs(in_loop=True)

    def _on_idle(self) -> None:
        self._start_runs(idle=True, in_loop=True)

    def _poll_pipeline(self, object_name: str) -> bool:
        """Let the object's pipeline propose if it can, and say whether
        it did; if only its backoff stands in the way, arm the timer
        that wakes it again."""
        with self.engine_lock:
            pipe = self.pipelines[object_name]
            was_free = pipe.inflight_run_id is None
            output = pipe.poll()
            started = was_free and pipe.inflight_run_id is not None
            failed = pipe.take_failed()
        self._process_output(output)
        self._schedule_pipeline_retry(object_name)
        if failed:
            with self._lock:  # as for settled tickets in _dispatch_event
                for ticket, diagnostics in failed:
                    ticket.resolve(False, diagnostics)
        return started

    def _schedule_pipeline_retry(self, object_name: str) -> None:
        """Arm a timer for the pipeline's next backoff wake-up, if any."""
        with self._registry_lock:
            if object_name in self._pipeline_timers:
                return
        with self.engine_lock:
            delay = self.pipelines[object_name].retry_delay()
        if delay is None:
            return

        def fire() -> None:
            with self._registry_lock:
                self._pipeline_timers.pop(object_name, None)
            if not self._crashed:
                self._wake_pipelines(object_name)

        handle = self.runtime.network.schedule(max(delay, 1e-9), fire)
        with self._registry_lock:
            if object_name in self._pipeline_timers:
                handle.cancel()
            else:
                self._pipeline_timers[object_name] = handle

    def propagate_connect(self, object_name: str, b2b_object: B2BObject,
                          sponsor: "str | None" = None,
                          mode: str = SYNCHRONOUS,
                          sponsor_mode: str = ROTATING,
                          via: "str | None" = None) -> Ticket:
        with self._lock:
            with self.engine_lock:
                output = self.party.join_object(
                    object_name, sponsor,
                    certificate=self.certificate,
                    validator=ObjectValidatorAdapter(b2b_object),
                    merger=ObjectMergerAdapter(b2b_object),
                    sponsor_mode=sponsor_mode,
                    via=via,
                )
            self._join_objects[object_name] = b2b_object
            self._join_modes[object_name] = mode
            ticket = self._track(f"join:{object_name}", object_name, "connect")
        self._process_output(output)
        return ticket

    def propagate_disconnect(self, object_name: str) -> Ticket:
        self._await_quiescent(object_name)
        with self.engine_lock:
            session = self.party.session(object_name)
            _digest, output = session.membership.request_disconnect()
            ticket = self._track(f"leave:{object_name}", object_name, "disconnect")
        self._process_output(output)
        return ticket

    def propagate_eviction(self, object_name: str,
                           subjects: "list[str]") -> Ticket:
        self._await_quiescent(object_name)
        with self.engine_lock:
            session = self.party.session(object_name)
            _digest, output = session.membership.request_eviction(subjects)
            ticket = self._track(f"evict:{object_name}", object_name, "evict")
        self._process_output(output)
        return ticket

    # ------------------------------------------------------------------
    # validated read path (core/readcache.py)
    # ------------------------------------------------------------------

    def examine(self, object_name: str,
                read_mode: "ReadMode | str | None" = None) -> ReadResult:
        """Serve one examine-scoped read in an explicit consistency mode.

        ``settled`` (the default) quiesces like a classic examine scope;
        ``bounded(max_staleness)`` and ``cached`` serve the latest
        published snapshot lock-free without entering the coordination
        critical section.  Returns a
        :class:`~repro.core.readcache.ReadResult` whose ``state`` is a
        private copy of a validated snapshot — never a pre-applied or
        vetoed proposal's state.
        """
        return self.readcache.read(object_name, read_mode)

    # ------------------------------------------------------------------
    # waiting
    # ------------------------------------------------------------------

    def wait_for_ticket(self, ticket: Ticket,
                        timeout: "float | None" = None) -> bool:
        """Block until *ticket* resolves (or *timeout* passes): on the
        simulator by running it, on a real runtime on the ticket's own
        signal.  Callbacks never run on the waiting thread."""
        timeout = timeout if timeout is not None else self.default_timeout
        if isinstance(self.runtime, SimRuntime):
            return self.runtime.wait_until(lambda: ticket.done, timeout)
        return ticket.wait_signal(timeout)

    wait_for_pipeline = wait_for_ticket

    def _await_quiescent(self, object_name: str) -> None:
        """Wait for the local replica to have no run in flight.

        Guards the settled read (``enter()`` / ``examine``), which must
        not see a pre-applied proposal, and membership requests, which
        the engine refuses mid-run; writes do not come here, they queue.
        Waits outside the node lock, so inbound traffic keeps flowing.
        If the run never settles (a misbehaving proposer), a membership
        request still raises.
        """
        try:
            session = self.party.session(object_name)
        except NotConnectedError:
            return
        engine = session.state
        pipe = self.pipelines.get(object_name)
        with self.engine_lock:
            queued = pipe is not None and pipe.depth > 0
        if queued:
            # A queued write starts on the transport's thread
            # (call_in_loop): let every start handed over before this
            # wait run first, so the wait covers the run it proposes.
            handed_over = threading.Event()
            self.runtime.network.call_in_loop(handed_over.set)
            handed_over.wait(self.default_timeout)
        self.runtime.wait_until(
            lambda: not engine.busy and not engine.membership_change_active
            and not session.membership.busy,
            self.default_timeout,
        )

    # ------------------------------------------------------------------
    # fault-injection hooks (used by tests and benchmarks)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Simulate a node crash: stop timers, drop volatile state.

        Durable state (evidence log, journal, checkpoints) survives in the
        context's stores; :meth:`recover` resumes protocol participation.
        """
        self._crashed = True
        self.readcache.invalidate(reason="crash")
        with self._registry_lock:
            for handle in self._pipeline_timers.values():
                handle.cancel()
            self._pipeline_timers.clear()
            self._ready.clear()
        self.endpoint.stop()
        network = self.runtime.network
        crash = getattr(network, "crash", None)
        if crash is not None:
            crash(self.party_id)

    def recover(self) -> None:
        """Recover from a crash and re-drive in-flight protocol runs."""
        network = self.runtime.network
        recover = getattr(network, "recover", None)
        if recover is not None:
            recover(self.party_id)
        self.endpoint.restart()
        self._crashed = False
        with self.engine_lock:
            output = self.party.resend_outstanding()
            # Republish from the recovered engines: anything published
            # before the crash is stale by definition.
            self.readcache.invalidate(reason="recovery")
            for object_name in list(self.controllers):
                try:
                    engine = self.party.session(object_name).state
                except NotConnectedError:
                    continue
                self.readcache.publish(object_name, engine.agreed_state,
                                       engine.agreed_sid.to_dict())
        self._process_output(output)
        # crash() cancelled the backoff timers and emptied the ready
        # FIFO, and no event will name a pipeline that was waiting on
        # either, so wake each one here.
        self._wake_pipelines(*list(self.pipelines))

    def check_progress(self, timeout: "float | None" = None) -> "list[Event]":
        """Surface blocked runs (evidence for dispute resolution)."""
        timeout = timeout if timeout is not None else self.default_timeout
        with self.engine_lock:
            output = self.party.check_progress(timeout)
        self._process_output(output)
        return output.events

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _track(self, key: str, object_name: str, kind: str) -> Ticket:
        ticket = Ticket(object_name=object_name, kind=kind, key=key)
        with self._registry_lock:
            self._tickets[key] = ticket
        return ticket

    def _on_message(self, sender: str, payload: dict) -> None:
        """Run the protocol handler under the engine lock, on the
        transport's thread.  The returned output is transmitted and
        dispatched *after* the lock is released (see
        :meth:`_process_output`)."""
        if self._crashed:
            return
        with self.engine_lock:
            output = self.party.handle(sender, payload)
        self._process_output(output)

    def _process_output(self, output: Output) -> None:
        # Never called while holding the engine lock: event dispatch
        # takes it transiently and listener callbacks (the gateway) take
        # the node lock, so arriving here with it held would invert the
        # node -> engine order.
        #
        # The write-ahead rule: every record the handlers appended is on
        # disk before a message leaves, a ticket resolves or a snapshot
        # is published.  An output with neither leaves its records
        # queued for the next barrier.
        if output.messages or output.events:
            self.ctx.commit()
        for recipient, message in output.messages:
            if self.outbound_interceptor is not None:
                for actual_recipient, actual in self.outbound_interceptor(
                        recipient, message):
                    self.endpoint.send(actual_recipient, actual)
            else:
                self.endpoint.send(recipient, message)
        for event in output.events:
            self._dispatch_event(event)

    def _dispatch_event(self, event: Event) -> None:
        if isinstance(event, MisbehaviourEvent):
            with self._registry_lock:
                self.misbehaviour_reports.append(event)
        object_name = getattr(event, "object_name", None)
        if isinstance(event, ConnectionDecided) and event.accepted:
            # Before the join ticket resolves: its waiter wakes on the
            # ticket's signal and reads the controller at once.
            with self._lock:
                self._finish_join(event)
        self._resolve_tickets(event)
        if isinstance(event, (StateInstalled, StateRolledBack)):
            # Every settlement (a rollback re-settles on the prior agreed
            # state) publishes the validated snapshot the read path
            # serves; the engine lock serialises it with the engine.
            with self.engine_lock:
                self.readcache.publish(event.object_name, event.state,
                                       event.state_id, event.encoded)
        controller = self.controllers.get(object_name or "")
        if controller is not None:
            with self.engine_lock:
                controller.on_event(event)
        pipe = self.pipelines.get(object_name)
        if pipe is not None:
            # Every event that can free this object's engine — its own
            # run, another proposer's, a membership change — names the
            # object, so its one pipeline is the only one to wake.
            with self.engine_lock:
                was_inflight = pipe.inflight_run_id is not None
                settled = pipe.settle(event)
                closed = was_inflight and pipe.inflight_run_id is None
                waiting = pipe.depth > 0
            if closed or waiting:
                with self._registry_lock:
                    if closed:
                        self._own_runs -= 1
                    if waiting:
                        self._ready.setdefault(object_name)
                self._start_runs()
            if settled:
                # on_done callbacks run here: one at a time under the
                # node lock, on the settling thread, the engine lock not
                # held — they may submit again.
                with self._lock:
                    for ticket in settled:
                        ticket.resolve(event.valid, event.diagnostics,
                                       run_id=event.run_id)
        for listener in self.listeners:
            listener(event)

    def _finish_join(self, event: ConnectionDecided) -> None:
        b2b_object = self._join_objects.pop(event.object_name, None)
        mode = self._join_modes.pop(event.object_name, SYNCHRONOUS)
        if b2b_object is None:
            return
        controller = B2BObjectController(
            self, event.object_name, b2b_object, mode=mode,
            timeout=self.default_timeout,
        )
        b2b_object.apply_state(event.state)
        self.controllers[event.object_name] = controller
        with self.engine_lock:
            try:
                engine = self.party.session(event.object_name).state
            except NotConnectedError:
                return
            self.readcache.publish(event.object_name, engine.agreed_state,
                                   engine.agreed_sid.to_dict())

    def _resolve_tickets(self, event: Event) -> None:
        resolve = self._resolve_ticket
        if isinstance(event, RunCompleted) and event.kind == "evict":
            resolve(f"evict:{event.object_name}", event.valid,
                    event.diagnostics, event)
        elif isinstance(event, MembershipChanged) and event.change == "evict":
            resolve(f"evict:{event.object_name}", True, [], event)
        elif isinstance(event, ConnectionDecided):
            resolved = resolve(f"join:{event.object_name}", event.accepted,
                               event.diagnostics, event)
            if resolved and not event.accepted:
                with self._lock:
                    self._join_objects.pop(event.object_name, None)
                    self._join_modes.pop(event.object_name, None)
        elif isinstance(event, DisconnectionDecided):
            resolve(f"leave:{event.object_name}", True, [], event)

    def _resolve_ticket(self, key: str, valid: bool,
                        diagnostics: "list[str]", event: Event) -> bool:
        """Resolve and forget the ticket tracked under *key*, if any (its
        holder keeps it; the registry only needs unresolved ones)."""
        with self._registry_lock:
            ticket = self._tickets.pop(key, None)
        if ticket is None:
            return False
        ticket.resolve(valid, diagnostics, event)
        return True
