"""The proposer-side write pipeline with batched coordination rounds.

The base protocol costs 3(n-1) signed messages per state change and the
engine admits one run in flight: a second local proposal raises
:class:`~repro.errors.ConcurrencyError` and responders veto overlapping
proposals with a benign ``"busy:"`` diagnostic.  Under write contention
throughput therefore collapses to one update per round trip, and the
benign vetoes leak to the application as failures.

:class:`ProposalPipeline` sits between the application and one
:class:`~repro.protocol.coordination.StateCoordinationEngine` and fixes
both problems without touching the protocol's evidence semantics:

* **Queueing** — :meth:`submit` never raises for concurrency.  While a
  run is in flight the write waits in the object's one bounded FIFO;
  the caller gets a :class:`Ticket` that resolves when its write is
  agreed (or genuinely vetoed).  It is the only caller of the engine's
  ``propose_*`` under ``src/repro``: a controller's ``leave()``, the
  relay agents and the gateway all queue here.
* **Batching** — when the engine becomes free, the run of updates at the
  head of the queue is coalesced into a *single* batched proposal
  (:meth:`~repro.protocol.coordination.StateCoordinationEngine.propose_update_batch`):
  one run, one state identifier, one signature per phase, regardless of
  how many updates it carries.  The 3(n-1) message cost and the RSA
  signing cost are amortised over the whole batch.  A full-state
  overwrite is a queued write like any other but is never coalesced: it
  is proposed alone by ``propose_overwrite`` when it reaches the head,
  the updates queued before and after it batch on either side of it,
  and FIFO order holds across the two modes.
* **Busy retry** — a run vetoed *solely* for benign contention ("busy"
  or the invariant-1 lag that follows a commit still in flight) is
  retried automatically with jittered exponential backoff instead of
  surfacing failure; only genuine policy vetoes resolve tickets as
  invalid.  Retries are visible through the obs hooks
  (``pipeline_busy_retry``), never through the application.

Like the engines, the pipeline is sans-IO and single-threaded by
contract: callers invoke :meth:`submit` / :meth:`on_event` / :meth:`poll`
and must transmit the returned :class:`Output`.  Backoff wake-ups are
the caller's job too — :meth:`retry_delay` says when to call
:meth:`poll` again.  A caller that guards the pipeline with a lock and
decides for itself *when* a queued write becomes a run (the
:class:`~repro.core.node.OrganisationNode` holds its engine lock)
uses the three halves instead — :meth:`enqueue` queues without
proposing, :meth:`poll` proposes, :meth:`settle` closes a batch — and
resolves the tickets :meth:`settle` and :meth:`take_failed` return
after releasing the lock, because resolving a ticket runs its
``on_done`` callbacks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import PipelineSaturatedError
from repro.protocol.coordination import StateCoordinationEngine
from repro.protocol.events import Event, Output, RunCompleted

#: Diagnostic prefixes that mark a veto as benign contention rather than
#: a policy decision.  ``busy:`` — the responder had a run in flight (or
#: a membership change); ``invariant-1:`` — a replica had not yet
#: installed the previous commit when the proposal arrived.  Both clear
#: on their own once in-flight traffic settles, so retrying the same
#: write is sound.
TRANSIENT_MARKERS = ("busy:", "invariant-1:")


def is_transient_rejection(diagnostics: "list[str]") -> bool:
    """Whether a run's rejection diagnostics are all benign contention."""
    return bool(diagnostics) and all(
        any(marker in diag for marker in TRANSIENT_MARKERS)
        for diag in diagnostics
    )


@dataclass
class Ticket:
    """Handle on one coordination a caller started, resolved when it settles.

    The one ticket class: a queued write (``kind="state"`` — a
    controller's ``leave()``, ``submit_update``, a gateway submission)
    and a membership request (``connect`` / ``disconnect`` / ``evict``)
    are all waited for through it.  ``key`` is whatever the holder files
    it under — the node's registry key for a membership request, the
    client's idempotency key at the gateway — and empty otherwise.
    """

    object_name: str
    kind: str = "state"
    key: str = ""
    done: bool = False
    valid: "Optional[bool]" = None
    diagnostics: "list[str]" = field(default_factory=list)
    #: Id of the run that carries this write, set when the run starts
    #: (and again if a busy veto re-queues the write into another run),
    #: so an unsettled write can be traced or forced to completion; for
    #: a membership request, the run that settled it.
    run_id: "Optional[str]" = None
    #: The event that settled it, for the membership requests a node
    #: tracks by key.  A queued write gets the ``run_id`` only: its
    #: ticket may sit in a gateway's replay window long after the run,
    #: and must not pin the run's evidence there.
    event: "Optional[Event]" = None
    _callbacks: "list[Callable[[Any], None]]" = field(default_factory=list,
                                                      repr=False)
    _signal: threading.Event = field(default_factory=threading.Event,
                                     repr=False)

    def on_done(self, callback: "Callable[[Any], None]") -> None:
        """Run *callback(ticket)* at settlement (immediately if settled)."""
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def resolve(self, valid: bool, diagnostics: "list[str]",
                event: "Optional[Event]" = None,
                run_id: "Optional[str]" = None) -> None:
        self.valid = valid
        self.diagnostics = list(diagnostics)
        self.event = event
        self.run_id = (run_id if run_id is not None
                       else getattr(event, "run_id", None))
        self.done = True
        self._signal.set()
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def wait_signal(self, timeout: "float | None") -> bool:
        """Real-time wait used by the threaded runtime."""
        return self._signal.wait(timeout)


#: The names the ticket went by while each layer had its own.
PipelineTicket = CoordinationTicket = Ticket


@dataclass(frozen=True)
class Overwrite:
    """A queued write that replaces the object's whole state: queue
    ``Overwrite(new_state)`` where an update would go.  It keeps its
    place in the FIFO and is proposed alone, by ``propose_overwrite``."""

    new_state: Any


class ProposalPipeline:
    """Queue, coalesce and retry local writes for one shared object."""

    def __init__(self, engine: StateCoordinationEngine,
                 max_batch: int = 64,
                 max_busy_retries: int = 20,
                 base_retry_delay: float = 0.05,
                 max_retry_delay: float = 1.0,
                 max_depth: "Optional[int]" = None) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be at least 1 (or None)")
        self.engine = engine
        self.max_batch = max_batch
        self.max_busy_retries = max_busy_retries
        self.base_retry_delay = base_retry_delay
        self.max_retry_delay = max_retry_delay
        #: Bound on the queue; None means unbounded.  A busy-retry
        #: re-queue may transiently exceed it (the entries were already
        #: admitted); only new submissions are rejected at the bound.
        #: The gateway sets it to its ``queue_capacity``.
        self.max_depth = max_depth
        #: The object's write queue: (update or :class:`Overwrite`,
        #: ticket) awaiting a run, oldest first.
        self._queue: "list[tuple[Any, Ticket]]" = []
        #: The (run_id, entries) of the run this pipeline has in flight.
        self._inflight: "Optional[tuple[str, list[tuple[Any, Ticket]]]]" = None
        #: Consecutive busy retries of the entries currently at the head.
        self._attempts = 0
        #: Total busy retries over the pipeline's lifetime.
        self.busy_retries = 0
        #: Earliest time the next proposal may be issued; None while no
        #: backoff is pending (not a point in time: a party's clock may
        #: read below any we could pick).
        self._not_before: "Optional[float]" = None
        #: Tickets of batches the engine could not even propose (the
        #: application's merge raised), each with its diagnostics, until
        #: :meth:`take_failed` hands them to whoever resolves tickets.
        self._failed: "list[tuple[Ticket, list[str]]]" = []

    # ------------------------------------------------------------------
    # public queries
    # ------------------------------------------------------------------

    @property
    def object_name(self) -> str:
        return self.engine.object_name

    @property
    def depth(self) -> int:
        """Updates queued locally (excluding any in-flight batch)."""
        return len(self._queue)

    @property
    def inflight_run_id(self) -> "Optional[str]":
        return self._inflight[0] if self._inflight else None

    def retry_delay(self) -> "Optional[float]":
        """Seconds until :meth:`poll` could make progress, if a timed
        wake-up is needed.

        Returns None when no timer is required: the queue is empty, a
        run is in flight (its settlement event drives the pipeline), or
        the engine is occupied by someone else's run (ditto).
        """
        if not self._queue or self._inflight is not None:
            return None
        if (self._not_before is None or self.engine.busy
                or self.engine.membership_change_active):
            return None
        remaining = self._not_before - self.engine.ctx.clock.now()
        return remaining if remaining > 0.0 else None

    # ------------------------------------------------------------------
    # submission and draining
    # ------------------------------------------------------------------

    def submit(self, update: Any,
               ticket: "Optional[Ticket]" = None) -> "tuple[Ticket, Output]":
        """Queue one write; propose immediately if the engine is free
        (:meth:`enqueue` + :meth:`poll`, resolving what could not be
        proposed)."""
        ticket = self.enqueue(update, ticket)
        output = self._maybe_propose()
        self._resolve_failed()
        return ticket, output

    def enqueue(self, update: Any,
                ticket: "Optional[Ticket]" = None) -> Ticket:
        """Queue one write without proposing: :meth:`submit`'s
        queue-only form, for a caller that polls when it sees fit.

        An update batches with its neighbours in the queue; an
        :class:`Overwrite` is proposed alone, in its turn.

        Never raises for concurrency: contention queues the write and
        the returned ticket (*ticket* itself when the caller brings its
        own, e.g. the gateway's) resolves when a run carrying it
        settles.  Raises :class:`~repro.errors.PipelineSaturatedError`
        when the queue is at ``max_depth`` — explicit backpressure for
        flooding callers; the update is *not* queued.
        """
        if (self.max_depth is not None
                and len(self._queue) >= self.max_depth):
            obs = self.engine.ctx.obs
            if obs.enabled:
                obs.pipeline_saturated(self.engine.party_id,
                                       self.object_name, len(self._queue))
            raise PipelineSaturatedError(
                f"pipeline for {self.object_name!r} is saturated "
                f"({len(self._queue)} updates queued, max_depth="
                f"{self.max_depth})"
            )
        if ticket is None:
            ticket = Ticket(object_name=self.object_name)
        self._queue.append((update, ticket))
        self._observe_depth()
        return ticket

    def poll(self) -> Output:
        """Issue the next proposal if nothing stands in its way.

        A batch whose merge raises is not proposed; its tickets wait in
        :meth:`take_failed`."""
        return self._maybe_propose()

    def take_failed(self) -> "list[tuple[Ticket, list[str]]]":
        """The tickets of batches that could not be proposed, each with
        the ``merge-failed:`` diagnostics to resolve it invalid with —
        handed over once, unresolved, like :meth:`settle`'s."""
        failed, self._failed = self._failed, []
        return failed

    def on_event(self, event: Event) -> Output:
        """Feed one engine event: settle the batch it decides, resolve
        its tickets, propose the next batch."""
        settled = self.settle(event)
        output = self._maybe_propose()
        for ticket in settled:
            ticket.resolve(event.valid, event.diagnostics,
                           run_id=event.run_id)
        self._resolve_failed()
        return output

    def settle(self, event: Event) -> "list[Ticket]":
        """Close the in-flight batch if *event* completes its run.

        Returns the tickets the event decides, still unresolved: the
        caller resolves each with ``(event.valid, event.diagnostics,
        run_id=event.run_id)`` once it holds no lock a callback must not
        run under.  Empty when the event is not this batch's, or when a
        benign veto put the batch back at the head of the queue to be
        retried.
        """
        if not (isinstance(event, RunCompleted) and event.kind == "state"
                and event.object_name == self.object_name
                and self._inflight is not None
                and event.run_id == self._inflight[0]):
            return []
        entries = self._inflight[1]
        self._inflight = None
        if (not event.valid and is_transient_rejection(event.diagnostics)
                and self._attempts < self.max_busy_retries):
            # Benign contention: put the batch back at the head of the
            # queue and back off before re-proposing.  The updates stay
            # in submission order, so a later retry re-coalesces them
            # (possibly with newer submissions appended).
            self._attempts += 1
            self.busy_retries += 1
            self._queue[:0] = entries
            self._not_before = (self.engine.ctx.clock.now()
                                + self._backoff_delay(self._attempts))
            obs = self.engine.ctx.obs
            if obs.enabled:
                obs.pipeline_busy_retry(self.engine.party_id,
                                        self.object_name, self._attempts)
            self._observe_depth()
            return []
        self._attempts = 0
        self._not_before = None
        return [ticket for _, ticket in entries]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _backoff_delay(self, attempt: int) -> float:
        """Exponential backoff with deterministic jitter in [0.5, 1.0)."""
        delay = min(self.max_retry_delay,
                    self.base_retry_delay * (2 ** (attempt - 1)))
        jitter = 0.5 + self.engine.ctx.rng.random_below(1000) / 2000.0
        return delay * jitter

    def _maybe_propose(self) -> Output:
        engine = self.engine
        while (self._queue and self._inflight is None and not engine.busy
               and not engine.membership_change_active
               and (self._not_before is None
                    or engine.ctx.clock.now() >= self._not_before)):
            entries = self._take_head()
            first = entries[0][0]
            try:
                if isinstance(first, Overwrite):
                    run_id, output = engine.propose_overwrite(
                        first.new_state)
                elif len(entries) == 1:
                    run_id, output = engine.propose_update(first)
                else:
                    run_id, output = engine.propose_update_batch(
                        [update for update, _ in entries])
            except Exception as exc:  # noqa: BLE001 - app merge may fail
                if engine.busy:
                    # The run was started: not the application's failure.
                    self._queue[:0] = entries
                    raise
                # The engine freezes the write and folds updates through
                # the application's merge before it starts a run, so
                # nothing was signed or sent.  A batch is one state
                # transition: like one a responder cannot apply, it
                # fails as a whole.
                diagnostics = [f"merge-failed: {type(exc).__name__}: {exc}"]
                self._failed.extend(
                    (ticket, diagnostics) for _, ticket in entries)
                self._observe_depth()
                continue
            self._inflight = (run_id, entries)
            for _, ticket in entries:
                ticket.run_id = run_id
            self._observe_depth()
            return output
        return Output()

    def _take_head(self) -> "list[tuple[Any, Ticket]]":
        """Dequeue what the next run carries: the overwrite at the head
        alone, else the updates up to the next overwrite (``max_batch``
        at most)."""
        queue = self._queue
        count = 1
        if not isinstance(queue[0][0], Overwrite):
            limit = min(len(queue), self.max_batch)
            while (count < limit
                   and not isinstance(queue[count][0], Overwrite)):
                count += 1
        entries = queue[:count]
        del queue[:count]
        return entries

    def _resolve_failed(self) -> None:
        for ticket, diagnostics in self.take_failed():
            ticket.resolve(False, diagnostics)

    def _observe_depth(self) -> None:
        obs = self.engine.ctx.obs
        if obs.enabled:
            obs.pipeline_depth(self.engine.party_id, self.object_name,
                               len(self._queue))
