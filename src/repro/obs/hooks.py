"""The instrumentation hook interface threaded through the runtime layers.

Every layer that does observable work — protocol engines, the reliable
transport, the crypto substrate, the storage stores — holds an
:class:`Instrumentation` and calls its typed hook methods at the
interesting moments.  The base class is a complete no-op with
``enabled = False``; hot paths guard any measurement work (sizing a
message, reading a performance counter) behind that flag, so an
uninstrumented deployment pays one attribute read per hook site and
nothing else.

:class:`~repro.obs.recording.RecordingInstrumentation` is the production
implementation, turning hook calls into registry metrics and trace
records.  Tests may subclass :class:`Instrumentation` directly to probe a
single hook.
"""

from __future__ import annotations

# Protocol phases of the state-coordination run (sections 4.3/4.4).
PHASE_M1 = "m1"  # propose
PHASE_M2 = "m2"  # respond
PHASE_M3 = "m3"  # commit

SENT = "sent"
RECEIVED = "received"


# Decimal digits per bit, for sizing integers without str() allocation.
_DIGITS_PER_BIT = 0.30103


def _approx(value) -> int:
    # Exact-type dispatch with scalar leaves inlined in the container
    # loops: this walks every protocol message when recording, so per-
    # node function calls and isinstance chains are what it must avoid.
    kind = type(value)
    if kind is str:
        return len(value) + 2
    if kind is bool:
        return 4 if value else 5
    if kind is int:
        return 1 + int(value.bit_length() * _DIGITS_PER_BIT) + (value < 0)
    if value is None:
        return 4
    if kind is dict:
        total = 2 + max(0, len(value) - 1)
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError("canonical encoding requires str keys")
            inner = type(item)
            if inner is str:
                total += len(key) + len(item) + 5
            elif inner is int:
                total += (len(key) + 4 + (item < 0)
                          + int(item.bit_length() * _DIGITS_PER_BIT))
            else:
                total += len(key) + 3 + _approx(item)
        return total
    if kind is list or kind is tuple:
        total = 2 + max(0, len(value) - 1)
        for item in value:
            inner = type(item)
            if inner is str:
                total += len(item) + 2
            elif inner is int:
                total += (1 + int(item.bit_length() * _DIGITS_PER_BIT)
                          + (item < 0))
            else:
                total += _approx(item)
        return total
    if kind is bytes:
        # {"__b64__":"<base64>"} wrapper around the padded encoding.
        return 14 + 4 * ((len(value) + 2) // 3)
    if kind is float:
        # {"__float__":"<repr>"} wrapper.
        return 15 + len(repr(value))
    if isinstance(value, (str, int, dict, list, tuple, bytes, float)):
        # Subclasses (rare in protocol data) take the generic path.
        if isinstance(value, str):
            return len(value) + 2
        if isinstance(value, bool):
            return 4 if value else 5
        if isinstance(value, int):
            return (1 + int(value.bit_length() * _DIGITS_PER_BIT)
                    + (value < 0))
        if isinstance(value, dict):
            return _approx(dict(value))
        if isinstance(value, (list, tuple)):
            return _approx(list(value))
        if isinstance(value, bytes):
            return 14 + 4 * ((len(value) + 2) // 3)
        return 15 + len(repr(float(value)))
    raise TypeError("not canonically encodable")


def approx_size(value) -> int:
    """Approximate canonical-encoding size of a message, 0 when unencodable.

    Structural estimate of ``len(canonical_bytes(value))`` — exact for
    ASCII payloads bar integer-digit rounding — computed without
    serialising anything: this runs on the protocol hot path for every
    message when instrumentation is recording, and a full JSON encode
    per event is where an instrumented run loses most of its time.
    """
    try:
        return _approx(value)
    except TypeError:
        return 0


#: Single-slot identity memo for :func:`approx_size_cached`.  Holding a
#: strong reference to the last-sized object pins it, so its id cannot
#: be recycled while the memo entry is alive — an ``is`` hit is always
#: the same object, never a lookalike at a reused address.
_last_sized: "tuple | None" = None


def approx_size_cached(value) -> int:
    """:func:`approx_size` with a memo for the immediately-repeated case.

    A protocol broadcast shares one message dict between the sender's
    accounting and (in-process transports) every recipient's, so the
    same object is sized several times in a row.  The memo only ever
    remembers the most recent object: sized dicts are treated as frozen
    by the protocol layer once they are on the wire, and a single slot
    cannot go stale across unrelated messages.
    """
    global _last_sized
    memo = _last_sized
    if memo is not None and memo[0] is value:
        return memo[1]
    size = approx_size(value)
    _last_sized = (value, size)
    return size


class Instrumentation:
    """No-op hook interface; override any subset of methods.

    All hooks must stay cheap and exception-free: they run inline on
    protocol hot paths.  ``enabled`` gates the *callers'* measurement
    work — an implementation that records must set it True, and code
    producing hook arguments that cost anything (sizes, timings) must
    skip that work when it is False.
    """

    enabled = False

    # -- protocol (engine_base.py / coordination.py) -----------------------

    def run_started(self, party: str, object_name: str, run_id: str,
                    role: str, mode: str) -> None:
        """A coordination run began at this party (as proposer/responder)."""

    def run_settled(self, party: str, object_name: str, run_id: str,
                    role: str, outcome: str, seconds: float) -> None:
        """A run reached its outcome; *seconds* is protocol-clock elapsed."""

    def protocol_message(self, party: str, object_name: str, run_id: str,
                         phase: str, direction: str, size: int) -> None:
        """One m1/m2/m3 message was sent or received (*size* in bytes)."""

    def phase_handled(self, party: str, object_name: str, phase: str,
                      seconds: float) -> None:
        """Span: processing one inbound phase message (verify + decide)."""

    def validation_decision(self, party: str, object_name: str, run_id: str,
                            accepted: bool, diagnostics: "list[str]") -> None:
        """A responder decided on a proposal (systematic + app checks)."""

    # -- causal tracing (engine_base.py / coordination.py) -----------------

    def causal_message(self, party: str, object_name: str, run_id: str,
                       phase: str, direction: str, peer: str,
                       trace_id: str, span_id: str, parent_span_id: str,
                       lamport: int) -> None:
        """One protocol message with its cross-party causal context.

        Fired alongside :meth:`protocol_message` for m1/m2/m3 traffic;
        *parent_span_id* links a receive to the send that caused it.
        """

    def causal_decision(self, party: str, object_name: str, run_id: str,
                        trace_id: str, lamport: int, accepted: bool,
                        diagnostics: "list[str]") -> None:
        """A validation decision placed on the causal timeline."""

    def causal_outcome(self, party: str, object_name: str, run_id: str,
                       trace_id: str, lamport: int, role: str,
                       outcome: str) -> None:
        """A run settlement placed on the causal timeline."""

    # -- proposal pipeline (protocol/pipeline.py / coordination.py) --------

    def batch_proposed(self, party: str, object_name: str, run_id: str,
                       size: int) -> None:
        """A batched proposal left with *size* updates in one run."""

    def pipeline_depth(self, party: str, object_name: str,
                       depth: int) -> None:
        """Current number of updates queued in a proposal pipeline."""

    def pipeline_busy_retry(self, party: str, object_name: str,
                            attempt: int) -> None:
        """A pipeline re-queued a batch vetoed for benign contention."""

    def pipeline_saturated(self, party: str, object_name: str,
                           depth: int) -> None:
        """A bounded pipeline rejected a submit at *depth* queued updates."""

    # -- shard scheduler (core/shards.py / core/node.py) -------------------

    def shard_dispatch(self, party: str, shard: int, depth: int) -> None:
        """An inbound message was routed to a shard worker queue.

        *depth* is the queue depth observed at routing time — the live
        measure of how far a shard is behind its inbound traffic.
        """

    def shard_settled(self, party: str, shard: int, object_name: str,
                      valid: bool) -> None:
        """A state run settled on this shard (per-shard throughput)."""

    # -- read cache (core/readcache.py) ------------------------------------

    def read_served(self, party: str, object_name: str, mode: str,
                    hit: bool, staleness: float) -> None:
        """A validated read was served from the snapshot cache.

        *mode* is ``"settled"``/``"bounded"``/``"cached"``; *hit* is True
        when the published snapshot answered without a refresh;
        *staleness* is seconds since publication at serve time (0.0 for
        a refresh).
        """

    def snapshot_published(self, party: str, object_name: str,
                           version: int, settle_seq: int) -> None:
        """A settlement (or refresh) published a new validated snapshot."""

    def snapshot_invalidated(self, party: str, object_name: str,
                             reason: str) -> None:
        """A published snapshot was dropped (``"crash"``/``"recovery"``)."""

    # -- gateway (gateway/gateway.py) --------------------------------------

    def gateway_admitted(self, party: str, object_name: str,
                         client: str) -> None:
        """A client request passed admission into the gateway queue."""

    def gateway_rejected(self, party: str, object_name: str, client: str,
                         reason: str, retry_after: float = 0.0) -> None:
        """A client request was refused pre-coordination.

        *reason* is one of ``"rate_limited"`` (token bucket empty),
        ``"overloaded"`` (shed by load leveling) or ``"circuit_open"``
        (failing fast on a degraded community); *retry_after* is the
        back-off the client was told to observe, in seconds.
        """

    def gateway_replayed(self, party: str, object_name: str,
                         client: str) -> None:
        """An idempotent retry was served from the replay cache."""

    def gateway_queue_depth(self, party: str, object_name: str,
                            depth: int) -> None:
        """Current depth of a gateway admission queue."""

    def gateway_settled(self, party: str, object_name: str, valid: bool,
                        seconds: float) -> None:
        """A gateway request settled end to end (*seconds* admission to
        outcome, on the protocol clock)."""

    def breaker_transition(self, party: str, object_name: str,
                           old_state: str, new_state: str) -> None:
        """A community circuit breaker changed state (closed/open/half_open)."""

    # -- online health (obs/live/health.py) --------------------------------

    def health_alert(self, party: str, rule: str, severity: str,
                     message: str, value: float, threshold: float) -> None:
        """An online SLO watchdog rule started firing at this node.

        *severity* is ``"degraded"`` or ``"unhealthy"``; *value* is the
        observed reading that crossed *threshold*.  Fired once per firing
        episode (not on every evaluation while the rule stays red).
        """

    def health_changed(self, party: str, old_state: str,
                       new_state: str) -> None:
        """A node's aggregate health moved (healthy/degraded/unhealthy)."""

    # -- transport (reliable.py / tcp.py) ----------------------------------

    def message_sent(self, party: str, recipient: str, size: int) -> None:
        """The reliable layer accepted a payload for delivery."""

    def retransmission(self, party: str, recipient: str, msg_id: str,
                       attempt: int) -> None:
        """An unacknowledged message was sent again."""

    def retry_exhausted(self, party: str, recipient: str, msg_id: str,
                        attempts: int) -> None:
        """A bounded-retry send was abandoned."""

    def duplicate_suppressed(self, party: str, sender: str,
                             msg_id: str) -> None:
        """A data message arrived again and was dropped before the engine."""

    def ack_received(self, party: str, msg_id: str) -> None:
        """An outstanding message was acknowledged."""

    def queue_depth(self, party: str, depth: int) -> None:
        """Current number of unacknowledged outbound messages."""

    def raw_send(self, sender: str, recipient: str, size: int,
                 ok: bool) -> None:
        """A raw network transmission attempt (e.g. one TCP connection)."""

    def connection_opened(self, party: str, peer: str,
                          reconnect: bool) -> None:
        """The TCP transport opened a connection to *peer*.

        *reconnect* is True when a previous connection to the same peer
        existed and broke — i.e. this open is a transparent recovery.
        """

    def connection_reused(self, party: str, peer: str) -> None:
        """A frame batch rode an already-open connection."""

    def connection_failed(self, party: str, peer: str) -> None:
        """A connect attempt failed; queued frames were dropped."""

    def frames_coalesced(self, party: str, peer: str, frames: int) -> None:
        """*frames* (> 1) back-to-back frames left in one socket write."""

    def frame_encoded(self, codec: str, size: int, seconds: float) -> None:
        """One outbound envelope was framed (*size* on-wire bytes).

        *codec* is ``"json"`` or ``"binary"``; *seconds* covers the
        full envelope encode, including a memo hit on the encode-once
        broadcast path (so the histogram shows the amortised cost).
        """

    def frame_decoded(self, codec: str, size: int, seconds: float) -> None:
        """One inbound frame of *size* bytes was decoded back to a dict."""

    def malformed_frame(self, party: str, reason: str) -> None:
        """An inbound frame failed framing or decoding and was dropped.

        *reason* is a short classifier (``"oversized"``, ``"decode"``,
        ``"bad-envelope"``, ``"framing"``) — garbage on the wire is an
        intruder signal, so it must be counted, never swallowed.
        """

    def handler_error(self, party: str, kind: str) -> None:
        """A transport-driven callback raised and was contained.

        *kind* is ``"command"`` (a reactor command closure),
        ``"timer"`` (a reactor-heap callback) or
        ``"dispatch"`` (the inbound envelope handler).  Like malformed
        frames, these are counted and flight-recorded rather than
        swallowed: a silently-dying handler is how a node wedges with no
        trace.
        """

    def send_traced(self, party: str, recipient: str, msg_id: str,
                    trace_id: str) -> None:
        """The reliable layer bound transport *msg_id* to a trace.

        Lets offline analysis attribute retransmission storms and
        duplicate floods (which only know message ids) to protocol runs.
        """

    # -- crypto (rsa.py / signature.py) ------------------------------------

    def sign_timing(self, party: str, scheme: str, size: int,
                    seconds: float) -> None:
        """One signature was produced over *size* bytes."""

    def verify_timing(self, scheme: str, size: int, seconds: float,
                      ok: bool) -> None:
        """One signature verification completed (*ok*: it verified)."""

    def keygen_timing(self, bits: int, attempts: int,
                      seconds: float) -> None:
        """A key pair was generated after *attempts* prime draws."""

    # -- storage (journal.py / log.py / protocol/context.py) ---------------

    def journal_append(self, party: str, run_id: str, direction: str,
                       size: int, seconds: float) -> None:
        """One record was appended to the journal store: a message, or
        a run's close record (*direction* ``"close"``).  *seconds*
        covers encoding and, for a store outside a commit group, the
        fsync; a party's barrier reports through :meth:`storage_sync`."""

    def journal_closed(self, party: str, run_id: str, outcome: str) -> None:
        """A run's journal was closed with *outcome*."""

    def evidence_append(self, party: str, kind: str, size: int,
                        seconds: float) -> None:
        """One entry was appended to the non-repudiation log."""

    def storage_sync(self, party: str, files: int, records: int,
                     seconds: float) -> None:
        """One commit barrier made *records* queued records durable by
        writing and fsyncing *files* of the party's three stores.  A
        barrier that found nothing queued is not reported."""

    # -- dispute resolution (dispute.py) -----------------------------------

    def evidence_submitted(self, party: str, intact: bool) -> None:
        """An arbiter accepted one party's evidence log submission."""

    def claim_checked(self, claim: str, outcome: str,
                      culprits: "list[str]", seconds: float) -> None:
        """An arbiter ruled on one claim (audits are measurable too)."""


#: Shared default instance: every layer's "observability off" value.
NULL_INSTRUMENTATION = Instrumentation()
