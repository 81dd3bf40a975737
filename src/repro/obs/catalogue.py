"""The event catalogue: every observable event, described once as data.

One :class:`Event` per hook says who fires it (``layer``), with which
positional parameters, when, and what recording it means: the counters,
histograms and gauges it updates, the trace record it emits and whether
it reaches the flight ring.  Everything else is derived:
:class:`~repro.obs.hooks.Instrumentation` takes its no-op methods from
:data:`CATALOGUE`, :class:`~repro.obs.recording.RecordingInstrumentation`
interprets the entries, and :func:`render_docs` writes the hook and
metric tables of ``docs/OBSERVABILITY.md``.  To add an event: one
entry here, one call site.

Parameter names double as field names: a trace record carries every
parameter except ``seconds`` (a span's duration; events drop it), a
flight event carries them all.  Metric names are templates over the
parameters: ``{role}`` is the argument's value, ``{ok:failed|passed}``
picks a label by its truth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_LABEL = re.compile(r"\{(\w+)(?::(\w+)\|(\w+))?\}")


@dataclass(frozen=True)
class Metric:
    """One instrument an event updates."""

    kind: str  # the MetricsRegistry factory: counter / histogram / gauge
    name: str  # template over the event's parameters
    value: str = ""  # parameter added / observed / set; "" counts one
    when: str = ""  # only if this parameter is true ("not x": if false)

    def labels(self) -> "set[str]":
        """The parameters whose values choose the instrument."""
        chosen = {match[1] for match in _LABEL.finditer(self.name)}
        return chosen | set(self.when.split()[-1:])

    def applies(self, values: dict) -> bool:
        """Whether ``when`` ("flag" or "not flag") holds for *values*."""
        flag = self.when.split()
        return not flag or bool(values[flag[-1]]) == (len(flag) == 1)

    def name_for(self, values: dict) -> str:
        return _LABEL.sub(
            lambda m: (m[3] if values[m[1]] else m[2]) if m[2]
            else str(values[m[1]]), self.name)


def count(name: str, by: str = "", when: str = "") -> Metric:
    return Metric("counter", name, by, when)


def observe(name: str, value: str) -> Metric:
    return Metric("histogram", name, value)


def level(name: str, value: str) -> Metric:
    return Metric("gauge", name, value)


@dataclass(frozen=True)
class Event:
    """One hook: its signature, its meaning and what recording it does."""

    hook: str
    layer: str
    params: "tuple[str, ...]"
    when: str  # the "fired when" sentence of the docs table
    metrics: "tuple[Metric, ...]" = ()
    trace: str = ""  # trace record name; none when empty
    span: bool = False  # the record is a span lasting ``seconds``
    trace_when: str = ""  # record only if this parameter is true (and omit it)
    trace_as: dict = field(default_factory=dict)  # parameter -> rendering
    flight: str = ""  # flight-ring kind; stays out of the ring when empty
    flight_as: dict = field(default_factory=dict)

    @property
    def signature(self) -> str:
        return f"{self.hook}({', '.join(self.params)})"

    @property
    def trace_fields(self) -> "tuple[str, ...]":
        return tuple(p for p in self.params
                     if p not in ("seconds", self.trace_when))


CATALOGUE: "list[Event]" = []


def _event(hook: str, layer: str, params: str, when: str,
           *metrics: Metric, **recording) -> None:
    """Add one entry; ``flight=True`` means "under the hook's own name"."""
    if recording.get("flight") is True:
        recording["flight"] = hook
    CATALOGUE.append(Event(hook, layer, tuple(params.split()), when,
                           metrics, **recording))


_event("run_started", "protocol", "party object run_id role mode",
       "a coordination run begins at a party (as proposer or responder)",
       count("protocol.runs.started"),
       count("protocol.runs.started.{role}"),
       trace="run.started", flight=True)
_event("run_settled", "protocol",
       "party object run_id role outcome seconds",
       "a run reaches valid/invalid; `seconds` is protocol-clock elapsed",
       count("protocol.runs.{outcome}"),
       observe("protocol.run_seconds", "seconds"),
       observe("protocol.run_seconds.{role}", "seconds"),
       trace="run.settled", span=True, flight=True)
_event("protocol_message", "protocol",
       "party object run_id phase direction size",
       "one m1/m2/m3 message sent or received (`size` in bytes)",
       count("protocol.{phase}.{direction}"),
       count("protocol.{phase}.bytes_{direction}", by="size"),
       count("protocol.messages.{direction}"), flight=True)
_event("phase_handled", "protocol", "party object phase seconds",
       "one inbound phase message processed (verify + decide)",
       observe("protocol.{phase}.handle_seconds", "seconds"),
       trace="phase.handle", span=True)
_event("validation_decision", "protocol",
       "party object run_id accepted diagnostics",
       "a responder decided on a proposal (systematic + application "
       "checks); the trace record carries the diagnostics count, the "
       "flight event their text",
       count("protocol.validation.{accepted:rejected|accepted}"),
       trace="validation.decision", trace_as={"diagnostics": len},
       flight="validation", flight_as={"diagnostics": list})

_event("causal_message", "tracing",
       "party object run_id phase direction peer trace_id span_id "
       "parent_span_id lamport",
       "one m1/m2/m3 sent to or received from a peer, with its causal "
       "context (`parent_span_id` links a receive to its send)",
       count("trace.causal.messages"), trace="causal.message")
_event("causal_decision", "tracing",
       "party object run_id trace_id lamport accepted diagnostics",
       "a responder's accept/veto as a Lamport-stamped local event",
       trace="causal.decision", trace_as={"diagnostics": "; ".join})
_event("causal_outcome", "tracing",
       "party object run_id trace_id lamport role outcome",
       "a run settling valid/invalid at one party, on the causal "
       "timeline", trace="causal.outcome")

_event("batch_proposed", "pipeline", "party object run_id size",
       "a batched proposal left with `size` updates in one run",
       count("pipeline.batches"),
       count("pipeline.batched_updates", by="size"),
       observe("pipeline.batch_size", "size"),
       trace="pipeline.batch", flight=True)
_event("pipeline_depth", "pipeline", "party object depth",
       "the number of queued pipeline updates changed",
       level("pipeline.depth", "depth"))
_event("pipeline_busy_retry", "pipeline", "party object attempt",
       "a batch vetoed for benign contention was re-queued",
       count("pipeline.busy_retries"),
       trace="pipeline.retry", flight=True)
_event("pipeline_saturated", "pipeline", "party object depth",
       "a bounded pipeline rejected a submit at `depth` queued updates",
       count("pipeline.saturated"), flight=True)

_event("read_served", "readcache", "party object mode hit staleness",
       "one validated read served (`mode` = settled/bounded/cached; "
       "`hit` = answered by the published snapshot without a refresh; "
       "`staleness` = seconds since publication, 0.0 for a refresh)",
       count("readcache.reads"), count("readcache.reads.{mode}"),
       count("readcache.{hit:misses|hits}"),
       observe("readcache.staleness_seconds", "staleness"))
_event("snapshot_published", "readcache",
       "party object version settle_seq",
       "a settlement or refresh published a new validated snapshot",
       count("readcache.published"),
       level("readcache.version", "version"), flight=True)
_event("snapshot_invalidated", "readcache", "party object reason",
       "a published snapshot was dropped (`crash` / `recovery`)",
       count("readcache.invalidated"),
       count("readcache.invalidated.{reason}"), flight=True)

_event("gateway_admitted", "gateway", "party object client",
       "a client request passed all admission guards",
       count("gateway.admitted"), flight=True)
_event("gateway_rejected", "gateway",
       "party object client reason retry_after",
       "a request refused before coordination (`rate_limited` / "
       "`overloaded` / `circuit_open`), with the back-off in seconds "
       "the client was told to observe",
       count("gateway.rejected"), count("gateway.rejected.{reason}"),
       observe("gateway.retry_after_seconds", "retry_after"),
       flight=True)
_event("gateway_replayed", "gateway", "party object client",
       "an idempotent retry served from the replay cache",
       count("gateway.replays"), flight=True)
_event("gateway_queue_depth", "gateway", "party object depth",
       "the admission queue depth changed",
       level("gateway.queue_depth", "depth"))
_event("gateway_settled", "gateway", "party object valid seconds",
       "a gateway request settled (`seconds` = admission to outcome, "
       "protocol clock)",
       count("gateway.settled.{valid:invalid|valid}"),
       observe("gateway.settle_seconds", "seconds"), flight=True)
_event("breaker_transition", "gateway", "party object old new",
       "a circuit breaker changed state (closed/open/half_open)",
       count("gateway.breaker.transitions"),
       count("gateway.breaker.{old}->{new}"),
       trace="gateway.breaker", flight=True)

_event("health_alert", "health",
       "party rule severity message value threshold",
       "an SLO watchdog rule started firing (once per firing episode, "
       "not per evaluation); `value` crossed `threshold`",
       count("health.alerts"), count("health.alerts.{rule}"),
       trace="health.alert", flight=True)
_event("health_changed", "health", "party old new",
       "a node's aggregate health moved between "
       "`healthy`/`degraded`/`unhealthy`",
       count("health.transitions"), count("health.{old}->{new}"),
       trace="health.changed", flight=True)

_event("message_sent", "transport", "party peer size",
       "the reliable layer accepted a payload for delivery",
       count("transport.data_sent"),
       count("transport.bytes_sent", by="size"))
_event("retransmission", "transport", "party peer msg_id attempt",
       "an unacknowledged message was sent again",
       count("transport.retransmissions"),
       trace="transport.retransmission", flight=True)
_event("retry_exhausted", "transport", "party peer msg_id attempts",
       "a bounded-retry send was abandoned",
       count("transport.retry_exhausted"),
       trace="transport.retry_exhausted", flight=True)
_event("duplicate_suppressed", "transport", "party peer msg_id",
       "a data message arrived again and was dropped before the engine",
       count("transport.duplicates_suppressed"),
       trace="transport.duplicate", flight=True)
_event("ack_received", "transport", "party msg_id",
       "an outstanding message was acknowledged",
       count("transport.acks_received"))
_event("queue_depth", "transport", "party depth",
       "the number of unacknowledged outbound messages changed",
       level("transport.queue_depth", "depth"))
_event("raw_send", "transport", "party peer size ok",
       "one raw network transmission attempt (a frame handed to TCP)",
       count("transport.raw.sent"),
       count("transport.raw.bytes_sent", by="size"),
       count("transport.raw.send_errors", when="not ok"))
_event("connection_opened", "transport", "party peer reconnect",
       "a TCP connection was established (`reconnect`: an earlier one "
       "to the same peer broke, so this is a transparent recovery)",
       count("transport.tcp.connections_opened"),
       count("transport.tcp.reconnects", when="reconnect"),
       trace="transport.reconnect", trace_when="reconnect", flight=True)
_event("connection_reused", "transport", "party peer",
       "a frame batch rode an already-open connection",
       count("transport.tcp.connections_reused"))
_event("connection_failed", "transport", "party peer",
       "a connect attempt failed; queued frames were dropped",
       count("transport.tcp.connect_failures"), flight=True)
_event("frames_coalesced", "transport", "party peer frames",
       "`frames` (> 1) back-to-back frames left in one socket write",
       count("transport.tcp.batches"),
       count("transport.tcp.frames_coalesced", by="frames"))
_event("frame_encoded", "transport", "codec size seconds",
       "one outbound envelope framed (`codec` json/binary, `size` "
       "on-wire bytes); `seconds` includes an encode-once memo hit, so "
       "the histogram shows the amortised cost",
       count("wire.{codec}.frames_out"),
       count("wire.{codec}.bytes_out", by="size"),
       observe("wire.{codec}.encode_seconds", "seconds"))
_event("frame_decoded", "transport", "codec size seconds",
       "one inbound frame of `size` bytes decoded into an envelope",
       count("wire.{codec}.frames_in"),
       count("wire.{codec}.bytes_in", by="size"),
       observe("wire.{codec}.decode_seconds", "seconds"))
_event("malformed_frame", "transport", "party reason",
       "an inbound frame failed framing or decoding and was dropped "
       "(`framing` / `oversized` / `decode` / `bad-envelope`): garbage "
       "on the wire is an intruder signal, counted, never swallowed",
       count("transport.tcp.malformed_frames"),
       count("transport.tcp.malformed_frames.{reason}"), flight=True)
_event("handler_error", "transport", "party site",
       "a transport-driven callback raised and was contained (`site` = "
       "`command` closure / `timer` callback / inbound `dispatch` / "
       "`idle`: a `when_idle` callback, all on the reactor thread): a "
       "silently dying handler is how a node wedges with no trace",
       count("transport.tcp.handler_errors"),
       count("transport.tcp.handler_errors.{site}"), flight=True)
_event("send_traced", "transport", "party peer msg_id trace_id",
       "the reliable layer bound a `msg_id` to the trace it carries, so "
       "retransmission storms and duplicate floods (which only know "
       "message ids) can be attributed to runs",
       trace="transport.send")

_event("sign_timing", "crypto", "party scheme size seconds",
       "one signature produced over `size` bytes",
       count("crypto.sign.count"),
       observe("crypto.sign_seconds", "seconds"))
_event("verify_timing", "crypto", "scheme size seconds ok",
       "one signature verification completed (`ok`: it verified)",
       count("crypto.verify.count"),
       count("crypto.verify.failures", when="not ok"),
       observe("crypto.verify_seconds", "seconds"))
_event("keygen_timing", "crypto", "bits attempts seconds",
       "one key pair generated after `attempts` prime draws",
       count("crypto.keygen.count"),
       count("crypto.keygen.attempts", by="attempts"),
       observe("crypto.keygen_seconds", "seconds"))

_event("journal_append", "storage", "party run_id direction size seconds",
       "a journal record appended: a message, or a run's close "
       "(`direction=\"close\"`); `seconds` is encoding + queueing (and "
       "the fsync only for a store outside a commit group)",
       count("storage.journal.appends"),
       count("storage.journal.bytes", by="size"),
       observe("storage.journal.append_seconds", "seconds"))
_event("journal_closed", "storage", "party run_id outcome",
       "a run's journal was closed with `outcome`",
       count("storage.journal.closed"))
_event("evidence_append", "storage", "party kind size seconds",
       "an entry appended to the non-repudiation log (`seconds` as for "
       "`journal_append`)",
       count("storage.evidence.appends"),
       count("storage.evidence.bytes", by="size"),
       observe("storage.evidence.append_seconds", "seconds"))
_event("storage_sync", "storage", "party files records seconds",
       "one commit barrier (`PartyContext.commit`) wrote and fsynced "
       "the party's record file (`files` is 1), making `records` queued "
       "records durable; a barrier that finds nothing queued is not "
       "reported",
       count("storage.syncs"), count("storage.files_synced", by="files"),
       observe("storage.sync_seconds", "seconds"),
       observe("storage.records_per_sync", "records"))

_event("evidence_submitted", "dispute", "party intact",
       "an arbiter accepted a party's evidence log submission "
       "(`intact`: its hash chain verified)",
       count("dispute.submissions"),
       count("dispute.submissions.corrupt", when="not intact"))
_event("claim_checked", "dispute", "claim outcome culprits seconds",
       "an arbiter ruled on a claim (state-validity / misbehaviour / "
       "participation)",
       count("dispute.claims_checked"),
       count("dispute.rulings.{outcome}"),
       observe("dispute.claim_seconds", "seconds"),
       trace="dispute.ruling", trace_as={"culprits": ", ".join})

# -- docs/OBSERVABILITY.md ---------------------------------------------------


def _hook_table() -> str:
    rows = ["| Layer | Hook | Fired when | Trace record | Flight kind |",
            "|---|---|---|---|---|"]
    for e in CATALOGUE:
        trace = "—"
        if e.trace:
            trace = f"`{e.trace}` " + ("span" if e.span else "event")
        if e.trace_when:
            trace += f" when `{e.trace_when}`"
        rows.append(f"| {e.layer} | `{e.signature}` | {e.when} | {trace} | "
                    + (f"`{e.flight}` |" if e.flight else "— |"))
    return "\n".join(rows)


def _metric_table() -> str:
    rows = ["| Metric | Kind | Value | Hook |", "|---|---|---|---|"]
    rows += ["| `%s` | %s | %s | `%s` |" % (
        m.name.replace("|", "\\|"), m.kind,
        (m.value or "1") + (f" when {m.when}" if m.when else ""), e.hook)
        for e in CATALOGUE for m in e.metrics]
    return "\n".join(rows)


SECTIONS = {"hooks": _hook_table, "metrics": _metric_table}


def render_docs(text: str) -> str:
    """*text* with each ``<!-- catalogue:NAME -->`` … ``<!-- /catalogue:NAME
    -->`` section replaced by what the catalogue renders now."""
    for name, table in SECTIONS.items():
        begin, end = f"<!-- catalogue:{name} -->", f"<!-- /catalogue:{name} -->"
        head, found, rest = text.partition(begin)
        _stale, closed, tail = rest.partition(end)
        if not (found and closed):
            raise ValueError(f"no {begin} … {end} section")
        text = f"{head}{begin}\n{table()}\n{end}{tail}"
    return text
