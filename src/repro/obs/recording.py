"""The recording implementation of the instrumentation hooks.

Maps every hook onto registry instruments (see the catalogue in
``docs/OBSERVABILITY.md``) and, for run-level activity, onto trace
records.  One instance is shared by all parties of a community, so the
registry aggregates across the whole deployment; per-party attribution
lives in the trace records.

When a :class:`~repro.obs.live.flight.FlightRecorder` is attached
(``flight=`` or the ``flight`` attribute), the coarse-grained events —
run lifecycle, protocol messages, gateway admissions/rejections, breaker
transitions, retransmissions, health alerts — are also appended to its
ring for post-mortem dumps.  Per-message hot counters (acks, queue
depths, raw sends) stay registry-only to keep ring churn proportional to
interesting activity.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.hooks import Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import InMemoryCollector, Tracer


class RecordingInstrumentation(Instrumentation):
    """Hook implementation recording into a registry and a tracer."""

    enabled = True

    def __init__(self, registry: "MetricsRegistry | None" = None,
                 tracer: "Tracer | None" = None,
                 collect: bool = False,
                 flight=None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.flight = flight
        self.collector: "Optional[InMemoryCollector]" = None
        if collect:
            self.collector = InMemoryCollector()
            self.tracer.add_exporter(self.collector)
        # Per-(phase, direction) counter tuples for the hottest hook:
        # skips two f-string builds and three registry lookups per
        # protocol message.
        self._msg_counters: "dict[tuple[str, str], tuple]" = {}
        # Bound-instrument tuples for the other per-message hooks,
        # built on first use so an instrument only exists once its hook
        # has actually fired (snapshots stay free of zero-value noise).
        self._transport_instruments: "tuple | None" = None
        self._frame_instruments: "dict[tuple[str, str], tuple]" = {}
        self._journal_instruments: "tuple | None" = None
        self._evidence_instruments: "tuple | None" = None
        self._sync_instruments: "tuple | None" = None
        self._sign_instruments: "tuple | None" = None
        self._verify_instruments: "tuple | None" = None
        self._causal_counter = None
        self._shard_instruments: "dict[int, tuple]" = {}
        self._read_instruments: "dict[tuple[str, bool], tuple]" = {}
        self._readcache_version_gauge = None
        self._queue_gauge = None
        self._ack_counter = None
        self._pipeline_gauge = None
        self._phase_histograms: "dict[str, object]" = {}

    # -- protocol ----------------------------------------------------------

    def run_started(self, party, object_name, run_id, role, mode):
        self.registry.counter("protocol.runs.started").inc()
        self.registry.counter(f"protocol.runs.started.{role}").inc()
        self.tracer.event("run.started", party=party, object=object_name,
                          run_id=run_id, role=role, mode=mode)
        if self.flight is not None:
            self.flight.record("run_started", party=party,
                               object=object_name, run_id=run_id,
                               role=role, mode=mode)

    def run_settled(self, party, object_name, run_id, role, outcome, seconds):
        self.registry.counter(f"protocol.runs.{outcome}").inc()
        self.registry.histogram("protocol.run_seconds").observe(seconds)
        self.registry.histogram(f"protocol.run_seconds.{role}").observe(seconds)
        self.tracer.span_end("run.settled", seconds, party=party,
                             object=object_name, run_id=run_id, role=role,
                             outcome=outcome)
        if self.flight is not None:
            self.flight.record("run_settled", party=party,
                               object=object_name, run_id=run_id, role=role,
                               outcome=outcome, seconds=seconds)

    def protocol_message(self, party, object_name, run_id, phase,
                         direction, size):
        counters = self._msg_counters.get((phase, direction))
        if counters is None:
            counters = self._msg_counters[(phase, direction)] = (
                self.registry.counter(f"protocol.{phase}.{direction}"),
                self.registry.counter(f"protocol.{phase}.bytes_{direction}"),
                self.registry.counter(f"protocol.messages.{direction}"),
            )
        counters[0].inc()
        counters[1].inc(size)
        counters[2].inc()
        if self.flight is not None:
            self.flight.record("protocol_message", party=party,
                               object=object_name, run_id=run_id,
                               phase=phase, direction=direction, size=size)

    def phase_handled(self, party, object_name, phase, seconds):
        histogram = self._phase_histograms.get(phase)
        if histogram is None:
            histogram = self._phase_histograms[phase] = self.registry.histogram(
                f"protocol.{phase}.handle_seconds")
        histogram.observe(seconds)
        self.tracer.span_end("phase.handle", seconds, party=party,
                             object=object_name, phase=phase)

    def validation_decision(self, party, object_name, run_id, accepted,
                            diagnostics):
        verdict = "accepted" if accepted else "rejected"
        self.registry.counter(f"protocol.validation.{verdict}").inc()
        self.tracer.event("validation.decision", party=party,
                          object=object_name, run_id=run_id,
                          accepted=accepted,
                          diagnostics=len(diagnostics))
        if self.flight is not None:
            self.flight.record("validation", party=party, object=object_name,
                               run_id=run_id, accepted=accepted,
                               diagnostics=list(diagnostics))

    # -- causal tracing ----------------------------------------------------

    def causal_message(self, party, object_name, run_id, phase, direction,
                       peer, trace_id, span_id, parent_span_id, lamport):
        counter = self._causal_counter
        if counter is None:
            counter = self._causal_counter = self.registry.counter(
                "trace.causal.messages")
        counter.inc()
        self.tracer.event("causal.message", party=party, object=object_name,
                          run_id=run_id, phase=phase, direction=direction,
                          peer=peer, trace_id=trace_id, span_id=span_id,
                          parent_span_id=parent_span_id, lamport=lamport)

    def causal_decision(self, party, object_name, run_id, trace_id, lamport,
                        accepted, diagnostics):
        self.tracer.event("causal.decision", party=party, object=object_name,
                          run_id=run_id, trace_id=trace_id, lamport=lamport,
                          accepted=accepted,
                          diagnostics="; ".join(diagnostics))

    def causal_outcome(self, party, object_name, run_id, trace_id, lamport,
                       role, outcome):
        self.tracer.event("causal.outcome", party=party, object=object_name,
                          run_id=run_id, trace_id=trace_id, lamport=lamport,
                          role=role, outcome=outcome)

    # -- proposal pipeline -------------------------------------------------

    def batch_proposed(self, party, object_name, run_id, size):
        self.registry.counter("pipeline.batches").inc()
        self.registry.counter("pipeline.batched_updates").inc(size)
        self.registry.histogram("pipeline.batch_size").observe(size)
        self.tracer.event("pipeline.batch", party=party, object=object_name,
                          run_id=run_id, size=size)
        if self.flight is not None:
            self.flight.record("batch_proposed", party=party,
                               object=object_name, run_id=run_id, size=size)

    def pipeline_depth(self, party, object_name, depth):
        gauge = self._pipeline_gauge
        if gauge is None:
            gauge = self._pipeline_gauge = self.registry.gauge("pipeline.depth")
        gauge.set(depth)

    def pipeline_busy_retry(self, party, object_name, attempt):
        self.registry.counter("pipeline.busy_retries").inc()
        self.tracer.event("pipeline.retry", party=party, object=object_name,
                          attempt=attempt)
        if self.flight is not None:
            self.flight.record("pipeline_busy_retry", party=party,
                               object=object_name, attempt=attempt)

    def pipeline_saturated(self, party, object_name, depth):
        self.registry.counter("pipeline.saturated").inc()
        if self.flight is not None:
            self.flight.record("pipeline_saturated", party=party,
                               object=object_name, depth=depth)

    # -- shard scheduler ---------------------------------------------------

    def shard_dispatch(self, party, shard, depth):
        instruments = self._shard_instruments.get(shard)
        if instruments is None:
            instruments = self._shard_instruments[shard] = (
                self.registry.counter(f"shards.dispatched.s{shard}"),
                self.registry.gauge(f"shards.queue_depth.s{shard}"),
                self.registry.counter(f"shards.settled.s{shard}"),
            )
        instruments[0].inc()
        instruments[1].set(depth)

    def shard_settled(self, party, shard, object_name, valid):
        instruments = self._shard_instruments.get(shard)
        if instruments is None:
            instruments = self._shard_instruments[shard] = (
                self.registry.counter(f"shards.dispatched.s{shard}"),
                self.registry.gauge(f"shards.queue_depth.s{shard}"),
                self.registry.counter(f"shards.settled.s{shard}"),
            )
        instruments[2].inc()
        self.registry.counter("shards.settled").inc()
        if not valid:
            self.registry.counter("shards.settled.invalid").inc()

    # -- read cache --------------------------------------------------------

    def read_served(self, party, object_name, mode, hit, staleness):
        # Reads are the hot path this cache exists for: bound-instrument
        # tuples per (mode, hit), registry-only (no flight ring churn).
        instruments = self._read_instruments.get((mode, hit))
        if instruments is None:
            verdict = "hits" if hit else "misses"
            instruments = self._read_instruments[(mode, hit)] = (
                self.registry.counter("readcache.reads"),
                self.registry.counter(f"readcache.reads.{mode}"),
                self.registry.counter(f"readcache.{verdict}"),
                self.registry.histogram("readcache.staleness_seconds"),
            )
        instruments[0].inc()
        instruments[1].inc()
        instruments[2].inc()
        instruments[3].observe(staleness)

    def snapshot_published(self, party, object_name, version, settle_seq):
        self.registry.counter("readcache.published").inc()
        gauge = self._readcache_version_gauge
        if gauge is None:
            gauge = self._readcache_version_gauge = self.registry.gauge(
                "readcache.version")
        gauge.set(version)
        if self.flight is not None:
            self.flight.record("snapshot_published", party=party,
                               object=object_name, version=version,
                               settle_seq=settle_seq)

    def snapshot_invalidated(self, party, object_name, reason):
        self.registry.counter("readcache.invalidated").inc()
        self.registry.counter(f"readcache.invalidated.{reason}").inc()
        if self.flight is not None:
            self.flight.record("snapshot_invalidated", party=party,
                               object=object_name, reason=reason)

    # -- gateway -----------------------------------------------------------

    def gateway_admitted(self, party, object_name, client):
        self.registry.counter("gateway.admitted").inc()
        if self.flight is not None:
            self.flight.record("gateway_admitted", party=party,
                               object=object_name, client=client)

    def gateway_rejected(self, party, object_name, client, reason,
                         retry_after=0.0):
        self.registry.counter("gateway.rejected").inc()
        self.registry.counter(f"gateway.rejected.{reason}").inc()
        self.registry.histogram("gateway.retry_after_seconds").observe(
            retry_after)
        if self.flight is not None:
            self.flight.record("gateway_rejected", party=party,
                               object=object_name, client=client,
                               reason=reason, retry_after=retry_after)

    def gateway_replayed(self, party, object_name, client):
        self.registry.counter("gateway.replays").inc()
        if self.flight is not None:
            self.flight.record("gateway_replayed", party=party,
                               object=object_name, client=client)

    def gateway_queue_depth(self, party, object_name, depth):
        self.registry.gauge("gateway.queue_depth").set(depth)

    def gateway_settled(self, party, object_name, valid, seconds):
        verdict = "valid" if valid else "invalid"
        self.registry.counter(f"gateway.settled.{verdict}").inc()
        self.registry.histogram("gateway.settle_seconds").observe(seconds)
        if self.flight is not None:
            self.flight.record("gateway_settled", party=party,
                               object=object_name, valid=valid,
                               seconds=seconds)

    def breaker_transition(self, party, object_name, old_state, new_state):
        self.registry.counter("gateway.breaker.transitions").inc()
        self.registry.counter(
            f"gateway.breaker.{old_state}->{new_state}").inc()
        self.tracer.event("gateway.breaker", party=party, object=object_name,
                          old=old_state, new=new_state)
        if self.flight is not None:
            self.flight.record("breaker_transition", party=party,
                               object=object_name, old=old_state,
                               new=new_state)

    # -- online health -----------------------------------------------------

    def health_alert(self, party, rule, severity, message, value, threshold):
        self.registry.counter("health.alerts").inc()
        self.registry.counter(f"health.alerts.{rule}").inc()
        self.tracer.event("health.alert", party=party, rule=rule,
                          severity=severity, message=message, value=value,
                          threshold=threshold)
        if self.flight is not None:
            self.flight.record("health_alert", party=party, rule=rule,
                               severity=severity, message=message,
                               value=value, threshold=threshold)

    def health_changed(self, party, old_state, new_state):
        self.registry.counter("health.transitions").inc()
        self.registry.counter(f"health.{old_state}->{new_state}").inc()
        self.tracer.event("health.changed", party=party, old=old_state,
                          new=new_state)
        if self.flight is not None:
            self.flight.record("health_changed", party=party,
                               old=old_state, new=new_state)

    # -- transport ---------------------------------------------------------

    def message_sent(self, party, recipient, size):
        counters = self._transport_instruments
        if counters is None:
            counters = self._transport_instruments = (
                self.registry.counter("transport.data_sent"),
                self.registry.counter("transport.bytes_sent"),
            )
        counters[0].inc()
        counters[1].inc(size)

    def retransmission(self, party, recipient, msg_id, attempt):
        self.registry.counter("transport.retransmissions").inc()
        self.tracer.event("transport.retransmission", party=party,
                          peer=recipient, msg_id=msg_id, attempt=attempt)
        if self.flight is not None:
            self.flight.record("retransmission", party=party,
                               peer=recipient, msg_id=msg_id,
                               attempt=attempt)

    def retry_exhausted(self, party, recipient, msg_id, attempts):
        self.registry.counter("transport.retry_exhausted").inc()
        self.tracer.event("transport.retry_exhausted", party=party,
                          recipient=recipient, msg_id=msg_id,
                          attempts=attempts)
        if self.flight is not None:
            self.flight.record("retry_exhausted", party=party,
                               peer=recipient, msg_id=msg_id,
                               attempts=attempts)

    def duplicate_suppressed(self, party, sender, msg_id):
        self.registry.counter("transport.duplicates_suppressed").inc()
        self.tracer.event("transport.duplicate", party=party,
                          peer=sender, msg_id=msg_id)
        if self.flight is not None:
            self.flight.record("duplicate_suppressed", party=party,
                               peer=sender, msg_id=msg_id)

    def ack_received(self, party, msg_id):
        counter = self._ack_counter
        if counter is None:
            counter = self._ack_counter = self.registry.counter(
                "transport.acks_received")
        counter.inc()

    def queue_depth(self, party, depth):
        gauge = self._queue_gauge
        if gauge is None:
            gauge = self._queue_gauge = self.registry.gauge(
                "transport.queue_depth")
        gauge.set(depth)

    def raw_send(self, sender, recipient, size, ok):
        self.registry.counter("transport.raw.sent").inc()
        self.registry.counter("transport.raw.bytes_sent").inc(size)
        if not ok:
            self.registry.counter("transport.raw.send_errors").inc()

    def connection_opened(self, party, peer, reconnect):
        self.registry.counter("transport.tcp.connections_opened").inc()
        if reconnect:
            self.registry.counter("transport.tcp.reconnects").inc()
            self.tracer.event("transport.reconnect", party=party, peer=peer)
        if self.flight is not None:
            self.flight.record("connection_opened", party=party, peer=peer,
                               reconnect=reconnect)

    def connection_reused(self, party, peer):
        self.registry.counter("transport.tcp.connections_reused").inc()

    def connection_failed(self, party, peer):
        self.registry.counter("transport.tcp.connect_failures").inc()
        if self.flight is not None:
            self.flight.record("connection_failed", party=party, peer=peer)

    def frames_coalesced(self, party, peer, frames):
        self.registry.counter("transport.tcp.batches").inc()
        self.registry.counter("transport.tcp.frames_coalesced").inc(frames)

    def frame_encoded(self, codec, size, seconds):
        instruments = self._frame_instruments.get((codec, "out"))
        if instruments is None:
            instruments = self._frame_instruments[(codec, "out")] = (
                self.registry.counter(f"wire.{codec}.frames_out"),
                self.registry.counter(f"wire.{codec}.bytes_out"),
                self.registry.histogram(f"wire.{codec}.encode_seconds"),
            )
        instruments[0].inc()
        instruments[1].inc(size)
        instruments[2].observe(seconds)

    def frame_decoded(self, codec, size, seconds):
        instruments = self._frame_instruments.get((codec, "in"))
        if instruments is None:
            instruments = self._frame_instruments[(codec, "in")] = (
                self.registry.counter(f"wire.{codec}.frames_in"),
                self.registry.counter(f"wire.{codec}.bytes_in"),
                self.registry.histogram(f"wire.{codec}.decode_seconds"),
            )
        instruments[0].inc()
        instruments[1].inc(size)
        instruments[2].observe(seconds)

    def malformed_frame(self, party, reason):
        self.registry.counter("transport.tcp.malformed_frames").inc()
        self.registry.counter(
            f"transport.tcp.malformed_frames.{reason}").inc()
        if self.flight is not None:
            self.flight.record("malformed_frame", party=party, reason=reason)

    def handler_error(self, party, kind):
        self.registry.counter("transport.tcp.handler_errors").inc()
        self.registry.counter(f"transport.tcp.handler_errors.{kind}").inc()
        if self.flight is not None:
            self.flight.record("handler_error", party=party, site=kind)

    def send_traced(self, party, recipient, msg_id, trace_id):
        self.tracer.event("transport.send", party=party, peer=recipient,
                          msg_id=msg_id, trace_id=trace_id)

    # -- crypto ------------------------------------------------------------

    def sign_timing(self, party, scheme, size, seconds):
        instruments = self._sign_instruments
        if instruments is None:
            instruments = self._sign_instruments = (
                self.registry.counter("crypto.sign.count"),
                self.registry.histogram("crypto.sign_seconds"),
            )
        instruments[0].inc()
        instruments[1].observe(seconds)

    def verify_timing(self, scheme, size, seconds, ok):
        instruments = self._verify_instruments
        if instruments is None:
            instruments = self._verify_instruments = (
                self.registry.counter("crypto.verify.count"),
                self.registry.histogram("crypto.verify_seconds"),
            )
        instruments[0].inc()
        if not ok:
            self.registry.counter("crypto.verify.failures").inc()
        instruments[1].observe(seconds)

    def keygen_timing(self, bits, attempts, seconds):
        self.registry.counter("crypto.keygen.count").inc()
        self.registry.counter("crypto.keygen.attempts").inc(attempts)
        self.registry.histogram("crypto.keygen_seconds").observe(seconds)

    # -- storage -----------------------------------------------------------

    def journal_append(self, party, run_id, direction, size, seconds):
        instruments = self._journal_instruments
        if instruments is None:
            instruments = self._journal_instruments = (
                self.registry.counter("storage.journal.appends"),
                self.registry.counter("storage.journal.bytes"),
                self.registry.histogram("storage.journal.append_seconds"),
            )
        instruments[0].inc()
        instruments[1].inc(size)
        instruments[2].observe(seconds)

    def journal_closed(self, party, run_id, outcome):
        self.registry.counter("storage.journal.closed").inc()

    def evidence_append(self, party, kind, size, seconds):
        instruments = self._evidence_instruments
        if instruments is None:
            instruments = self._evidence_instruments = (
                self.registry.counter("storage.evidence.appends"),
                self.registry.counter("storage.evidence.bytes"),
                self.registry.histogram("storage.evidence.append_seconds"),
            )
        instruments[0].inc()
        instruments[1].inc(size)
        instruments[2].observe(seconds)

    def storage_sync(self, party, files, records, seconds):
        instruments = self._sync_instruments
        if instruments is None:
            instruments = self._sync_instruments = (
                self.registry.counter("storage.syncs"),
                self.registry.counter("storage.files_synced"),
                self.registry.histogram("storage.sync_seconds"),
                self.registry.histogram("storage.records_per_sync"),
            )
        instruments[0].inc()
        instruments[1].inc(files)
        instruments[2].observe(seconds)
        instruments[3].observe(records)

    # -- dispute resolution ------------------------------------------------

    def evidence_submitted(self, party, intact):
        self.registry.counter("dispute.submissions").inc()
        if not intact:
            self.registry.counter("dispute.submissions.corrupt").inc()

    def claim_checked(self, claim, outcome, culprits, seconds):
        self.registry.counter("dispute.claims_checked").inc()
        self.registry.counter(f"dispute.rulings.{outcome}").inc()
        self.registry.histogram("dispute.claim_seconds").observe(seconds)
        self.tracer.event("dispute.ruling", claim=claim, outcome=outcome,
                          culprits=", ".join(culprits))

    # -- reporting ---------------------------------------------------------

    def report(self) -> str:
        from repro.obs.report import render_report

        return render_report(self.registry)
