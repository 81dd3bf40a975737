"""Cross-party trace merging: one causal timeline from N trace files.

Every organisation exports its *own* trace file (wall clocks are not
comparable across administrative domains), and an auditor merges them
offline; a flight-ring dump is such a file too.  Ordering is purely
logical: records are sorted by Lamport clock value with the party id as
the tie-break, which respects causality by construction — a receive
always carries a larger Lamport value than the send that caused it.

The timeline is built from the protocol's own records:
``protocol.message`` (one per message and peer, at each side),
``validation.decision`` and ``run.settled``, each carrying its run's
``trace_id`` and a ``lamport`` value.  The merge also reconstructs the
per-run causal DAG (``parent_span_id`` edges) and flags anomalies worth
a human's attention: vetoed proposals, runs that never settled at some
party, retransmission storms, duplicate floods, recipients that never
answered, and deadline-style aborts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from repro.obs.hooks import PHASE_M1, PHASE_M3, SENT
from repro.obs.trace import check_record, read_jsonl

# The record names the merge reads; every other record is ignored.
MESSAGE = "protocol.message"
DECISION = "validation.decision"
SETTLED = "run.settled"
TIMELINE = (MESSAGE, DECISION, SETTLED)
TRANSPORT_SEND = "transport.send"
TRANSPORT_RETRANSMISSION = "transport.retransmission"
TRANSPORT_DUPLICATE = "transport.duplicate"

ANOMALY_VETO = "veto"
ANOMALY_STALLED_RUN = "stalled-run"
ANOMALY_RETRANSMISSION_STORM = "retransmission-storm"
ANOMALY_DUPLICATE_FLOOD = "duplicate-flood"
ANOMALY_MISSING_RESPONSE = "missing-response"
ANOMALY_ABORTED_RUN = "aborted-run"


@dataclass(frozen=True)
class Anomaly:
    """One suspicious pattern surfaced by the merge."""

    kind: str
    trace_id: str
    run_id: str
    party: str
    detail: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "trace_id": self.trace_id,
                "run_id": self.run_id, "party": self.party,
                "detail": self.detail}


@dataclass
class RunTrace:
    """The merged causal view of one coordination run."""

    trace_id: str
    run_id: str
    proposer: str = ""
    events: "list[dict]" = field(default_factory=list)
    edges: "list[tuple[str, str]]" = field(default_factory=list)
    unresolved_parents: "list[str]" = field(default_factory=list)
    vetoes: "list[dict]" = field(default_factory=list)
    outcomes: "dict[str, str]" = field(default_factory=dict)
    participants: "list[str]" = field(default_factory=list)
    anomalies: "list[Anomaly]" = field(default_factory=list)

    @property
    def settled(self) -> bool:
        return bool(self.outcomes)

    def veto_parties(self) -> "list[str]":
        return sorted({str(v.get("party", "")) for v in self.vetoes})


@dataclass
class MergedTrace:
    """All parties' records in one deterministic total order."""

    events: "list[dict]" = field(default_factory=list)
    runs: "dict[str, RunTrace]" = field(default_factory=dict)
    anomalies: "list[Anomaly]" = field(default_factory=list)

    def run_for(self, run_id: str) -> "RunTrace | None":
        for run in self.runs.values():
            if run.run_id == run_id or run.run_id.startswith(run_id):
                return run
        return None


def _order_key(record: dict) -> tuple:
    """Deterministic total order: Lamport first, party as tie-break.

    The trailing canonical-JSON key makes the order a function of the
    record *set* alone, independent of file order — merging shuffled
    inputs yields byte-identical timelines.
    """
    return (
        int(record.get("lamport", 0)),
        str(record.get("party", "")),
        float(record.get("at", 0.0)),
        str(record.get("name", "")),
        json.dumps(record, sort_keys=True, default=str),
    )


def merge_traces(record_lists: "Iterable[list[dict]]",
                 retransmission_threshold: int = 3,
                 duplicate_threshold: int = 3) -> MergedTrace:
    """Merge per-party record lists into one causal timeline.

    Raises :class:`~repro.obs.trace.TraceFormatError` for a record that
    is no trace record (see :func:`~repro.obs.trace.check_record`).
    """
    timeline: "list[dict]" = []
    transport: "list[dict]" = []
    for records in record_lists:
        for record in records:
            name = check_record(record, "trace record").get("name")
            if name in TIMELINE:
                timeline.append(record)
            elif name in (TRANSPORT_SEND, TRANSPORT_RETRANSMISSION,
                          TRANSPORT_DUPLICATE):
                transport.append(record)
    timeline.sort(key=_order_key)

    merged = MergedTrace(events=timeline)
    for record in timeline:
        trace_id = str(record.get("trace_id", ""))
        if not trace_id:
            continue
        run = merged.runs.get(trace_id)
        if run is None:
            run = RunTrace(trace_id=trace_id,
                           run_id=str(record.get("run_id", "")))
            merged.runs[trace_id] = run
        run.events.append(record)

    for run in merged.runs.values():
        _analyse_run(run)

    _attribute_transport(merged, transport,
                         retransmission_threshold, duplicate_threshold)

    for run in merged.runs.values():
        merged.anomalies.extend(run.anomalies)
    return merged


def merge_trace_files(paths: "Iterable[str]", **kwargs) -> MergedTrace:
    """Merge JSONL trace files exported by each party (or flight-ring
    dumps); :func:`~repro.obs.trace.read_jsonl`'s errors pass through."""
    return merge_traces([read_jsonl(path) for path in paths], **kwargs)


def joined(value) -> str:
    """A record's list field (a decision's diagnostics) as one string."""
    if isinstance(value, list):
        return "; ".join(map(str, value))
    return str(value)


def _analyse_run(run: RunTrace) -> None:
    """Reconstruct the DAG and detect per-run anomalies."""
    span_ids: "set[str]" = set()
    parties: "set[str]" = set()
    m1_recipients: "set[str]" = set()
    m3_senders: "set[str]" = set()
    deciders: "set[str]" = set()
    for record in run.events:
        party = str(record.get("party", ""))
        parties.add(party)
        name = record.get("name")
        if name == MESSAGE:
            span = str(record.get("span_id", ""))
            if span:
                span_ids.add(span)
            parent = str(record.get("parent_span_id", ""))
            if parent:
                run.edges.append((parent, span))
            phase = record.get("phase")
            direction = record.get("direction")
            if phase == PHASE_M1 and direction == SENT:
                run.proposer = run.proposer or party
                m1_recipients.add(str(record.get("peer", "")))
            elif phase == PHASE_M3 and direction == SENT:
                m3_senders.add(party)
        elif name == DECISION:
            deciders.add(party)
            if not record.get("accepted", True):
                run.vetoes.append(record)
        elif name == SETTLED:
            run.outcomes[party] = str(record.get("outcome", ""))
    run.participants = sorted(p for p in parties if p)
    run.unresolved_parents = sorted(
        {parent for parent, _ in run.edges if parent not in span_ids}
    )

    for veto in run.vetoes:
        run.anomalies.append(Anomaly(
            kind=ANOMALY_VETO, trace_id=run.trace_id, run_id=run.run_id,
            party=str(veto.get("party", "")),
            detail=joined(veto.get("diagnostics", "")) or "proposal vetoed",
        ))
    stalled = sorted(p for p in parties if p and p not in run.outcomes)
    if stalled:
        run.anomalies.append(Anomaly(
            kind=ANOMALY_STALLED_RUN, trace_id=run.trace_id,
            run_id=run.run_id, party=", ".join(stalled),
            detail=f"no settlement recorded at {stalled}"
                   + ("" if m3_senders else "; run never reached m3"),
        ))
    unresponsive = sorted(p for p in m1_recipients if p and p not in deciders)
    if unresponsive:
        run.anomalies.append(Anomaly(
            kind=ANOMALY_MISSING_RESPONSE, trace_id=run.trace_id,
            run_id=run.run_id, party=", ".join(unresponsive),
            detail=f"m1 was sent to {unresponsive} but no decision "
                   "of theirs appears in any trace",
        ))
        if run.proposer and run.outcomes.get(run.proposer) == "invalid" \
                and not run.vetoes:
            run.anomalies.append(Anomaly(
                kind=ANOMALY_ABORTED_RUN, trace_id=run.trace_id,
                run_id=run.run_id, party=run.proposer,
                detail="proposer settled invalid without any veto: "
                       "deadline-forced abort over a partial response set",
            ))


def _attribute_transport(merged: MergedTrace, transport: "list[dict]",
                         retransmission_threshold: int,
                         duplicate_threshold: int) -> None:
    """Fold transport noise onto runs via the msg_id -> trace binding."""
    msg_trace: "dict[str, str]" = {}
    noise: "dict[str, dict[str, list[dict]]]" = {
        TRANSPORT_RETRANSMISSION: {}, TRANSPORT_DUPLICATE: {}}
    for record in transport:
        msg_id = str(record.get("msg_id", ""))
        if record.get("name") == TRANSPORT_SEND:
            trace_id = str(record.get("trace_id", ""))
            if msg_id and trace_id:
                msg_trace[msg_id] = trace_id
        else:
            noise[record["name"]].setdefault(msg_id, []).append(record)

    shapes = [
        (TRANSPORT_RETRANSMISSION, ANOMALY_RETRANSMISSION_STORM,
         retransmission_threshold, "retransmissions", "to"),
        (TRANSPORT_DUPLICATE, ANOMALY_DUPLICATE_FLOOD, duplicate_threshold,
         "duplicate deliveries", "from"),
    ]
    for name, kind, threshold, what, direction in shapes:
        for msg_id, records in sorted(noise[name].items()):
            if len(records) < threshold:
                continue
            run = merged.runs.get(msg_trace.get(msg_id, ""))
            anomaly = Anomaly(
                kind=kind,
                trace_id=run.trace_id if run else msg_trace.get(msg_id, ""),
                run_id=run.run_id if run else "",
                party=str(records[0].get("party", "")),
                detail=f"{len(records)} {what} of {msg_id} "
                       f"{direction} {records[0].get('peer', '?')}",
            )
            (run.anomalies if run is not None else merged.anomalies).append(
                anomaly)


def render_timeline(merged: MergedTrace, max_events: "int | None" = None) -> str:
    """Human-readable merged timeline, one run section at a time."""
    lines: "list[str]" = []
    lines.append(f"merged causal timeline: {len(merged.events)} events, "
                 f"{len(merged.runs)} run(s), "
                 f"{len(merged.anomalies)} anomaly(ies)")
    for trace_id in sorted(merged.runs):
        run = merged.runs[trace_id]
        lines.append("")
        lines.append(f"run {run.run_id[:12]} (trace {trace_id[:12]}…)"
                     f" proposer={run.proposer or '?'}"
                     f" participants={run.participants}")
        shown = run.events if max_events is None else run.events[:max_events]
        for record in shown:
            name = record.get("name", "")
            piece = f"  L{record.get('lamport', 0):>4} {record.get('party', ''):<10} {name}"
            if name == MESSAGE:
                piece += (f" {record.get('phase')}/{record.get('direction')}"
                          f" peer={record.get('peer')}")
            elif name == DECISION:
                verdict = "accept" if record.get("accepted") else "VETO"
                piece += f" {verdict}"
                diagnostics = record.get("diagnostics")
                if diagnostics:
                    piece += f" ({joined(diagnostics)})"
            elif name == SETTLED:
                piece += f" {record.get('role')}/{record.get('outcome')}"
            lines.append(piece)
        if max_events is not None and len(run.events) > max_events:
            lines.append(f"  … {len(run.events) - max_events} more event(s)")
        if run.unresolved_parents:
            lines.append(f"  unresolved causal parents: "
                         f"{len(run.unresolved_parents)} (trace files missing?)")
        for anomaly in run.anomalies:
            lines.append(f"  !! {anomaly.kind}: {anomaly.party} — {anomaly.detail}")
    orphan = [a for a in merged.anomalies
              if a.kind in (ANOMALY_RETRANSMISSION_STORM,
                            ANOMALY_DUPLICATE_FLOOD) and not a.run_id]
    for anomaly in orphan:
        lines.append(f"!! {anomaly.kind} (unattributed): {anomaly.party} — "
                     f"{anomaly.detail}")
    return "\n".join(lines)
