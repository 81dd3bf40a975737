"""Evidence forensics: who proposed, who vetoed, what the evidence proves.

``repro audit`` combines the two artefact streams one coordination run
leaves behind:

* the *evidence* — per-party hash-chained non-repudiation logs holding
  signed proposals, signed responses and authenticated-decision bundles,
  independently re-verifiable by any third party;
* the *traces* — per-party trace records (or flight-ring dumps) ordered
  by Lamport clock, merged into one timeline by :mod:`repro.obs.merge`.

The evidence is what convicts (signatures cannot be forged); the merged
timeline is what explains (when the veto happened relative to everything
else).  The audit re-verifies every bundle through the existing
:class:`~repro.protocol.dispute.Arbiter` machinery and cross-references
each ruling with the merged trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.signature import Verifier
from repro.errors import LogCorruptionError, StorageError
from repro.obs.hooks import NULL_INSTRUMENTATION, Instrumentation
from repro.obs.merge import DECISION, MergedTrace, joined
from repro.protocol.dispute import Arbiter, Ruling
from repro.protocol.evidence import (
    bundle_responses,
    verify_authenticated_decision,
)
from repro.protocol.messages import SignedPart, VerifierResolver
from repro.protocol.validation import Decision
from repro.storage.log import NonRepudiationLog


@dataclass
class SubmissionStatus:
    """Integrity verdict on one party's submitted evidence log."""

    party_id: str
    intact: bool
    entries: int = 0
    error: str = ""


@dataclass
class RunFinding:
    """Everything the audit established about one coordination run."""

    object_name: str
    run_id: str
    proposer: str = ""
    responders: "list[str]" = field(default_factory=list)
    held_by: "list[str]" = field(default_factory=list)
    authentic: bool = False
    valid: bool = False
    vetoes: "dict[str, list[str]]" = field(default_factory=dict)
    problems: "list[str]" = field(default_factory=list)
    culprits: "list[str]" = field(default_factory=list)
    exonerated: "list[str]" = field(default_factory=list)
    verdict: str = ""
    trace_notes: "list[str]" = field(default_factory=list)


@dataclass
class AuditReport:
    """The full output of one audit pass."""

    submissions: "list[SubmissionStatus]" = field(default_factory=list)
    runs: "list[RunFinding]" = field(default_factory=list)
    rulings: "list[Ruling]" = field(default_factory=list)
    anomalies: "list[dict]" = field(default_factory=list)

    def culprits(self) -> "list[str]":
        names: "set[str]" = set()
        for finding in self.runs:
            names.update(finding.culprits)
        for status in self.submissions:
            if not status.intact:
                names.add(status.party_id)
        return sorted(names)

    def render(self) -> str:
        return render_report(self)


class CorruptEvidenceLog(NonRepudiationLog):
    """Stand-in for an evidence log whose store failed chain replay.

    :class:`NonRepudiationLog` refuses to even construct over a broken
    chain; an auditor still needs to *submit* that log so the corruption
    becomes a recorded finding against its owner.  This shim satisfies
    the arbiter's interface and fails ``verify_chain`` with the original
    error.
    """

    def __init__(self, owner: str, error: str) -> None:
        super().__init__(owner)  # empty in-memory store
        self._error = error

    def verify_chain(self) -> int:
        raise LogCorruptionError(self._error)


def load_evidence_log(party_id: str, path: str) -> NonRepudiationLog:
    """Open one party's file-backed evidence log, tolerating corruption."""
    from repro.storage.backends import FileRecordStore

    store = FileRecordStore(path, fsync=False)
    try:
        return NonRepudiationLog(party_id, store)
    except (LogCorruptionError, StorageError) as exc:
        store.close()
        return CorruptEvidenceLog(party_id, f"{path}: {exc}")


def _decision_of(part: SignedPart) -> "Decision | None":
    try:
        return Decision.from_dict(part.payload["decision"])
    except (KeyError, TypeError, ValueError):
        return None


# Diagnostics produced by the systematic checks when two honest parties
# simply race: proposing against a busy or stale replica is contention,
# not misbehaviour, and must not convict the proposer.
_CONTENTION_PREFIXES = ("busy:", "invariant-1:", "invariant-3:")


def _is_contention(diagnostics: "list[str]") -> bool:
    return bool(diagnostics) and all(
        any(d.startswith(p) for p in _CONTENTION_PREFIXES)
        or d == "null state transition"
        for d in diagnostics
    )


def audit_evidence(logs: "dict[str, NonRepudiationLog]",
                   resolver: VerifierResolver,
                   tsa_verifier: "Verifier | None" = None,
                   merged: "MergedTrace | None" = None,
                   obs: "Instrumentation | None" = None) -> AuditReport:
    """Re-verify submitted evidence and build the misbehaviour report.

    *logs* maps party id to that party's evidence log.  A corrupt log is
    itself a finding (the party tampered with its own history); its
    contents carry no weight.  When *merged* is given, every run finding
    is cross-referenced against the merged causal timeline.
    """
    obs = obs if obs is not None else NULL_INSTRUMENTATION
    report = AuditReport()
    arbiter = Arbiter(resolver, tsa_verifier=tsa_verifier, obs=obs)

    intact: "dict[str, NonRepudiationLog]" = {}
    for party_id in sorted(logs):
        submission = arbiter.submit(party_id, logs[party_id])
        status = SubmissionStatus(
            party_id=party_id, intact=submission.log_intact,
            error=submission.log_error,
        )
        if submission.log_intact:
            status.entries = len(logs[party_id])
            intact[party_id] = logs[party_id]
        report.submissions.append(status)

    # Gather every authenticated-decision bundle across intact logs,
    # keyed by run id; remember who holds each.
    bundles: "dict[str, dict]" = {}
    holders: "dict[str, list[str]]" = {}
    for party_id, log in intact.items():
        for entry in log.entries("authenticated-decision"):
            run_id = str(entry.payload.get("run_id", ""))
            if not run_id:
                continue
            holders.setdefault(run_id, []).append(party_id)
            existing = bundles.get(run_id)
            # Prefer the bundle with the most responses: the proposer's
            # copy is complete even when a responder's run was aborted.
            if existing is None or len(bundle_responses(entry.payload)) \
                    > len(bundle_responses(existing)):
                bundles[run_id] = entry.payload

    for run_id in sorted(bundles):
        bundle = bundles[run_id]
        finding = _examine_run(run_id, bundle, holders[run_id],
                               resolver, tsa_verifier)
        _cross_reference(finding, merged)
        report.runs.append(finding)

        # Formal rulings through the arbiter (also feeds instrumentation).
        claimant = holders[run_id][0]
        report.rulings.append(arbiter.rule_on_state_validity(
            finding.object_name, run_id, claimant))
        for culprit in finding.culprits:
            report.rulings.append(arbiter.rule_on_misbehaviour(culprit))
            report.rulings.append(arbiter.rule_on_participation(
                finding.object_name, run_id, culprit))

    if merged is not None:
        report.anomalies = [a.to_dict() for a in merged.anomalies]
    return report


def _examine_run(run_id: str, bundle: dict, held_by: "list[str]",
                 resolver: VerifierResolver,
                 tsa_verifier: "Verifier | None") -> RunFinding:
    verdict = verify_authenticated_decision(
        bundle, resolver, tsa_verifier=tsa_verifier
    )
    finding = RunFinding(
        object_name=verdict.object_name,
        run_id=run_id,
        proposer=verdict.proposer,
        responders=sorted(verdict.responders),
        held_by=sorted(set(held_by)),
        authentic=verdict.authentic,
        valid=verdict.valid,
        problems=list(verdict.problems),
    )
    for raw in bundle_responses(bundle):
        try:
            part = SignedPart.from_dict(raw)
        except (KeyError, TypeError, ValueError):
            continue
        decision = _decision_of(part)
        if decision is not None and not decision.accepted:
            finding.vetoes[part.signer] = list(decision.diagnostics)

    if not finding.authentic:
        # A bundle that does not verify convicts whoever presents it as
        # proof: signatures cannot be checked out of thin air, so the
        # holder is either the forger or is relaying a forgery.
        finding.culprits = finding.held_by
        finding.verdict = ("bundle fails independent verification: "
                           + "; ".join(finding.problems))
    elif finding.valid:
        finding.verdict = (
            f"state validly agreed: unanimous acceptance by "
            f"{finding.responders}, proposed by {finding.proposer}"
        )
        finding.exonerated = sorted(
            set(finding.responders) | {finding.proposer}
        )
    elif finding.vetoes:
        vetoers = sorted(finding.vetoes)
        reasons = "; ".join(
            f"{who}: {', '.join(diags) or 'rejected'}"
            for who, diags in sorted(finding.vetoes.items())
        )
        if all(_is_contention(diags) for diags in finding.vetoes.values()):
            # Every veto stems from the systematic concurrency/staleness
            # checks — two honest proposers raced; nobody cheated.
            finding.exonerated = sorted(
                set(finding.responders) | {finding.proposer}
            )
            finding.verdict = (
                f"proposal by {finding.proposer} rejected by the "
                f"systematic checks ({reasons}) — benign contention, "
                "no misbehaviour established"
            )
        else:
            # Authentic bundle, not unanimous, with at least one
            # application-level veto: the proposer provably proposed a
            # state its peers rejected, and is bound to that proposal by
            # its own signature.  The vetoing responders acted correctly.
            finding.culprits = [finding.proposer]
            finding.exonerated = sorted(set(finding.responders))
            finding.verdict = (
                f"{finding.proposer} proposed a state transition vetoed by "
                f"{vetoers} — signed vetoes prove the proposal was invalid "
                f"({reasons})"
            )
    else:
        finding.verdict = ("run did not reach agreement (incomplete "
                           "response set); no signed veto exists")
        finding.exonerated = sorted(set(finding.responders))
    return finding


def _cross_reference(finding: RunFinding, merged: "MergedTrace | None") -> None:
    """Annotate an evidence finding with the merged causal timeline."""
    if merged is None:
        return
    run = merged.run_for(finding.run_id)
    if run is None:
        finding.trace_notes.append("no trace records for this run")
        return
    finding.trace_notes.append(
        f"trace {run.trace_id[:12]}…: {len(run.events)} causal events "
        f"across {run.participants}"
    )
    vetoes = [record for record in run.events
              if record.get("name") == DECISION
              and not record.get("accepted", True)]
    for record in vetoes:
        finding.trace_notes.append(
            f"L{record.get('lamport')}: {record.get('party')} vetoed "
            f"({joined(record.get('diagnostics', ''))})"
        )
    for party, outcome in sorted(run.outcomes.items()):
        finding.trace_notes.append(
            f"settled {outcome} at {party}"
        )
    traced_vetoers = {str(record.get("party", "")) for record in vetoes}
    evidence_vetoers = set(finding.vetoes)
    if traced_vetoers and evidence_vetoers \
            and traced_vetoers != evidence_vetoers:
        finding.trace_notes.append(
            f"MISMATCH: trace vetoes {sorted(traced_vetoers)} != "
            f"evidence vetoes {sorted(evidence_vetoers)}"
        )
    for anomaly in run.anomalies:
        finding.trace_notes.append(
            f"anomaly {anomaly.kind}: {anomaly.party} — {anomaly.detail}"
        )


def render_report(report: AuditReport) -> str:
    """The human-readable forensic report printed by ``repro audit``."""
    lines: "list[str]" = []
    lines.append("=== evidence audit ===")
    lines.append("")
    lines.append("submissions:")
    for status in report.submissions:
        if status.intact:
            lines.append(f"  {status.party_id}: log intact "
                         f"({status.entries} entries)")
        else:
            lines.append(f"  {status.party_id}: LOG CORRUPT — {status.error}")

    for finding in report.runs:
        lines.append("")
        lines.append(f"run {finding.run_id[:12]} on {finding.object_name!r}:")
        lines.append(f"  proposer:   {finding.proposer or '?'}")
        lines.append(f"  responders: {finding.responders}")
        lines.append(f"  bundle:     held by {finding.held_by}, "
                     f"authentic={finding.authentic} valid={finding.valid}")
        for who, diags in sorted(finding.vetoes.items()):
            lines.append(f"  veto:       {who}: {', '.join(diags) or 'rejected'}")
        lines.append(f"  verdict:    {finding.verdict}")
        if finding.culprits:
            lines.append(f"  culprits:   {finding.culprits}")
        if finding.exonerated:
            lines.append(f"  exonerated: {finding.exonerated}")
        for note in finding.trace_notes:
            lines.append(f"  trace:      {note}")

    if report.rulings:
        lines.append("")
        lines.append("arbiter rulings:")
        for ruling in report.rulings:
            lines.append(f"  [{ruling.outcome}] {ruling.claim}")
            for reason in ruling.reasons:
                lines.append(f"      - {reason}")
            if ruling.culprits:
                lines.append(f"      culprits: {ruling.culprits}")

    if report.anomalies:
        lines.append("")
        lines.append("trace anomalies:")
        for anomaly in report.anomalies:
            lines.append(f"  !! {anomaly.get('kind')}: {anomaly.get('party')}"
                         f" — {anomaly.get('detail')}")

    culprits = report.culprits()
    lines.append("")
    if culprits:
        lines.append(f"MISBEHAVING PARTIES: {culprits}")
    else:
        lines.append("no misbehaviour established")
    return "\n".join(lines)
