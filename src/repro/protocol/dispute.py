"""Extra-protocol dispute resolution.

The protocol "is designed to generate the evidence necessary for
application-level resolution of the resultant blocking" (section 4.1) and
"this must be resolved at the application level by, for example, using the
evidence generated to invoke a dispute resolution procedure" (section 4.4).

:class:`Arbiter` models that procedure: a third party that accepts each
disputant's evidence log, checks the logs' own integrity, independently
re-verifies authenticated-decision bundles, and rules on claims such as
"state X was validly agreed" or "party Y misbehaved".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from repro.crypto.signature import Verifier
from repro.errors import DisputeError, LogCorruptionError, StorageError
from repro.obs.hooks import NULL_INSTRUMENTATION, Instrumentation
from repro.protocol.evidence import (
    VerifiedDecision,
    find_equivocation,
    verify_authenticated_decision,
)
from repro.protocol.messages import SignedPart, VerifierResolver
from repro.storage.log import NonRepudiationLog

RULING_UPHELD = "upheld"
RULING_REJECTED = "rejected"
RULING_UNDECIDABLE = "undecidable"


@dataclass
class Ruling:
    """An arbiter's decision on one claim."""

    claim: str
    outcome: str
    reasons: "list[str]" = field(default_factory=list)
    culprits: "list[str]" = field(default_factory=list)

    @property
    def upheld(self) -> bool:
        return self.outcome == RULING_UPHELD


@dataclass
class SubmittedEvidence:
    """One disputant's submission: their identity and evidence log."""

    party_id: str
    log: NonRepudiationLog
    log_intact: bool = True
    log_error: str = ""


class Arbiter:
    """Trusted third party ruling from non-repudiation evidence."""

    def __init__(self, resolver: VerifierResolver,
                 tsa_verifier: "Verifier | None" = None,
                 obs: "Instrumentation | None" = None) -> None:
        self._resolver = resolver
        self._tsa_verifier = tsa_verifier
        self._obs = obs if obs is not None else NULL_INSTRUMENTATION
        self._submissions: "dict[str, SubmittedEvidence]" = {}

    def submit(self, party_id: str, log: NonRepudiationLog) -> SubmittedEvidence:
        """Accept a party's evidence log, checking its hash chain first.

        A party presenting a tampered log is recorded as such; its
        evidence carries no weight in subsequent rulings.
        """
        submission = SubmittedEvidence(party_id=party_id, log=log)
        try:
            log.verify_chain()
        except (LogCorruptionError, StorageError) as exc:
            submission.log_intact = False
            submission.log_error = str(exc)
        self._submissions[party_id] = submission
        if self._obs.enabled:
            self._obs.evidence_submitted(party_id, submission.log_intact)
        return submission

    def _intact_submissions(self) -> "list[SubmittedEvidence]":
        return [s for s in self._submissions.values() if s.log_intact]

    # ------------------------------------------------------------------
    # rulings
    # ------------------------------------------------------------------

    def _timed_ruling(self, kind: str, started: float, ruling: Ruling) -> Ruling:
        if self._obs.enabled:
            self._obs.claim_checked(kind, ruling.outcome, ruling.culprits,
                                    time.perf_counter() - started)
        return ruling

    def rule_on_state_validity(self, object_name: str, run_id: str,
                               claimant: str) -> Ruling:
        started = time.perf_counter()
        return self._timed_ruling(
            "state-validity", started,
            self._rule_on_state_validity(object_name, run_id, claimant),
        )

    def _rule_on_state_validity(self, object_name: str, run_id: str,
                                claimant: str) -> Ruling:
        """Rule on the claim "run *run_id* validly agreed a new state".

        The claim is upheld iff the claimant's (intact) log contains an
        authenticated-decision bundle for the run that independently
        verifies as authentic and unanimous.  A misbehaving party cannot
        fabricate such a bundle (it cannot forge accepting responses) and
        cannot deny one held by others.
        """
        claim = f"state of {object_name!r} validly agreed in run {run_id[:12]}"
        submission = self._submissions.get(claimant)
        if submission is None:
            raise DisputeError(f"no evidence submitted by {claimant!r}")
        if not submission.log_intact:
            return Ruling(claim, RULING_REJECTED,
                          [f"claimant's evidence log is corrupt: {submission.log_error}"],
                          culprits=[claimant])
        bundle_entry = submission.log.find(
            "authenticated-decision", run_id=run_id, object=object_name
        )
        if bundle_entry is None:
            return Ruling(claim, RULING_UNDECIDABLE,
                          ["claimant holds no decision bundle for this run"])
        verdict = self._verify_bundle(bundle_entry.payload)
        if not verdict.authentic:
            return Ruling(claim, RULING_REJECTED,
                          ["bundle fails verification"] + verdict.problems,
                          culprits=[claimant])
        if not verdict.valid:
            return Ruling(claim, RULING_REJECTED,
                          ["bundle shows the proposal was not unanimously accepted"]
                          + verdict.diagnostics)
        return Ruling(claim, RULING_UPHELD,
                      [f"unanimous agreement by {sorted(verdict.responders)} "
                       f"proposed by {verdict.proposer}"])

    def rule_on_misbehaviour(self, accused: str) -> Ruling:
        started = time.perf_counter()
        return self._timed_ruling(
            "misbehaviour", started, self._rule_on_misbehaviour(accused)
        )

    def _rule_on_misbehaviour(self, accused: str) -> Ruling:
        """Rule on the claim "party *accused* misbehaved".

        Upheld when any intact submission contains either (a) a recorded
        misbehaviour entry whose embedded evidence self-verifies (an
        invalid signature cannot be checked after the fact, but
        equivocation can), or (b) two conflicting signed responses by the
        accused, found across all submissions.
        """
        claim = f"party {accused!r} misbehaved"
        reasons: "list[str]" = []
        # Cross-log equivocation scan: collect every signed response by
        # the accused from every intact log.
        parts: "list[SignedPart]" = []
        for submission in self._intact_submissions():
            for kind in ("response-received", "connect-response-received",
                         "disconnect-response-received", "evict-response-received"):
                for entry in submission.log.entries(kind):
                    try:
                        part = SignedPart.from_dict(
                            entry.payload.get("response"))
                    except (KeyError, TypeError, ValueError):
                        continue
                    if part.signer != accused:
                        continue
                    try:
                        self._resolver(accused).require(
                            part.payload, part.signature, "dispute evidence"
                        )
                    except Exception:  # noqa: BLE001 - unverifiable: no weight
                        continue
                    parts.append(part)
        conflict = find_equivocation(parts)
        if conflict is not None:
            reasons.append(
                "two conflicting signed responses to one proposal were presented"
            )
            return Ruling(claim, RULING_UPHELD, reasons, culprits=[accused])
        # Recorded misbehaviour entries are testimonial: they support but
        # do not by themselves prove the claim (any party can write them).
        witnesses = []
        for submission in self._intact_submissions():
            if submission.log.find("misbehaviour", party=accused) is not None:
                witnesses.append(submission.party_id)
        if witnesses:
            return Ruling(
                claim, RULING_UNDECIDABLE,
                [f"testimony from {sorted(witnesses)} but no self-verifying proof"],
            )
        return Ruling(claim, RULING_REJECTED, ["no supporting evidence"])

    def rule_on_participation(self, object_name: str, run_id: str,
                              participant: str) -> Ruling:
        started = time.perf_counter()
        return self._timed_ruling(
            "participation", started,
            self._rule_on_participation(object_name, run_id, participant),
        )

    def _rule_on_participation(self, object_name: str, run_id: str,
                               participant: str) -> Ruling:
        """Rule on "party *participant* took part in run *run_id*".

        Upheld when any intact log holds a message signed by the
        participant that is linked to the run — the paper's guarantee that
        irrefutable evidence of who participated is generated.
        """
        claim = f"{participant!r} participated in run {run_id[:12]}"
        for submission in self._intact_submissions():
            bundle_entry = submission.log.find(
                "authenticated-decision", run_id=run_id, object=object_name
            )
            if bundle_entry is None:
                continue
            verdict = self._verify_bundle(bundle_entry.payload)
            if not verdict.authentic:
                continue
            if participant == verdict.proposer or participant in verdict.responders:
                return Ruling(claim, RULING_UPHELD,
                              [f"signed message in bundle held by {submission.party_id}"])
        return Ruling(claim, RULING_UNDECIDABLE, ["no verifiable linkage found"])

    def _verify_bundle(self, bundle: dict) -> VerifiedDecision:
        return verify_authenticated_decision(
            bundle, self._resolver, tsa_verifier=self._tsa_verifier
        )
