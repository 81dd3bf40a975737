"""Stand-alone verification of non-repudiation evidence.

An *authenticated decision* (section 4.3) is the durable artefact of a
protocol run:

``AD = (auth, {resp_j, sig_j}_all, prop, sig_prop)``

Any third party holding the participants' certificates can verify the
bundle and compute the group's decision — this is what makes the paper's
guarantees about misrepresentation work: no party can claim a vetoed
state is valid (it cannot produce accepting signed responses) nor that a
unanimously agreed state is invalid (the other parties hold the bundle
proving unanimity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.signature import Verifier
from repro.errors import InconsistentMessageError, SignatureError, TimestampError
from repro.protocol.messages import (
    SignedPart,
    VerifierResolver,
    responses_unanimous,
    verify_auth_preimage,
    verify_signed,
)


@dataclass
class VerifiedDecision:
    """Outcome of independently verifying an authenticated decision."""

    authentic: bool  # all signatures / linkage checks passed
    valid: bool  # the group decision (meaningful only if authentic)
    kind: str
    object_name: str
    proposer: str
    responders: "list[str]" = field(default_factory=list)
    problems: "list[str]" = field(default_factory=list)
    diagnostics: "list[str]" = field(default_factory=list)


def verify_authenticated_decision(bundle: dict, resolver: VerifierResolver,
                                  tsa_verifier: "Verifier | None" = None,
                                  expected_recipients: "set[str] | None" = None
                                  ) -> VerifiedDecision:
    """Verify an evidence bundle with no protocol state.

    Checks: the proposal signature, every response signature, every
    response's linkage to this exact proposal, and the authenticator
    preimage against the commitment in the signed proposal.  When
    *expected_recipients* is given, completeness of the response set is
    checked too (a bundle missing responses cannot demonstrate validity).
    """
    problems: "list[str]" = []
    kind = str(bundle.get("kind", "state"))
    object_name = str(bundle.get("object", ""))

    try:
        proposal = SignedPart.from_dict(bundle["proposal"])
    except (KeyError, TypeError, ValueError):
        return VerifiedDecision(
            authentic=False, valid=False, kind=kind, object_name=object_name,
            proposer="", problems=["malformed or missing proposal"],
        )
    proposer = str(
        proposal.payload.get("proposer") or proposal.payload.get("sponsor") or ""
    )
    try:
        verify_signed(proposal, resolver, tsa_verifier=tsa_verifier,
                      expected_signer=proposer, context="evidence proposal")
    except (SignatureError, InconsistentMessageError, TimestampError) as exc:
        problems.append(f"proposal signature: {exc}")

    responses: "list[SignedPart]" = []
    raw_responses = bundle.get("responses", [])
    if not isinstance(raw_responses, list):
        raw_responses = [raw_responses]  # one malformed response
    for raw in raw_responses:
        try:
            responses.append(SignedPart.from_dict(raw))
        except (KeyError, TypeError, ValueError):
            problems.append("malformed response in bundle")

    expected_digest = proposal.digest()
    responders: "list[str]" = []
    for part in responses:
        responder = str(part.payload.get("responder", ""))
        responders.append(responder)
        try:
            verify_signed(part, resolver, tsa_verifier=tsa_verifier,
                          expected_signer=responder,
                          context=f"evidence response by {responder}")
        except (SignatureError, InconsistentMessageError, TimestampError) as exc:
            problems.append(f"response signature ({responder}): {exc}")
        if part.payload.get("proposal_digest") != expected_digest:
            problems.append(f"response by {responder} references a different proposal")

    auth = bundle.get("auth", b"")
    commitment = proposal.payload.get("auth_commitment")
    claimed_valid = bool(bundle.get("valid", False))
    # The authenticator only exists once the proposer has issued m3.  A
    # bundle recording an *invalid* local outcome (e.g. an aborted run)
    # may legitimately lack it; a bundle asserting validity may not.
    if claimed_valid or auth:
        if not verify_auth_preimage(auth, commitment):
            problems.append("authenticator preimage does not match commitment")

    unanimous, diagnostics = responses_unanimous(responses)
    if expected_recipients is not None:
        missing = expected_recipients - set(responders)
        extra = set(responders) - expected_recipients
        if missing:
            problems.append(f"missing responses from {sorted(missing)}")
            unanimous = False
        if extra:
            problems.append(f"unexpected responses from {sorted(extra)}")

    authentic = not problems
    return VerifiedDecision(
        authentic=authentic,
        valid=authentic and unanimous,
        kind=kind,
        object_name=object_name,
        proposer=proposer,
        responders=responders,
        problems=problems,
        diagnostics=diagnostics,
    )


def find_equivocation(parts: "list[SignedPart]") -> "Optional[tuple[str, dict, dict]]":
    """Detect two different signed statements by one party for one subject.

    Given signed responses collected from multiple sources, returns
    ``(party, payload_a, payload_b)`` for the first party found to have
    signed two conflicting responses to the same proposal digest — an
    irrefutable equivocation proof.
    """
    seen: "dict[tuple[str, bytes], dict]" = {}
    for part in parts:
        responder = str(part.payload.get("responder", ""))
        digest = part.payload.get("proposal_digest", b"")
        if type(digest) is not bytes:
            continue  # links to no proposal
        key = (responder, digest)
        previous = seen.get(key)
        if previous is not None and previous != part.payload:
            return responder, previous, part.payload
        seen[key] = part.payload
    return None
