"""Deadline-based termination with a TTP (section 7 future work).

"The imposition of deadlines requires the involvement of a TTP to
guarantee that all honest parties terminate with the same view of agreed
state.  In effect, a TTP would provide certified abort of a protocol run
unless a complete set of responses were available (in which case the TTP
would provide a certified decision derived from those responses)."

:class:`TerminationTTP` implements exactly that contract: presented with
a run's evidence it independently verifies the signed proposal and
responses and issues a signed *certified resolution* — a decision when
the response set is complete, an abort otherwise.  Honest parties apply
the token via :func:`apply_certified_resolution`; because the token is
deterministic in the evidence, every honest party ends with the same
view.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.hashing import hash_members
from repro.crypto.signature import KeyPair, Verifier, generate_party_keypair
from repro.errors import DisputeError, SignatureError
from repro.obs.hooks import PHASE_M3
from repro.protocol.coordination import (
    ROLE_PROPOSER,
    StateCoordinationEngine,
)
from repro.protocol.events import Output
from repro.protocol.messages import (
    SignedPart,
    VerifierResolver,
    responses_unanimous,
)

RESOLUTION_COMMIT = "commit"
RESOLUTION_ABORT = "abort"


class TerminationTTP:
    """Issues certified resolutions for blocked protocol runs."""

    def __init__(self, name: str = "TerminationTTP",
                 resolver: "VerifierResolver | None" = None,
                 keypair: "KeyPair | None" = None,
                 key_bits: int = 512) -> None:
        self.name = name
        self._resolver = resolver
        self._keypair = keypair or generate_party_keypair(name, bits=key_bits)
        self._signer = self._keypair.signer()
        self.resolutions_issued = 0

    @property
    def verifier(self) -> Verifier:
        return self._keypair.verifier()

    def resolve(self, run_evidence: dict,
                claimed_members: "list[str]") -> SignedPart:
        """Issue a certified resolution for one run.

        *run_evidence* is the proposer's view: the signed proposal, the
        responses received so far, object name and run id.
        *claimed_members* is cross-checked against the membership hash in
        the signed proposal's group identifier, so a requester cannot
        shrink the electorate.
        """
        if self._resolver is None:
            raise DisputeError("TTP has no verifier resolver configured")
        try:
            proposal = SignedPart.from_dict(run_evidence["proposal"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DisputeError(f"malformed run evidence: {exc}") from exc
        proposer = str(proposal.payload.get("proposer", ""))
        self._resolver(proposer).require(
            proposal.payload, proposal.signature, "TTP: proposal"
        )
        gid = proposal.payload.get("gid", {})
        if gid.get("mh") != hash_members(list(claimed_members)):
            raise DisputeError("claimed membership does not match the group identifier")

        expected = {m for m in claimed_members if m != proposer}
        responses: "list[SignedPart]" = []
        for raw in run_evidence.get("responses", []):
            try:
                part = SignedPart.from_dict(raw)
            except (KeyError, TypeError, ValueError):
                continue
            responder = str(part.payload.get("responder", ""))
            try:
                self._resolver(responder).require(
                    part.payload, part.signature, "TTP: response"
                )
            except SignatureError:
                continue  # unverifiable responses carry no weight
            if responder in expected:
                responses.append(part)

        have = {str(p.payload.get("responder", "")) for p in responses}
        if have == expected:
            unanimous, _diags = responses_unanimous(responses)
            resolution = RESOLUTION_COMMIT if unanimous else RESOLUTION_ABORT
            valid = unanimous
        else:
            resolution = RESOLUTION_ABORT
            valid = False

        token_payload = {
            "type": "certified-resolution",
            "ttp": self.name,
            "object": str(run_evidence.get("object", "")),
            "run_id": str(run_evidence.get("run_id", "")),
            "resolution": resolution,
            "valid": valid,
        }
        self.resolutions_issued += 1
        signature = self._signer.sign(token_payload)
        return SignedPart(payload=token_payload, signature=signature,
                          timestamp=None)


def gather_run_evidence(engine: StateCoordinationEngine,
                        run_id: str) -> "Optional[dict]":
    """Extract a proposer's evidence for a blocked run."""
    run = engine.run(run_id)
    if run is None or run.role != ROLE_PROPOSER:
        return None
    if run.outcome is not None:  # settled here: the m3 it sent, if any
        sent = engine._again(run, PHASE_M3)
        return sent and dict(object=engine.object_name, run_id=run.run_id,
                             proposal=sent["proposal"],
                             responses=sent["responses"])
    return {
        "object": engine.object_name,
        "run_id": run.run_id,
        "proposal": run.proposal.to_dict(),
        "responses": [part.to_dict() for part in run.responses.values()],
    }


def apply_certified_resolution(engine: StateCoordinationEngine,
                               token: SignedPart,
                               ttp_verifier: Verifier) -> Output:
    """Apply a TTP resolution token to a local (possibly blocked) run.

    Verifies the token signature, then settles the run: ``commit`` with
    ``valid`` installs the proposed state; ``abort`` invalidates it and
    the proposer rolls back.  Idempotent for settled runs.
    """
    output = Output()
    ttp_verifier.require(token.payload, token.signature, "certified resolution")
    if token.payload.get("type") != "certified-resolution":
        raise DisputeError("not a certified resolution token")
    if token.payload.get("object") != engine.object_name:
        return output
    run = engine.run(str(token.payload.get("run_id", "")))
    if run is None or run.outcome is not None:
        return output
    valid = bool(token.payload.get("valid", False))
    if valid and run.new_state is None:
        valid = False
    diagnostics = [
        f"certified {token.payload.get('resolution')} by {token.payload.get('ttp')}"
    ]
    engine._settle(run, valid, diagnostics, output)
    return output


class DeadlineMonitor:
    """Sweeps nodes for blocked runs and resolves them through a TTP.

    This in-process service plays the role the paper assigns to an
    on-line TTP; in a networked deployment the evidence and token would
    travel as messages, with identical verification at each end.
    """

    def __init__(self, nodes: "list", ttp: TerminationTTP,
                 deadline: float) -> None:
        self.nodes = list(nodes)
        self.ttp = ttp
        self.deadline = deadline
        self.resolved_runs: "list[str]" = []

    def sweep(self) -> int:
        """Resolve every over-deadline state run; returns how many."""
        resolved = 0
        for node in self.nodes:
            for session in node.party.sessions.values():
                engine = session.state
                now = engine.ctx.clock.now()
                for run in engine.runs():
                    if run.outcome is not None or run.role != ROLE_PROPOSER:
                        continue
                    if now - run.last_activity <= self.deadline:
                        continue
                    evidence = gather_run_evidence(engine, run.run_id)
                    if evidence is None:
                        continue
                    token = self.ttp.resolve(
                        evidence, list(engine.group.members)
                    )
                    self._apply_everywhere(engine.object_name, token)
                    self.resolved_runs.append(run.run_id)
                    resolved += 1
        return resolved

    def _apply_everywhere(self, object_name: str, token: SignedPart) -> None:
        for node in self.nodes:
            session = node.party.sessions.get(object_name)
            if session is None or session.detached:
                continue
            output = apply_certified_resolution(
                session.state, token, self.ttp.verifier
            )
            node._process_output(output)
