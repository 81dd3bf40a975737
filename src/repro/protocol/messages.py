"""Protocol message formats (sections 4.3 and 4.5).

All protocol messages are dictionaries with a ``msg_type`` discriminator.
Signed content travels as a :class:`SignedPart`: the canonical payload,
the producer's signature over it, and a trusted time-stamp token over the
signature (section 4.2 requires all signed evidence to be time-stamped).

The three state-coordination steps:

``m1 (propose)``  proposal + proposed state/update + sig_prop(proposal)
``m2 (respond)``  receipt + signed decision from each recipient
``m3 (commit)``   the authenticator preimage + every signed response +
                  the signed proposal — the complete evidence bundle.
                  ``m3`` needs no signature: only the proposer can produce
                  the preimage of the commitment sent (signed) in ``m1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.crypto.hashing import hash_value
from repro.crypto.signature import Signature, Signer, Verifier
from repro.crypto.timestamp import TimestampService, TimestampToken, verify_timestamp
from repro.errors import InconsistentMessageError, TimestampError
from repro.protocol.ids import GroupId, StateId
from repro.protocol.validation import Decision
from repro.util.encoding import Fragment, canonical_bytes

# msg_type discriminators ------------------------------------------------

PROPOSE = "propose"
RESPOND = "respond"
COMMIT = "commit"

CONNECT_REQUEST = "connect_request"
CONNECT_PROPOSE = "connect_propose"
CONNECT_RESPOND = "connect_respond"
CONNECT_COMMIT = "connect_commit"
CONNECT_WELCOME = "connect_welcome"
CONNECT_REJECT = "connect_reject"

DISCONNECT_REQUEST = "disconnect_request"
DISCONNECT_PROPOSE = "disconnect_propose"
DISCONNECT_RESPOND = "disconnect_respond"
DISCONNECT_COMMIT = "disconnect_commit"
DISCONNECT_NOTICE = "disconnect_notice"

EVICT_REQUEST = "evict_request"

# Sponsor discovery (section 4.5.3: "any member of P can identify the
# legitimate sponsor for a connection request and provide this
# information to the subject of a request").  Advisory, unsigned.
SPONSOR_QUERY = "sponsor_query"
SPONSOR_INFO = "sponsor_info"

MODE_OVERWRITE = "overwrite"
MODE_UPDATE = "update"
# Batched update mode: the m1 body is an ordered *list* of update values
# applied left-to-right as one state transition.  Everything else about
# the run is unchanged — one state identifier, one signed proposal, one
# signature per phase — so a batch amortises the 3(n-1) message cost and
# the RSA signing cost over every update it carries.
MODE_UPDATE_BATCH = "update_batch"

#: Modes whose m1 body is an update (single or batched) rather than the
#: full new state; these proposals carry ``H(body)`` as ``update_hash``.
UPDATE_MODES = (MODE_UPDATE, MODE_UPDATE_BATCH)

# Cross-party causal tracing (repro.obs.trace).  The context rides as a
# top-level field of the wire message, *outside* every SignedPart, so
# attaching it never perturbs signatures, digests or golden evidence —
# it is diagnostic metadata with no protocol authority.
TRACE_CTX = "trace_ctx"

VerifierResolver = Callable[[str], Verifier]


def attach_trace_context(message: dict, ctx_dict: "dict | None") -> dict:
    """Set (or replace) the unsigned causal context on a wire message."""
    if ctx_dict is not None:
        message[TRACE_CTX] = ctx_dict
    return message


def extract_trace_context(message: dict) -> "Optional[dict]":
    """Read the carried causal context, if any (absent for old peers)."""
    raw = message.get(TRACE_CTX)
    return raw if isinstance(raw, dict) else None


@dataclass(frozen=True)
class SignedPart:
    """A signed, time-stamped protocol payload.

    The part owns the canonical bytes of its payload and of its
    ``to_dict()`` form: produced once, when it is signed or verified,
    and read back by every later use (digest, journal records, evidence
    entries, the m3 bundle).  See PROTOCOL.md, "encode-once rule".
    """

    payload: dict
    signature: Signature
    timestamp: "Optional[TimestampToken]"

    def to_dict(self) -> dict:
        """The part as plain data — one dict per part, built on first
        use and shared by every message and record that carries the
        part (read-only, as the payload inside it always was), so
        :func:`spliced` can tell by identity an entry built from it."""
        wire = self.__dict__.get("_wire")
        if wire is None:
            wire = {
                "payload": self.payload,
                "signature": self.signature.to_dict(),
                "timestamp": self.timestamp.to_dict() if self.timestamp else None,
            }
            object.__setattr__(self, "_wire", wire)
        return wire

    @staticmethod
    def from_dict(data: dict) -> "SignedPart":
        timestamp = data.get("timestamp")
        return SignedPart(
            payload=dict(data["payload"]),
            signature=Signature.from_dict(data["signature"]),
            timestamp=TimestampToken.from_dict(timestamp) if timestamp else None,
        )

    @property
    def signer(self) -> str:
        return self.signature.signer

    def seal(self, payload: "Fragment | None" = None,
             signature: "Fragment | None" = None) -> "tuple[Fragment, ...]":
        """Bind ``(payload, signature, whole)`` fragments to the part's
        fields as they are *now*, dropping anything retained earlier.

        Verification re-seals, so the bytes it checks are the bytes
        later hashed and stored, and a payload dict changed behind the
        part's back fails its signature instead of hiding behind them.
        A caller that has already encoded the first two passes them in.
        """
        if payload is None:
            payload = Fragment(self.payload)
        if signature is None:
            signature = Fragment(self.signature.to_dict())
        whole = Fragment({
            "payload": payload,
            "signature": signature,
            "timestamp": self.timestamp.to_dict() if self.timestamp else None,
        })
        sealed = (payload, signature, whole)
        self.__dict__.pop("_digest_cache", None)
        object.__setattr__(self, "_sealed", sealed)
        return sealed

    def release(self) -> None:
        """Forget the retained encodings (a later use re-encodes);
        engines call this once a run has settled and logged its evidence."""
        self.__dict__.pop("_sealed", None)

    def _sealed_now(self) -> "tuple[Fragment, ...]":
        return self.__dict__.get("_sealed") or self.seal()

    @property
    def encoded(self) -> Fragment:
        """``to_dict()`` as a fragment for records that embed the part."""
        return self._sealed_now()[2]

    def digest(self) -> bytes:
        """Hash of the signed payload; links follow-up messages to it.

        Memoised (the hot path digests one part many times) over the
        sealed payload bytes.  The dataclass is frozen, hence the
        ``object.__setattr__``; racing threads compute the same bytes.
        """
        cached = self.__dict__.get("_digest_cache")
        if cached is None:
            cached = hash_value(self._sealed_now()[0])
            object.__setattr__(self, "_digest_cache", cached)
        return cached


def make_signed(payload: dict, signer: Signer,
                tsa: "TimestampService | None") -> SignedPart:
    """Sign a payload and time-stamp the signature."""
    payload_encoded = Fragment(payload)
    signature = signer.sign_bytes(payload_encoded.data)
    signature_encoded = Fragment(signature.to_dict())
    token = tsa.stamp(signature_encoded) if tsa is not None else None
    part = SignedPart(payload=payload, signature=signature, timestamp=token)
    part.seal(payload_encoded, signature_encoded)
    return part


def verify_signed(part: SignedPart, resolver: VerifierResolver,
                  tsa_verifier: "Verifier | None" = None,
                  expected_signer: "str | None" = None,
                  context: str = "") -> None:
    """Verify a :class:`SignedPart` end to end.

    Checks (1) the claimed signer matches expectations, (2) the signature
    verifies under the *resolved* key for that party (never the key the
    message itself might carry), and (3) the time-stamp token covers the
    signature and verifies under the trusted TSA key.  What is checked
    is one fresh local encoding of the part, which the part then keeps.
    """
    signer = part.signature.signer
    if expected_signer is not None and signer != expected_signer:
        raise InconsistentMessageError(
            f"{context}: signed by {signer!r}, expected {expected_signer!r}"
        )
    verifier = resolver(signer)
    payload, signature, whole = part.seal()
    canonical_bytes(whole)  # one pass encodes payload and signature as well
    verifier.require_bytes(payload.data, part.signature, context or "signed part")
    if part.timestamp is not None:
        if tsa_verifier is None:
            raise TimestampError(f"{context}: no TSA verifier available")
        verify_timestamp(part.timestamp, signature, tsa_verifier)


def spliced(message: dict, **parts: "SignedPart | list[SignedPart] | Fragment") -> dict:
    """Storage form of *message*: a shallow copy whose named entries are
    fragments, so journal and evidence records splice what is already
    encoded.  The wire message stays plain data.  A part stands in only
    if the entry under that key equals its ``to_dict()`` — is that very
    dict, when the message was built from the part, which ``==`` settles
    by identity — so stored bytes never depend on whether splicing
    happened; a bare fragment must be the caller's own encoding of that
    entry.
    """
    stored = dict(message)
    for key, part in parts.items():
        held = message.get(key)
        if isinstance(part, Fragment):
            if key in message:
                stored[key] = part
        elif isinstance(part, list):
            if [item.to_dict() for item in part] == held:
                stored[key] = [item.encoded for item in part]
        elif part.to_dict() == held:
            stored[key] = part.encoded
    return stored


# -------------------------------------------------------------------------
# State coordination payload builders (section 4.3)
# -------------------------------------------------------------------------


def build_proposal(proposer: str, object_name: str, gid: GroupId,
                   agreed_sid: StateId, new_sid: StateId,
                   auth_commitment: bytes, mode: str,
                   update_hash: "bytes | None" = None) -> dict:
    """``prop`` — the signed core of ``m1``.

    Identifies proposer and group, specifies the transition
    ``T_agreed -> T_new`` and carries ``H(auth)``, the proposer's
    commitment to the random authenticator of the group's decision.
    """
    if mode not in (MODE_OVERWRITE,) + UPDATE_MODES:
        raise ValueError(f"unknown proposal mode {mode!r}")
    payload = {
        "type": "state-proposal",
        "proposer": proposer,
        "object": object_name,
        "gid": gid.to_dict(),
        "agreed_sid": agreed_sid.to_dict(),
        "new_sid": new_sid.to_dict(),
        "auth_commitment": auth_commitment,
        "mode": mode,
    }
    if mode in UPDATE_MODES:
        if update_hash is None:
            raise ValueError("update mode requires an update hash")
        payload["update_hash"] = update_hash
    return payload


def build_response(responder: str, object_name: str, proposal_digest: bytes,
                   new_sid: StateId, body_hash: bytes, decision: Decision,
                   gid: GroupId, agreed_sid: StateId,
                   current_sid: StateId) -> dict:
    """``resp_j`` — the signed core of ``m2``.

    Echoes the proposal linkage (its digest and ``T_new``), asserts the
    hash of the body as actually received (``H(S_new)`` or ``H(U_new)``),
    carries the responder's decision, and exposes the responder's own
    ``G_j / T_agreed_j / T_current_j`` views for the systematic
    consistency checks of section 4.2.
    """
    return {
        "type": "state-response",
        "responder": responder,
        "object": object_name,
        "proposal_digest": proposal_digest,
        "new_sid": new_sid.to_dict(),
        "body_hash": body_hash,
        "decision": decision.to_dict(),
        "gid": gid.to_dict(),
        "agreed_sid": agreed_sid.to_dict(),
        "current_sid": current_sid.to_dict(),
    }


def propose_message(proposal: SignedPart, body: Any) -> dict:
    """Wire form of ``m1``: the signed proposal plus the proposed body
    (the full new state in overwrite mode, the update in update mode)."""
    return {"msg_type": PROPOSE, "proposal": proposal.to_dict(), "body": body}


def respond_message(response: SignedPart) -> dict:
    """Wire form of ``m2``."""
    return {"msg_type": RESPOND, "response": response.to_dict()}


def commit_message(object_name: str, new_sid: StateId, auth: bytes,
                   proposal: SignedPart,
                   responses: "list[SignedPart]") -> dict:
    """Wire form of ``m3`` — the complete evidence aggregation.

    Unsigned by design; authenticity follows from ``auth`` being the
    preimage of the commitment inside the signed proposal.
    """
    return {
        "msg_type": COMMIT,
        "object": object_name,
        "new_sid": new_sid.to_dict(),
        "auth": auth,
        "proposal": proposal.to_dict(),
        "responses": [part.to_dict() for part in responses],
    }


# -------------------------------------------------------------------------
# Membership payload builders (section 4.5)
# -------------------------------------------------------------------------


def build_connect_request(subject: str, object_name: str, nonce: bytes,
                          certificate: "dict | None") -> dict:
    """``req`` — P_new's signed connection request, labelled by r_new."""
    return {
        "type": "connect-request",
        "subject": subject,
        "object": object_name,
        "nonce": nonce,
        "certificate": certificate,
    }


def build_membership_proposal(kind: str, sponsor: str, object_name: str,
                              old_gid: GroupId, new_gid: GroupId,
                              new_members: "list[str]",
                              subjects: "list[str]",
                              agreed_sid: StateId,
                              auth_commitment: bytes,
                              request: "SignedPart | None",
                              voluntary: "bool | None" = None,
                              proposer: "str | None" = None) -> dict:
    """The signed core of a connect/disconnect/evict proposal (``m1``)."""
    payload = {
        "type": f"{kind}-proposal",
        "kind": kind,
        "sponsor": sponsor,
        "object": object_name,
        "old_gid": old_gid.to_dict(),
        "new_gid": new_gid.to_dict(),
        "new_members": list(new_members),
        "subjects": list(subjects),
        "agreed_sid": agreed_sid.to_dict(),
        "auth_commitment": auth_commitment,
        "request": request.to_dict() if request is not None else None,
    }
    if voluntary is not None:
        payload["voluntary"] = voluntary
    if proposer is not None:
        payload["proposer"] = proposer
    return payload


def build_membership_response(kind: str, responder: str, object_name: str,
                              proposal_digest: bytes, decision: Decision,
                              gid: GroupId, agreed_sid: StateId,
                              current_sid: StateId) -> dict:
    """The signed core of a membership response (``m2``)."""
    return {
        "type": f"{kind}-response",
        "kind": kind,
        "responder": responder,
        "object": object_name,
        "proposal_digest": proposal_digest,
        "decision": decision.to_dict(),
        "gid": gid.to_dict(),
        "agreed_sid": agreed_sid.to_dict(),
        "current_sid": current_sid.to_dict(),
    }


def build_connect_reject(sponsor: str, object_name: str,
                         request_digest: bytes) -> dict:
    """Signed rejection of a connection request.

    Deliberately carries no information about *why* or *who* — immediate
    sponsor rejection and member veto are indistinguishable to the
    subject (section 4.5.3).
    """
    return {
        "type": "connect-reject",
        "sponsor": sponsor,
        "object": object_name,
        "request_digest": request_digest,
        "result": "rej",
    }


def build_agreed_state_attestation(party: str, object_name: str,
                                   agreed_sid: StateId) -> dict:
    """A member's signed assertion of the current agreed state tuple.

    The welcome message carries one per member so P_new can verify the
    state it receives against every member's signed view (section 4.5.3).
    """
    return {
        "type": "agreed-state-attestation",
        "party": party,
        "object": object_name,
        "agreed_sid": agreed_sid.to_dict(),
    }


def membership_message(msg_type: str, part: SignedPart,
                       extra: "dict | None" = None) -> dict:
    """Generic wire wrapper for a single signed membership part."""
    message = {"msg_type": msg_type, "part": part.to_dict()}
    if extra:
        message.update(extra)
    return message


def membership_commit_message(msg_type: str, kind: str, object_name: str,
                              new_gid: GroupId, auth: bytes,
                              proposal: SignedPart,
                              responses: "list[SignedPart]") -> dict:
    """Wire form of a membership ``m3`` evidence aggregation."""
    return {
        "msg_type": msg_type,
        "kind": kind,
        "object": object_name,
        "new_gid": new_gid.to_dict(),
        "auth": auth,
        "proposal": proposal.to_dict(),
        "responses": [part.to_dict() for part in responses],
    }


def welcome_message(part: SignedPart, agreed_state: Any,
                    commit: dict) -> dict:
    """Wire form of the sponsor's welcome to an admitted member.

    ``part`` signs the membership/gid/agreed-sid description plus the
    member attestations; ``agreed_state`` is the actual state value, and
    ``commit`` the full m3 bundle of the admission run.
    """
    return {
        "msg_type": CONNECT_WELCOME,
        "part": part.to_dict(),
        "agreed_state": agreed_state,
        "commit": commit,
    }


# -------------------------------------------------------------------------
# Decision aggregation
# -------------------------------------------------------------------------


def responses_unanimous(responses: "list[SignedPart]") -> "tuple[bool, list[str]]":
    """Compute the group decision over a set of response parts.

    Returns ``(unanimous_accept, diagnostics)``.  Any reject verdict, or
    any response whose decision cannot be parsed, makes the group decision
    *invalid* — the protocol is fail-safe.
    """
    diagnostics: "list[str]" = []
    unanimous = True
    for part in responses:
        try:
            decision = Decision.from_dict(part.payload["decision"])
        except (KeyError, ValueError, TypeError):
            unanimous = False
            diagnostics.append(f"{part.signer}: malformed decision")
            continue
        if not decision.accepted:
            unanimous = False
            for diag in decision.diagnostics:
                diagnostics.append(f"{part.signer}: {diag}")
            if not decision.diagnostics:
                diagnostics.append(f"{part.signer}: rejected")
    return unanimous, diagnostics


def verify_auth_preimage(auth: bytes, commitment: bytes) -> bool:
    """Check that ``auth`` is the committed authenticator preimage."""
    return hash_value(auth) == commitment
