"""Trusted time-stamping service.

Section 4.2: "Since a signature is only valid if it can be asserted that
the signing key was not compromised at the time of use, all signed
evidence must be time-stamped. ... a trusted time-stamping service, TS,
will provide the following time-stamp as evidence of its generation at
time t:  TS(H(m), t) = sig_TS(H(m), t)."

The service never sees the message itself, only its hash — matching the
privacy expectations of the organisations using it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.crypto.hashing import hash_value
from repro.crypto.signature import KeyPair, Signature, Verifier, generate_party_keypair
from repro.errors import TimestampError
from repro.util.clocks import Clock, SystemClock
from repro.util.encoding import as_bytes, as_int, as_str


@dataclass(frozen=True)
class TimestampToken:
    """``sig_TS(H(m), t)`` — proof that ``m`` existed at time ``t``."""

    service: str
    digest: bytes
    time_ms: int
    signature: Signature

    def signed_payload(self) -> dict:
        return {"service": self.service, "digest": self.digest, "time_ms": self.time_ms}

    def to_dict(self) -> dict:
        payload = self.signed_payload()
        payload["signature"] = self.signature.to_dict()
        return payload

    @staticmethod
    def from_dict(data: dict) -> "TimestampToken":
        return TimestampToken(
            service=as_str(data["service"]),
            digest=as_bytes(data["digest"]),
            time_ms=as_int(data["time_ms"]),
            signature=Signature.from_dict(data["signature"]),
        )


class TimestampService:
    """A trusted third-party time-stamping authority."""

    def __init__(self, name: str = "TSA", clock: "Clock | None" = None,
                 key_bits: int = 512, keypair: "KeyPair | None" = None) -> None:
        self.name = name
        self._clock = clock or SystemClock()
        self._keypair = keypair or generate_party_keypair(name, bits=key_bits)
        self._signer = self._keypair.signer()

    @property
    def verifier(self) -> Verifier:
        return self._keypair.verifier()

    @property
    def public_key(self) -> dict:
        """The service's public key, for offline token verification."""
        return self._keypair.public_key.to_dict()

    def stamp_digest(self, digest: bytes) -> TimestampToken:
        """Issue a token over a precomputed message digest."""
        time_ms = int(self._clock.now() * 1000)
        token = TimestampToken(
            service=self.name,
            digest=digest,
            time_ms=time_ms,
            signature=Signature("pending", self.name, b""),
        )
        signature = self._signer.sign(token.signed_payload())
        return TimestampToken(
            service=self.name, digest=digest, time_ms=time_ms, signature=signature
        )

    def stamp(self, value: Any) -> TimestampToken:
        """Time-stamp any canonically encodable value.

        Pass a :class:`~repro.util.encoding.Fragment` to have the value
        encoded once for this digest and for whoever embeds it next
        (``make_signed`` does, for ``signature.to_dict()``).
        """
        return self.stamp_digest(hash_value(value))


def verify_timestamp(token: TimestampToken, value: Any,
                     verifier: Verifier) -> None:
    """Check a token against the value it allegedly stamps.

    Raises :class:`TimestampError` if the digest does not match *value* or
    the service signature is invalid.  *value* may be a fragment the
    caller has already encoded (``verify_signed`` passes the signature's).
    """
    if token.digest != hash_value(value):
        raise TimestampError("time-stamp digest does not match the stamped value")
    if not verifier.verify(token.signed_payload(), token.signature):
        raise TimestampError(f"time-stamp signature by {token.service!r} is invalid")
