"""Signature schemes binding evidence to key-holders.

Protocol messages carry ``sig_i(x)`` values — party ``P_i``'s signature on
a canonically encoded value ``x``.  The default scheme is RSA with
PKCS#1 v1.5-style deterministic padding over SHA-256.  An HMAC-based
scheme is provided for benchmarks that isolate protocol cost from
public-key cost (it is *not* non-repudiable, since verification requires
the shared key, and is flagged as such).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro.crypto.hashing import constant_time_equal, hmac_digest, secure_hash
from repro.crypto.numbers import bytes_to_int, int_to_bytes
from repro.crypto.prng import RandomSource
from repro.crypto.rsa import (
    DEFAULT_KEY_BITS,
    RsaPrivateKey,
    RsaPublicKey,
    generate_keypair,
    rsa_sign_int,
    rsa_verify_int,
)
from repro.errors import SignatureError
from repro.obs.hooks import Instrumentation
from repro.util.encoding import as_bytes, canonical_bytes

# DigestInfo prefix for SHA-256 (DER), as in PKCS#1 v1.5 signatures.
_SHA256_DIGEST_INFO = bytes.fromhex("3031300d060960864801650304020105000420")


@dataclass(frozen=True)
class Signature:
    """A signature value tagged with its scheme and the signer's identity.

    The signer identity is advisory routing information; verification
    always resolves the public key independently (via the certificate
    store), so a forged ``signer`` field cannot redirect trust.
    """

    scheme: str
    signer: str
    value: bytes

    def to_dict(self) -> dict:
        return {"scheme": self.scheme, "signer": self.signer, "value": self.value}

    @staticmethod
    def from_dict(data: dict) -> "Signature":
        return Signature(
            scheme=str(data["scheme"]),
            signer=str(data["signer"]),
            value=as_bytes(data["value"]),
        )


class Signer:
    """A party's signing capability."""

    scheme = "abstract"

    def __init__(self, party_id: str) -> None:
        self.party_id = party_id

    def sign_bytes(self, data: bytes) -> Signature:
        raise NotImplementedError

    def sign(self, value: Any) -> Signature:
        """Sign any canonically encodable value."""
        return self.sign_bytes(canonical_bytes(value))


class Verifier:
    """Verification half of a signature scheme."""

    scheme = "abstract"

    def verify_bytes(self, data: bytes, signature: Signature) -> bool:
        raise NotImplementedError

    def verify(self, value: Any, signature: Signature) -> bool:
        return self.verify_bytes(canonical_bytes(value), signature)

    def require(self, value: Any, signature: Signature, context: str = "") -> None:
        """Verify or raise :class:`SignatureError` with diagnostic context."""
        self.require_bytes(canonical_bytes(value), signature, context)

    def require_bytes(self, data: bytes, signature: Signature,
                      context: str = "") -> None:
        """:meth:`require` over bytes the caller has already encoded."""
        if not self.verify_bytes(data, signature):
            where = f" in {context}" if context else ""
            raise SignatureError(
                f"signature by {signature.signer!r} failed verification{where}"
            )


def _pkcs1_encode(digest: bytes, length: int) -> bytes:
    """EMSA-PKCS1-v1_5 encoding of a SHA-256 digest."""
    payload = _SHA256_DIGEST_INFO + digest
    padding_len = length - len(payload) - 3
    if padding_len < 8:
        raise SignatureError("RSA modulus too small for SHA-256 PKCS#1 signature")
    return b"\x00\x01" + b"\xff" * padding_len + b"\x00" + payload


class RsaSigner(Signer):
    """RSA/SHA-256 signer (deterministic, PKCS#1 v1.5 padding)."""

    scheme = "rsa-sha256"

    def __init__(self, party_id: str, private_key: RsaPrivateKey) -> None:
        super().__init__(party_id)
        self._private_key = private_key

    @property
    def public_key(self) -> RsaPublicKey:
        return self._private_key.public_key

    def sign_bytes(self, data: bytes) -> Signature:
        digest = secure_hash(data)
        encoded = _pkcs1_encode(digest, self._private_key.byte_length)
        representative = rsa_sign_int(self._private_key, bytes_to_int(encoded))
        value = int_to_bytes(representative, self._private_key.byte_length)
        return Signature(scheme=self.scheme, signer=self.party_id, value=value)


class RsaVerifier(Verifier):
    """RSA/SHA-256 verifier for a single public key."""

    scheme = "rsa-sha256"

    def __init__(self, public_key: RsaPublicKey) -> None:
        self._public_key = public_key

    def verify_bytes(self, data: bytes, signature: Signature) -> bool:
        if signature.scheme != self.scheme:
            return False
        if len(signature.value) != self._public_key.byte_length:
            return False
        try:
            recovered = rsa_verify_int(self._public_key, bytes_to_int(signature.value))
        except ValueError:
            return False
        expected = _pkcs1_encode(secure_hash(data), self._public_key.byte_length)
        return int_to_bytes(recovered, self._public_key.byte_length) == expected


class HmacSigner(Signer):
    """Shared-key MAC 'signer' for protocol benchmarking only.

    Unlike RSA signatures, a MAC does not provide non-repudiation: any
    holder of the key can produce it.  The scheme name makes this explicit
    so evidence verification can refuse MACs where true signatures are
    required.
    """

    scheme = "hmac-sha256"

    def __init__(self, party_id: str, key: bytes) -> None:
        super().__init__(party_id)
        self._key = key

    def sign_bytes(self, data: bytes) -> Signature:
        return Signature(
            scheme=self.scheme,
            signer=self.party_id,
            value=hmac_digest(self._key, data),
        )


class HmacVerifier(Verifier):
    scheme = "hmac-sha256"

    def __init__(self, key: bytes) -> None:
        self._key = key

    def verify_bytes(self, data: bytes, signature: Signature) -> bool:
        if signature.scheme != self.scheme:
            return False
        return constant_time_equal(signature.value, hmac_digest(self._key, data))


class InstrumentedSigner(Signer):
    """Decorator timing every ``sign_bytes`` call into an instrumentation.

    Wrapping keeps the measurement at the crypto boundary: the protocol
    engines above see an ordinary :class:`Signer`, and the timing covers
    exactly one primitive operation (no double counting when an engine
    signs the same value once but logs it in several places).
    """

    def __init__(self, inner: Signer, obs: Instrumentation) -> None:
        super().__init__(inner.party_id)
        self.scheme = inner.scheme
        self._inner = inner
        self._obs = obs

    def sign_bytes(self, data: bytes) -> Signature:
        if not self._obs.enabled:
            return self._inner.sign_bytes(data)
        started = time.perf_counter()
        signature = self._inner.sign_bytes(data)
        self._obs.sign_timing(
            self.party_id, signature.scheme, len(data),
            time.perf_counter() - started,
        )
        return signature


class InstrumentedVerifier(Verifier):
    """Decorator timing every ``verify_bytes`` call into an instrumentation."""

    def __init__(self, inner: Verifier, obs: Instrumentation) -> None:
        self.scheme = inner.scheme
        self._inner = inner
        self._obs = obs

    def verify_bytes(self, data: bytes, signature: Signature) -> bool:
        if not self._obs.enabled:
            return self._inner.verify_bytes(data, signature)
        started = time.perf_counter()
        ok = self._inner.verify_bytes(data, signature)
        self._obs.verify_timing(
            signature.scheme, len(data), time.perf_counter() - started, ok,
        )
        return ok


@dataclass(frozen=True)
class KeyPair:
    """A party's signing key pair plus ready-made signer/verifier."""

    party_id: str
    private_key: RsaPrivateKey

    @property
    def public_key(self) -> RsaPublicKey:
        return self.private_key.public_key

    def signer(self) -> RsaSigner:
        return RsaSigner(self.party_id, self.private_key)

    def verifier(self) -> RsaVerifier:
        return RsaVerifier(self.public_key)


def generate_party_keypair(party_id: str,
                           bits: int = DEFAULT_KEY_BITS,
                           rng: "RandomSource | None" = None,
                           obs: "Instrumentation | None" = None) -> KeyPair:
    """Generate a named key pair for a party."""
    return KeyPair(party_id=party_id,
                   private_key=generate_keypair(bits, rng, obs=obs))


def verifier_for_public_key(key_dict: dict) -> Verifier:
    """Build a verifier from a serialised public key."""
    return RsaVerifier(RsaPublicKey.from_dict(key_dict))
