"""Cryptographic substrate: hashing, PRNG, RSA signatures, PKI, TSA.

Everything here is the reproduction's own, on the standard library; only
SHA-256 and modular exponentiation run natively, on the OpenSSL that
CPython's ``_hashlib`` links (builtin ``pow`` is the fallback).  The
primitives match the assumptions in section 4.2 of the paper: a
verifiable/unforgeable signature scheme, a one-way collision-resistant
hash, a secure PRNG, and a trusted time-stamping service.
"""

from repro.crypto.certificates import Certificate, CertificateAuthority, CertificateStore
from repro.crypto.hashing import (
    DIGEST_SIZE,
    HASH_ALGORITHM,
    hash_members,
    hash_value,
    secure_hash,
)
from repro.crypto.prng import DeterministicRandomSource, RandomSource, SystemRandomSource
from repro.crypto.rsa import (
    DEFAULT_KEY_BITS,
    RsaPrivateKey,
    RsaPublicKey,
    generate_keypair,
)
from repro.crypto.signature import (
    KeyPair,
    RsaSigner,
    RsaVerifier,
    Signature,
    Signer,
    Verifier,
    generate_party_keypair,
    verifier_for_public_key,
)
from repro.crypto.timestamp import TimestampService, TimestampToken, verify_timestamp

__all__ = [
    "Certificate",
    "CertificateAuthority",
    "CertificateStore",
    "DIGEST_SIZE",
    "HASH_ALGORITHM",
    "hash_members",
    "hash_value",
    "secure_hash",
    "DeterministicRandomSource",
    "RandomSource",
    "SystemRandomSource",
    "DEFAULT_KEY_BITS",
    "RsaPrivateKey",
    "RsaPublicKey",
    "generate_keypair",
    "KeyPair",
    "RsaSigner",
    "RsaVerifier",
    "Signature",
    "Signer",
    "Verifier",
    "generate_party_keypair",
    "verifier_for_public_key",
    "TimestampService",
    "TimestampToken",
    "verify_timestamp",
]
