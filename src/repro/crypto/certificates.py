"""Certificate management.

Figure 3 of the paper places "certificate management & non-repudiation"
inside the middleware augmentation of each object: it authenticates access
and lets every party verify every other party's signatures.  This module
implements a small X.509-style PKI: a certificate authority signs
``(subject, public-key, validity)`` bindings; a certificate store holds
trusted roots and resolves a verifier for any certified party.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.crypto.rsa import RsaPublicKey
from repro.crypto.signature import (
    KeyPair,
    RsaVerifier,
    Signature,
    Verifier,
    generate_party_keypair,
)
from repro.errors import CertificateError
from repro.util.clocks import Clock, SystemClock
from repro.util.identifiers import validate_party_id


@dataclass(frozen=True)
class Certificate:
    """A signed binding of a party identity to a public key."""

    serial: int
    subject: str
    issuer: str
    public_key: dict
    not_before: float
    not_after: float
    signature: Signature

    def signed_payload(self) -> dict:
        """The portion of the certificate covered by the issuer signature."""
        return {
            "serial": self.serial,
            "subject": self.subject,
            "issuer": self.issuer,
            "public_key": self.public_key,
            "not_before": int(self.not_before * 1000),
            "not_after": int(self.not_after * 1000),
        }

    def to_dict(self) -> dict:
        payload = self.signed_payload()
        payload["signature"] = self.signature.to_dict()
        return payload

    @staticmethod
    def from_dict(data: dict) -> "Certificate":
        return Certificate(
            serial=int(data["serial"]),
            subject=str(data["subject"]),
            issuer=str(data["issuer"]),
            public_key=dict(data["public_key"]),
            not_before=int(data["not_before"]) / 1000.0,
            not_after=int(data["not_after"]) / 1000.0,
            signature=Signature.from_dict(data["signature"]),
        )

    def verifier(self) -> Verifier:
        """Verifier for signatures made by the certified subject."""
        return RsaVerifier(RsaPublicKey.from_dict(self.public_key))


class CertificateAuthority:
    """Issues and revokes certificates for a community of organisations."""

    def __init__(self, name: str, key_bits: int = 512,
                 clock: "Clock | None" = None,
                 keypair: "KeyPair | None" = None) -> None:
        validate_party_id(name)
        self.name = name
        self._clock = clock or SystemClock()
        self._keypair = keypair or generate_party_keypair(name, bits=key_bits)
        self._signer = self._keypair.signer()
        self._next_serial = 1
        self._revoked: "set[int]" = set()

    @property
    def verifier(self) -> Verifier:
        return self._keypair.verifier()

    @property
    def public_key(self) -> dict:
        return self._keypair.public_key.to_dict()

    def issue(self, subject: str, public_key: "dict | Any",
              lifetime: float = 365.0 * 86400.0) -> Certificate:
        """Issue a certificate for *subject*'s public key."""
        validate_party_id(subject)
        if hasattr(public_key, "to_dict"):
            public_key = public_key.to_dict()
        # Quantise to milliseconds so certificates survive serialisation
        # round-trips exactly (the wire form carries integer ms).
        now = int(self._clock.now() * 1000) / 1000.0
        lifetime = int(lifetime * 1000) / 1000.0
        serial = self._next_serial
        self._next_serial += 1
        unsigned = Certificate(
            serial=serial,
            subject=subject,
            issuer=self.name,
            public_key=dict(public_key),
            not_before=now,
            not_after=now + lifetime,
            signature=Signature("pending", self.name, b""),
        )
        signature = self._signer.sign(unsigned.signed_payload())
        return Certificate(
            serial=serial,
            subject=subject,
            issuer=self.name,
            public_key=dict(public_key),
            not_before=now,
            not_after=now + lifetime,
            signature=signature,
        )

    def revoke(self, serial: int) -> None:
        self._revoked.add(serial)

    def is_revoked(self, serial: int) -> bool:
        return serial in self._revoked

    def revocation_list(self) -> "set[int]":
        """A snapshot of revoked serials, distributable to stores."""
        return set(self._revoked)


class CertificateStore:
    """Per-party trust store: trusted roots, known certificates, CRLs."""

    def __init__(self, clock: "Clock | None" = None) -> None:
        self._clock = clock or SystemClock()
        self._roots: "dict[str, Verifier]" = {}
        self._certificates: "dict[str, Certificate]" = {}
        self._revoked: "dict[str, set[int]]" = {}
        # subject -> verifier built from the key the issuer's signature
        # was checked over.  Only that check is remembered: issuer trust,
        # validity window and revocation are re-examined on every lookup.
        self._checked: "dict[str, Verifier]" = {}

    def trust_authority(self, name: str, verifier: Verifier) -> None:
        """Register *verifier* as the trusted root for issuer *name*."""
        validate_party_id(name)
        self._roots[name] = verifier
        for subject, certificate in self._certificates.items():
            if certificate.issuer == name:
                self._checked.pop(subject, None)

    def update_revocations(self, issuer: str, serials: "set[int]") -> None:
        self._revoked.setdefault(issuer, set()).update(serials)

    def add_certificate(self, certificate: Certificate) -> None:
        """Validate and store a certificate for later verifier lookups."""
        self._checked.pop(certificate.subject, None)
        verifier = self._check_signature(certificate)
        self._check_validity(certificate)
        self._certificates[certificate.subject] = certificate
        self._checked[certificate.subject] = verifier

    def check_certificate(self, certificate: Certificate) -> None:
        """Raise :class:`CertificateError` unless the certificate is valid now."""
        self._check_signature(certificate)
        self._check_validity(certificate)

    def _check_signature(self, certificate: Certificate) -> Verifier:
        """Check the issuer's signature; return the subject's verifier.

        The verifier is built *before* the check, from the same key
        dict the check then covers, so a caller mutating that dict
        later cannot change the key signatures are verified under.
        """
        root = self._root_for(certificate)
        verifier = certificate.verifier()
        if not root.verify(certificate.signed_payload(), certificate.signature):
            raise CertificateError(
                f"certificate for {certificate.subject!r} has an invalid issuer signature"
            )
        return verifier

    def _root_for(self, certificate: Certificate) -> Verifier:
        root = self._roots.get(certificate.issuer)
        if root is None:
            raise CertificateError(f"untrusted issuer: {certificate.issuer!r}")
        return root

    def _check_validity(self, certificate: Certificate) -> None:
        now = self._clock.now()
        if now < certificate.not_before:
            raise CertificateError(f"certificate for {certificate.subject!r} not yet valid")
        if now > certificate.not_after:
            raise CertificateError(f"certificate for {certificate.subject!r} has expired")
        if certificate.serial in self._revoked.get(certificate.issuer, set()):
            raise CertificateError(f"certificate for {certificate.subject!r} is revoked")

    def certificate_for(self, party_id: str) -> Certificate:
        certificate = self._certificates.get(party_id)
        if certificate is None:
            raise CertificateError(f"no certificate on file for {party_id!r}")
        return certificate

    def verifier_for(self, party_id: str) -> Verifier:
        """Resolve a (re-validated) verifier for *party_id*'s signatures."""
        certificate = self.certificate_for(party_id)
        verifier = self._checked.get(party_id)
        if verifier is None:
            verifier = self._checked[party_id] = self._check_signature(certificate)
        else:
            self._root_for(certificate)
        self._check_validity(certificate)
        return verifier

    def known_parties(self) -> "list[str]":
        return sorted(self._certificates)
