"""The RSA signature scheme, certificates, and time-stamps."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.certificates import Certificate, CertificateAuthority, CertificateStore
from repro.crypto.prng import DeterministicRandomSource
from repro.crypto.rsa import RsaPublicKey, generate_keypair, rsa_sign_int, rsa_verify_int
from repro.crypto.signature import (
    Signature,
    generate_party_keypair,
    verifier_for_public_key,
)
from repro.crypto.timestamp import TimestampService, verify_timestamp
from repro.errors import CertificateError, KeyGenerationError, SignatureError, TimestampError
from repro.util.clocks import VirtualClock

RNG = DeterministicRandomSource("signature-tests")
KEYPAIR = generate_party_keypair("Alice", bits=512, rng=RNG)
OTHER = generate_party_keypair("Bob", bits=512, rng=RNG)


class TestRsaRaw:
    def test_sign_verify_round_trip(self):
        key = KEYPAIR.private_key
        message = 12345678901234567890
        assert rsa_verify_int(key.public_key, rsa_sign_int(key, message)) == message

    def test_out_of_range_rejected(self):
        key = KEYPAIR.private_key
        with pytest.raises(ValueError):
            rsa_sign_int(key, key.modulus)

    def test_keypair_modulus_bits(self):
        assert KEYPAIR.private_key.modulus.bit_length() == 512

    def test_crt_parameters_precomputed_at_construction(self):
        # Signing is the per-message hot path: dp/dq/q_inv must be
        # derived once, not per _crt_power call, and must be consistent.
        from repro.crypto.numbers import mod_inverse

        key = KEYPAIR.private_key
        assert key.crt_dp == key.private_exponent % (key.prime_p - 1)
        assert key.crt_dq == key.private_exponent % (key.prime_q - 1)
        assert key.crt_q_inv == mod_inverse(key.prime_q, key.prime_p)
        message = 98765432109876543210
        assert pow(rsa_sign_int(key, message), key.public_exponent,
                   key.modulus) == message

    def test_keygen_rejects_tiny_modulus(self):
        with pytest.raises(KeyGenerationError):
            generate_keypair(64, RNG)

    def test_keygen_rejects_even_exponent(self):
        with pytest.raises(KeyGenerationError):
            generate_keypair(256, RNG, public_exponent=4)

    def test_public_key_serialisation(self):
        public = KEYPAIR.public_key
        assert RsaPublicKey.from_dict(public.to_dict()) == public

    def test_public_key_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            RsaPublicKey.from_dict({"kind": "dsa", "n": 1, "e": 1})


class TestRsaSignatures:
    def test_round_trip(self):
        signer, verifier = KEYPAIR.signer(), KEYPAIR.verifier()
        value = {"action": "propose", "seq": 7, "blob": b"\x01\x02"}
        assert verifier.verify(value, signer.sign(value))

    def test_modified_value_fails(self):
        signer, verifier = KEYPAIR.signer(), KEYPAIR.verifier()
        sig = signer.sign({"x": 1})
        assert not verifier.verify({"x": 2}, sig)

    def test_wrong_key_fails(self):
        sig = KEYPAIR.signer().sign({"x": 1})
        assert not OTHER.verifier().verify({"x": 1}, sig)

    def test_tampered_signature_bytes_fail(self):
        signer, verifier = KEYPAIR.signer(), KEYPAIR.verifier()
        sig = signer.sign({"x": 1})
        bad = Signature(sig.scheme, sig.signer,
                        bytes([sig.value[0] ^ 1]) + sig.value[1:])
        assert not verifier.verify({"x": 1}, bad)

    def test_wrong_length_signature_fails(self):
        verifier = KEYPAIR.verifier()
        assert not verifier.verify({"x": 1},
                                   Signature("rsa-sha256", "Alice", b"short"))

    def test_wrong_scheme_fails(self):
        verifier = KEYPAIR.verifier()
        sig = KEYPAIR.signer().sign({"x": 1})
        assert not verifier.verify(
            {"x": 1}, Signature("hmac-sha256", sig.signer, sig.value)
        )

    def test_signatures_are_deterministic(self):
        signer = KEYPAIR.signer()
        assert signer.sign({"x": 1}).value == signer.sign({"x": 1}).value

    def test_require_raises_with_context(self):
        verifier = KEYPAIR.verifier()
        sig = KEYPAIR.signer().sign({"x": 1})
        with pytest.raises(SignatureError, match="proposal"):
            verifier.require({"x": 2}, sig, "proposal")

    def test_signature_serialisation(self):
        sig = KEYPAIR.signer().sign({"x": 1})
        assert Signature.from_dict(sig.to_dict()) == sig

    def test_verifier_from_serialised_key(self):
        sig = KEYPAIR.signer().sign({"x": 1})
        verifier = verifier_for_public_key(KEYPAIR.public_key.to_dict())
        assert verifier.verify({"x": 1}, sig)

    @settings(max_examples=25, deadline=None)
    @given(st.dictionaries(st.text(min_size=1, max_size=8),
                           st.integers(min_value=0, max_value=2**32),
                           max_size=4))
    def test_round_trip_property(self, value):
        assert KEYPAIR.verifier().verify(value, KEYPAIR.signer().sign(value))


class TestCertificates:
    def _authority(self, clock=None):
        return CertificateAuthority(
            "RootCA", clock=clock,
            keypair=generate_party_keypair("RootCA", bits=512, rng=RNG),
        )

    def test_issue_and_verify(self):
        ca = self._authority()
        cert = ca.issue("Alice", KEYPAIR.public_key)
        store = CertificateStore()
        store.trust_authority("RootCA", ca.verifier)
        store.add_certificate(cert)
        sig = KEYPAIR.signer().sign({"m": 1})
        assert store.verifier_for("Alice").verify({"m": 1}, sig)

    def test_untrusted_issuer_rejected(self):
        ca = self._authority()
        cert = ca.issue("Alice", KEYPAIR.public_key)
        store = CertificateStore()
        with pytest.raises(CertificateError, match="untrusted"):
            store.add_certificate(cert)

    def test_forged_certificate_rejected(self):
        ca = self._authority()
        cert = ca.issue("Alice", KEYPAIR.public_key)
        forged = Certificate(
            serial=cert.serial, subject="Mallory", issuer=cert.issuer,
            public_key=cert.public_key, not_before=cert.not_before,
            not_after=cert.not_after, signature=cert.signature,
        )
        store = CertificateStore()
        store.trust_authority("RootCA", ca.verifier)
        with pytest.raises(CertificateError, match="invalid issuer signature"):
            store.add_certificate(forged)

    def test_expired_certificate_rejected(self):
        clock = VirtualClock()
        ca = self._authority(clock)
        cert = ca.issue("Alice", KEYPAIR.public_key, lifetime=10.0)
        store = CertificateStore(clock=clock)
        store.trust_authority("RootCA", ca.verifier)
        store.add_certificate(cert)
        clock.advance(11.0)
        with pytest.raises(CertificateError, match="expired"):
            store.verifier_for("Alice")

    def test_revocation(self):
        ca = self._authority()
        cert = ca.issue("Alice", KEYPAIR.public_key)
        store = CertificateStore()
        store.trust_authority("RootCA", ca.verifier)
        store.add_certificate(cert)
        ca.revoke(cert.serial)
        store.update_revocations("RootCA", ca.revocation_list())
        with pytest.raises(CertificateError, match="revoked"):
            store.verifier_for("Alice")

    def test_unknown_party(self):
        store = CertificateStore()
        with pytest.raises(CertificateError, match="no certificate"):
            store.verifier_for("Nobody")

    def test_serialisation_round_trip(self):
        ca = self._authority()
        cert = ca.issue("Alice", KEYPAIR.public_key)
        assert Certificate.from_dict(cert.to_dict()) == cert

    def test_serials_increment(self):
        ca = self._authority()
        c1 = ca.issue("Alice", KEYPAIR.public_key)
        c2 = ca.issue("Bob", OTHER.public_key)
        assert c2.serial == c1.serial + 1


class _CountingVerifier:
    """A root verifier that counts the issuer-signature checks it does."""

    def __init__(self, inner):
        self._inner = inner
        self.checks = 0

    def verify(self, value, signature):
        self.checks += 1
        return self._inner.verify(value, signature)


class TestCertificateVerificationMemo:
    """Only "root R's signature over stored certificate C was checked" is
    remembered; trust, validity window and revocation are looked at on
    every lookup."""

    def _store(self, clock=None, lifetime=365.0 * 86400.0):
        ca = CertificateAuthority(
            "RootCA", clock=clock,
            keypair=generate_party_keypair("RootCA", bits=512, rng=RNG),
        )
        root = _CountingVerifier(ca.verifier)
        store = CertificateStore(clock=clock)
        store.trust_authority("RootCA", root)
        cert = ca.issue("Alice", KEYPAIR.public_key, lifetime=lifetime)
        store.add_certificate(cert)
        return ca, root, store, cert

    def test_issuer_signature_checked_once_and_verifier_reused(self):
        _, root, store, _ = self._store()
        assert root.checks == 1  # at add_certificate
        first = store.verifier_for("Alice")
        assert store.verifier_for("Alice") is first
        assert root.checks == 1
        assert first.verify({"m": 1}, KEYPAIR.signer().sign({"m": 1}))

    def test_revocation_after_warm_memo_raises_on_next_resolve(self):
        ca, root, store, cert = self._store()
        store.verifier_for("Alice")
        ca.revoke(cert.serial)
        store.update_revocations("RootCA", ca.revocation_list())
        with pytest.raises(CertificateError, match="revoked"):
            store.verifier_for("Alice")
        assert root.checks == 1  # refused without needing the signature

    def test_clock_past_not_after_raises_with_warm_memo(self):
        clock = VirtualClock()
        _, _, store, _ = self._store(clock, lifetime=10.0)
        store.verifier_for("Alice")
        clock.advance(11.0)
        with pytest.raises(CertificateError, match="expired"):
            store.verifier_for("Alice")

    def test_replacing_the_root_checks_the_signature_again(self):
        ca, root, store, _ = self._store()
        store.verifier_for("Alice")
        replacement = _CountingVerifier(ca.verifier)
        store.trust_authority("RootCA", replacement)
        store.verifier_for("Alice")
        assert (root.checks, replacement.checks) == (1, 1)
        store.verifier_for("Alice")
        assert replacement.checks == 1
        # A root that did not sign the stored certificate no longer resolves it.
        store.trust_authority("RootCA", _CountingVerifier(OTHER.verifier()))
        with pytest.raises(CertificateError, match="invalid issuer signature"):
            store.verifier_for("Alice")

    def test_re_adding_a_certificate_checks_and_replaces_the_key(self):
        ca, root, store, _ = self._store()
        alice = store.verifier_for("Alice")
        store.add_certificate(ca.issue("Alice", OTHER.public_key))
        assert root.checks == 2
        rekeyed = store.verifier_for("Alice")
        assert rekeyed is not alice
        signature = OTHER.signer().sign({"m": 1})
        assert rekeyed.verify({"m": 1}, signature)
        assert not alice.verify({"m": 1}, signature)

    def test_untrusting_is_not_masked_by_the_memo(self):
        _, _, store, _ = self._store()
        store.verifier_for("Alice")
        del store._roots["RootCA"]
        with pytest.raises(CertificateError, match="untrusted"):
            store.verifier_for("Alice")

    def test_mutating_callers_key_dict_cannot_change_the_key_used(self):
        _, root, store, cert = self._store()
        signature = KEYPAIR.signer().sign({"m": 1})
        cert.public_key.update(OTHER.public_key.to_dict())  # same dict object
        verifier = store.verifier_for("Alice")
        assert verifier.verify({"m": 1}, signature)
        assert not verifier.verify({"m": 1}, OTHER.signer().sign({"m": 1}))
        # A fresh check of the mutated certificate fails its signature.
        with pytest.raises(CertificateError, match="invalid issuer signature"):
            store.check_certificate(cert)


class TestTimestamps:
    def test_stamp_and_verify(self):
        clock = VirtualClock(123.456)
        tsa = TimestampService(
            clock=clock, keypair=generate_party_keypair("TSA", bits=512, rng=RNG)
        )
        token = tsa.stamp({"deal": "x"})
        verify_timestamp(token, {"deal": "x"}, tsa.verifier)
        assert token.time_ms == 123456

    def test_wrong_value_rejected(self):
        tsa = TimestampService(
            keypair=generate_party_keypair("TSA", bits=512, rng=RNG)
        )
        token = tsa.stamp({"deal": "x"})
        with pytest.raises(TimestampError, match="digest"):
            verify_timestamp(token, {"deal": "y"}, tsa.verifier)

    def test_wrong_service_key_rejected(self):
        tsa = TimestampService(
            keypair=generate_party_keypair("TSA", bits=512, rng=RNG)
        )
        token = tsa.stamp({"deal": "x"})
        with pytest.raises(TimestampError, match="signature"):
            verify_timestamp(token, {"deal": "x"}, OTHER.verifier())

    def test_token_serialisation(self):
        from repro.crypto.timestamp import TimestampToken
        tsa = TimestampService(
            keypair=generate_party_keypair("TSA", bits=512, rng=RNG)
        )
        token = tsa.stamp({"a": 1})
        assert TimestampToken.from_dict(token.to_dict()) == token


class TestMinimumModulus:
    def test_smallest_modulus_that_fits_sha256_signature(self):
        # EMSA-PKCS1-v1_5 with SHA-256 needs 51 payload bytes + 3 frame
        # bytes + >= 8 padding bytes = 62 bytes = 496 bits.
        from repro.crypto.signature import RsaSigner, RsaVerifier
        from repro.crypto.rsa import generate_keypair
        keypair = generate_keypair(496, RNG)
        signer = RsaSigner("Tiny", keypair)
        verifier = RsaVerifier(keypair.public_key)
        signature = signer.sign({"x": 1})
        assert verifier.verify({"x": 1}, signature)

    def test_too_small_modulus_raises_on_sign(self):
        from repro.crypto.signature import RsaSigner
        from repro.crypto.rsa import generate_keypair
        keypair = generate_keypair(488, RNG)
        signer = RsaSigner("TooTiny", keypair)
        with pytest.raises(SignatureError, match="too small"):
            signer.sign({"x": 1})
