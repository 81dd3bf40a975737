"""Experiment C8 — cost of the cryptographic substrate (section 4.2).

Every protocol message costs one signature at the sender, one
verification per receiver, and a TSA time-stamp; state identifiers cost
hashes.  This bench characterises those primitives across RSA key sizes
so the protocol-level numbers elsewhere can be decomposed.

Expected shape: signing is superlinear in the modulus where the
exponentiation dominates its cost — from 1024 to 2048 bits it more than
doubles.  Below that the native exponentiation's fixed set-up is most of
a sign, so 512 to 1024 bits sit close together.  Verification stays
cheap (small public exponent), and a hash costs under a tenth of the
cheapest sign.
Key generation is Miller-Rabin exponentiations; their count per key is
a function of the seeded stream alone, so that column does not move
with the machine's speed.
"""

from __future__ import annotations

import time

import repro.crypto.numbers as numbers
from repro.crypto import (
    DeterministicRandomSource,
    TimestampService,
    generate_party_keypair,
    hash_value,
)
from repro.obs.report import format_table

RNG = DeterministicRandomSource("bench-crypto")
PAYLOAD = {"object": "order", "seq": 42, "state": {"widget1": 2, "note": "x" * 64}}


def _time_it(fn, count):
    start = time.perf_counter()
    for _ in range(count):
        fn()
    return (time.perf_counter() - start) / count


def measure_key_size(bits, exponentiations):
    keypair = generate_party_keypair(f"bench{bits}", bits=bits, rng=RNG)
    signer, verifier = keypair.signer(), keypair.verifier()
    signature = signer.sign(PAYLOAD)
    before = len(exponentiations)
    keygen_time = _time_it(
        lambda: generate_party_keypair(f"k{bits}", bits=bits, rng=RNG), 3
    )
    per_key = (len(exponentiations) - before) / 3
    sign_time = _time_it(lambda: signer.sign(PAYLOAD), 30)
    verify_time = _time_it(lambda: verifier.verify(PAYLOAD, signature), 30)
    return keygen_time, per_key, sign_time, verify_time


def test_c8_crypto_primitives(benchmark, report, monkeypatch):
    exponentiations = []
    witness = numbers._miller_rabin_witness

    def counting(n, a):
        exponentiations.append(a)
        return witness(n, a)

    monkeypatch.setattr(numbers, "_miller_rabin_witness", counting)
    rows = []
    sign_times = {}
    # 512 bits is the smallest modulus that fits a SHA-256 PKCS#1
    # signature payload (62 bytes + padding).
    for bits in (512, 768, 1024, 2048):
        keygen_time, per_key, sign_time, verify_time = measure_key_size(
            bits, exponentiations)
        sign_times[bits] = sign_time
        rows.append([bits, keygen_time * 1e3, per_key,
                     round(sign_time * 1e6), verify_time * 1e6])

    hash_time = _time_it(lambda: hash_value(PAYLOAD), 2000)
    tsa = TimestampService(keypair=generate_party_keypair("TSA", bits=512,
                                                          rng=RNG))
    stamp_time = _time_it(lambda: tsa.stamp(PAYLOAD), 30)

    # Shape: signing is superlinear where the exponentiation dominates
    # (1024 -> 2048 bits); a hash costs under a tenth of the cheapest sign.
    assert sign_times[2048] > sign_times[1024] * 2
    assert hash_time < min(sign_times.values()) / 10

    keypair = generate_party_keypair("bench-loop", bits=512, rng=RNG)
    signer = keypair.signer()
    benchmark(lambda: signer.sign(PAYLOAD))

    body = format_table(
        ["RSA bits", "keygen (ms)", "Miller-Rabin exps/key", "sign (us)",
         "verify (us)"], rows
    ) + (
        f"\n\nSHA-256 structured hash: {hash_time * 1e6:.1f} us\n"
        f"TSA time-stamp token (512-bit): {stamp_time * 1e6:.1f} us\n"
        "per protocol message: 1 sign + 1 stamp at the sender, "
        "1-2 verifies per receiver"
    )
    report("C8", "cryptographic substrate cost", body)
