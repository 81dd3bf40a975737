"""RSA key generation and raw operations, the repository's own.

This is the public-key substrate behind :mod:`repro.crypto.signature`;
its exponentiations run on :func:`repro.crypto.numbers.mod_pow`.
Key sizes are configurable; tests default to small moduli (fast, still
exercising every code path) while deployments can request 2048-bit keys.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.crypto.numbers import generate_prime, mod_inverse, mod_pow
from repro.crypto.prng import RandomSource, SystemRandomSource
from repro.errors import KeyGenerationError
from repro.obs.hooks import Instrumentation
from repro.util.encoding import as_int

DEFAULT_PUBLIC_EXPONENT = 65537
DEFAULT_KEY_BITS = 512


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key ``(n, e)``."""

    modulus: int
    exponent: int

    @property
    def byte_length(self) -> int:
        return (self.modulus.bit_length() + 7) // 8

    def to_dict(self) -> dict:
        return {"kind": "rsa-public", "n": self.modulus, "e": self.exponent}

    @staticmethod
    def from_dict(data: dict) -> "RsaPublicKey":
        if data.get("kind") != "rsa-public":
            raise ValueError(f"not an RSA public key: {data.get('kind')!r}")
        return RsaPublicKey(modulus=as_int(data["n"]), exponent=as_int(data["e"]))


@dataclass(frozen=True)
class RsaPrivateKey:
    """RSA private key with CRT parameters for fast signing."""

    modulus: int
    public_exponent: int
    private_exponent: int
    prime_p: int
    prime_q: int
    # CRT parameters, derived once at construction: signing is the
    # per-message hot path and must not redo two modular reductions and
    # an extended-Euclid inversion per signature.
    crt_dp: int = field(init=False, repr=False, compare=False, default=0)
    crt_dq: int = field(init=False, repr=False, compare=False, default=0)
    crt_q_inv: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "crt_dp",
                           self.private_exponent % (self.prime_p - 1))
        object.__setattr__(self, "crt_dq",
                           self.private_exponent % (self.prime_q - 1))
        object.__setattr__(self, "crt_q_inv",
                           mod_inverse(self.prime_q, self.prime_p))

    @property
    def public_key(self) -> RsaPublicKey:
        return RsaPublicKey(self.modulus, self.public_exponent)

    @property
    def byte_length(self) -> int:
        return (self.modulus.bit_length() + 7) // 8

    def _crt_power(self, base: int) -> int:
        # Chinese-remainder exponentiation: ~4x faster than pow(base, d, n).
        p, q = self.prime_p, self.prime_q
        m1 = mod_pow(base, self.crt_dp, p)
        m2 = mod_pow(base, self.crt_dq, q)
        h = (self.crt_q_inv * (m1 - m2)) % p
        return m2 + h * q


def generate_keypair(bits: int = DEFAULT_KEY_BITS,
                     rng: "RandomSource | None" = None,
                     public_exponent: int = DEFAULT_PUBLIC_EXPONENT,
                     obs: "Instrumentation | None" = None) -> RsaPrivateKey:
    """Generate an RSA key pair with a modulus of exactly *bits* bits."""
    if bits < 128:
        raise KeyGenerationError(f"modulus of {bits} bits is too small (minimum 128)")
    if bits % 2 != 0:
        raise KeyGenerationError("modulus size must be even")
    if public_exponent % 2 == 0 or public_exponent < 3:
        raise KeyGenerationError("public exponent must be an odd integer >= 3")
    rng = rng or SystemRandomSource()
    half = bits // 2
    started = time.perf_counter() if obs is not None and obs.enabled else 0.0
    for attempt in range(1, 65):
        p = generate_prime(half, rng.random_below)
        q = generate_prime(half, rng.random_below)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = mod_inverse(public_exponent, phi)
        except ValueError:
            continue  # e not coprime with phi; draw new primes
        n = p * q
        if n.bit_length() != bits:
            continue
        if obs is not None and obs.enabled:
            obs.keygen_timing(bits, attempt, time.perf_counter() - started)
        return RsaPrivateKey(
            modulus=n,
            public_exponent=public_exponent,
            private_exponent=d,
            prime_p=p,
            prime_q=q,
        )
    raise KeyGenerationError(f"failed to generate a {bits}-bit key pair")


def rsa_sign_int(key: RsaPrivateKey, message: int) -> int:
    """Raw RSA signing: ``message ** d mod n``."""
    if not 0 <= message < key.modulus:
        raise ValueError("message representative out of range")
    return key._crt_power(message)


def rsa_verify_int(key: RsaPublicKey, signature: int) -> int:
    """Raw RSA verification: recover the message representative."""
    if not 0 <= signature < key.modulus:
        raise ValueError("signature representative out of range")
    return mod_pow(signature, key.exponent, key.modulus)
