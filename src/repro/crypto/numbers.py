"""Number-theoretic primitives for the from-scratch RSA implementation.

The paper (section 4.2) assumes each party has a signature scheme that is
verifiable and unforgeable.  We build RSA from first principles on top of
Python's arbitrary-precision integers: Miller-Rabin primality testing,
prime generation, and modular inverses via the extended Euclidean
algorithm.  Nothing here is intended to resist side-channel attacks; it is
a faithful functional substrate for the middleware's evidence chain.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

# Small primes used for fast trial division before Miller-Rabin.
_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293,
]

# Deterministic Miller-Rabin witness sets: testing against these bases is
# *proven* correct for n below the associated bounds (Jaeschke; Sorenson &
# Webster), which covers all moduli used in tests without randomness.
_DETERMINISTIC_WITNESSES = [
    (2047, [2]),
    (1373653, [2, 3]),
    (9080191, [31, 73]),
    (25326001, [2, 3, 5]),
    (3215031751, [2, 3, 5, 7]),
    (4759123141, [2, 7, 61]),
    (1122004669633, [2, 13, 23, 1662803]),
    (2152302898747, [2, 3, 5, 7, 11]),
    (3474749660383, [2, 3, 5, 7, 11, 13]),
    (341550071728321, [2, 3, 5, 7, 11, 13, 17]),
    (3825123056546413051, [2, 3, 5, 7, 11, 13, 17, 19, 23]),
    (318665857834031151167461, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]),
]


@functools.cache
def _small_prime_product() -> int:
    """The product of the primes below 2**14, sieved on first use."""
    bound = 1 << 14
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, bound, i)))
    return math.prod(i for i, prime in enumerate(sieve) if prime)


def _miller_rabin_witness(n: int, a: int) -> bool:
    """Return True if *a* witnesses that *n* is composite."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return False
    return True


def is_probable_prime(n: int, rand_below: "Callable[[int], int] | None" = None,
                      rounds: int = 40) -> bool:
    """Miller-Rabin primality test.

    For values below the largest proven deterministic bound the test is
    exact.  Above it, *rounds* random witnesses drawn via *rand_below*
    (a callable returning a uniform integer in ``[0, bound)``) give an
    error probability below ``4**-rounds``.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    for bound, witnesses in _DETERMINISTIC_WITNESSES:
        if n < bound:
            return not any(_miller_rabin_witness(n, a) for a in witnesses)
    if rand_below is None:
        raise ValueError("rand_below is required for candidates above the deterministic bound")
    for i in range(rounds):
        a = 2 + rand_below(n - 3)
        # A factor below 2**14 proves n composite for the price of one
        # gcd.  The witness is drawn first so a seed names the same key.
        if i == 0 and math.gcd(n, _small_prime_product()) != 1:
            return False
        if _miller_rabin_witness(n, a):
            return False
    return True


def generate_prime(bits: int, rand_below: Callable[[int], int]) -> int:
    """Generate a random prime of exactly *bits* bits.

    The candidate has its two top bits set (so that the product of two such
    primes has exactly ``2 * bits`` bits) and is made odd before testing.
    """
    if bits < 8:
        raise ValueError("prime size must be at least 8 bits")
    top_bits = (1 << (bits - 1)) | (1 << (bits - 2))
    while True:
        candidate = rand_below(1 << bits) | top_bits | 1
        if is_probable_prime(candidate, rand_below):
            return candidate


def extended_gcd(a: int, b: int) -> "tuple[int, int, int]":
    """Return ``(g, x, y)`` with ``g = gcd(a, b)`` and ``a*x + b*y = g``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
        old_t, t = t, old_t - quotient * t
    return old_r, old_s, old_t


def mod_inverse(a: int, modulus: int) -> int:
    """Return the multiplicative inverse of *a* modulo *modulus*."""
    g, x, _ = extended_gcd(a % modulus, modulus)
    if g != 1:
        raise ValueError(f"{a} has no inverse modulo {modulus}")
    return x % modulus


def int_to_bytes(value: int, length: "int | None" = None) -> bytes:
    """Big-endian byte encoding of a non-negative integer."""
    if value < 0:
        raise ValueError("cannot encode negative integers")
    if length is None:
        length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    """Inverse of :func:`int_to_bytes`."""
    return int.from_bytes(data, "big")
