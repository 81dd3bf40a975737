"""Number-theoretic primitives for the repository's own RSA.

The paper (section 4.2) assumes each party has a signature scheme that is
verifiable and unforgeable.  We build RSA on Python's arbitrary-precision
integers: Miller-Rabin primality testing, prime generation, and modular
inverses via the extended Euclidean algorithm.  Modular exponentiation
(:func:`mod_pow`) runs on the OpenSSL that CPython's ``_hashlib`` links,
as SHA-256 does, with builtin ``pow`` as fallback and reference.  Nothing
here is intended to resist side-channel attacks; it is a faithful
functional substrate for the middleware's evidence chain.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

try:
    import ctypes
except ImportError:  # an interpreter built without _ctypes
    ctypes = None


def _load_libcrypto() -> "ctypes.CDLL | None":
    """``_hashlib``'s OpenSSL with its BN prototypes set, or None.

    A plain ``CDLL`` releases the GIL for each call.
    """
    if ctypes is None:
        return None
    ptr, buf, num = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int
    prototypes = {
        "BN_CTX_new": (ptr, []), "BN_CTX_start": (None, [ptr]),
        "BN_CTX_get": (ptr, [ptr]), "BN_CTX_end": (None, [ptr]),
        "BN_CTX_free": (None, [ptr]), "BN_bin2bn": (ptr, [buf, num, ptr]),
        "BN_bn2binpad": (num, [ptr, ptr, num]),
        "BN_mod_exp_mont_consttime": (num, [ptr] * 6),
        "ERR_clear_error": (None, []),
    }
    try:
        import _hashlib
        lib = ctypes.CDLL(_hashlib.__file__)
        for name, (restype, argtypes) in prototypes.items():
            function = getattr(lib, name)
            function.restype, function.argtypes = restype, argtypes
    except (ImportError, OSError, AttributeError):
        return None
    return lib


_libcrypto = _load_libcrypto()
#: Whether :func:`mod_pow` runs on OpenSSL in this interpreter.
NATIVE_MOD_POW = _libcrypto is not None


def mod_pow(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)``: OpenSSL's constant-time
    Montgomery exponentiation for an odd modulus, builtin ``pow`` for
    anything else or when a BN call fails.  The BIGNUMs live in a
    per-call ``BN_CTX``, so threads share nothing.  A short exponent on
    a small modulus (65537 up to 768 bits) goes to ``pow`` too: its few
    squarings cost less than the native call's fixed set-up."""
    lib = _libcrypto
    if (lib is None or exponent < 0 or modulus < 1 or not modulus & 1
            or exponent.bit_length() * modulus.bit_length() < 1 << 14):
        return pow(base, exponent, modulus)
    size = (modulus.bit_length() + 7) // 8
    a_bytes = (base % modulus).to_bytes(size, "big")
    p_bytes = exponent.to_bytes((exponent.bit_length() + 7) // 8, "big")
    m_bytes = modulus.to_bytes(size, "big")
    # A bytearray, not ``create_string_buffer``: that builds a ``c_char *
    # size`` type, which the cycle collector has to reclaim.
    out = bytearray(size)
    out_address = ctypes.addressof(ctypes.c_char.from_buffer(out))
    ctx = lib.BN_CTX_new()
    if ctx:
        lib.BN_CTX_start(ctx)
        try:
            r, a, p, m = [lib.BN_CTX_get(ctx) for _ in range(4)]
            if (m and lib.BN_bin2bn(a_bytes, size, a)
                    and lib.BN_bin2bn(p_bytes, len(p_bytes), p)
                    and lib.BN_bin2bn(m_bytes, size, m)
                    and lib.BN_mod_exp_mont_consttime(r, a, p, m, ctx, None)
                    and lib.BN_bn2binpad(r, out_address, size) == size):
                return int.from_bytes(out, "big")
        finally:
            lib.BN_CTX_end(ctx)
            lib.BN_CTX_free(ctx)
    lib.ERR_clear_error()
    return pow(base, exponent, modulus)


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
    x = mod_pow(a, d, n)
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
