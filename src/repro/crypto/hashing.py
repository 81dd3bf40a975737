"""Secure hash function used throughout the middleware.

The paper's ``H`` is a one-way, collision-resistant hash.  All state
identifiers, group identifiers, evidence links and log chains hash through
this module so the algorithm can be swapped in one place.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from typing import Any

from repro.util.encoding import Fragment, canonical_bytes

HASH_ALGORITHM = "sha256"
# The named constructor: ``hashlib.new`` looks the name up on every call.
_hasher = getattr(hashlib, HASH_ALGORITHM)
DIGEST_SIZE = _hasher().digest_size


def secure_hash(data: bytes) -> bytes:
    """Hash raw bytes with the middleware hash function."""
    if not isinstance(data, bytes):
        raise TypeError(f"secure_hash expects bytes, got {type(data).__name__}")
    return _hasher(data).digest()


def hash_value(value: Any) -> bytes:
    """Hash any canonically encodable value (``H(x)`` in the paper).

    A :class:`~repro.util.encoding.Fragment` hashes the bytes it already
    holds, so a value encoded once can be hashed, signed and stored
    without being walked again.
    """
    if type(value) is Fragment:
        return secure_hash(value.data)
    return secure_hash(canonical_bytes(value))


def hash_hex(value: Any) -> str:
    """Hex digest of :func:`hash_value`, for logs and diagnostics."""
    return hash_value(value).hex()


def hash_members(members: "list[str]") -> bytes:
    """``H(P_0 .. P_n)`` over a membership list (section 4.5.2).

    The membership hash is order-sensitive because the paper orders the
    participant set by join recency to determine the sponsor role; two
    parties with different orderings hold genuinely different views.
    """
    return hash_value(["members", list(members)])


def hmac_digest(key: bytes, data: bytes) -> bytes:
    """Keyed MAC used by the symmetric signature scheme variant."""
    return _hmac.new(key, data, HASH_ALGORITHM).digest()


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Timing-safe comparison for authenticators and MACs."""
    return _hmac.compare_digest(a, b)
