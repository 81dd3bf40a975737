"""Shared utilities: canonical encoding, clocks and identifiers."""

from repro.util.clocks import Clock, SystemClock, VirtualClock
from repro.util.encoding import b64, canonical_bytes, from_canonical_bytes
from repro.util.identifiers import validate_party_id

__all__ = [
    "Clock",
    "SystemClock",
    "VirtualClock",
    "b64",
    "canonical_bytes",
    "from_canonical_bytes",
    "validate_party_id",
]
