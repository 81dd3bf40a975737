"""Identifier helpers shared across the middleware."""

from __future__ import annotations

import re

_PARTY_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$")


def validate_party_id(party_id: str) -> str:
    """Validate and return a party identifier.

    Party identifiers name organisations in protocol messages, evidence
    records and certificates, so they must be stable, printable and free of
    separator characters used by the wire encodings.
    """
    if not isinstance(party_id, str):
        raise TypeError(f"party id must be str, got {type(party_id).__name__}")
    if not _PARTY_ID_RE.match(party_id):
        raise ValueError(f"invalid party id: {party_id!r}")
    return party_id
