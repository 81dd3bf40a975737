"""Canonical encoding for signable protocol data.

Signatures are computed over a *canonical* byte representation so that two
parties independently serialising the same logical value always obtain the
same bytes.  The canonical form is JSON with sorted keys, no insignificant
whitespace, and ``bytes`` values encoded as tagged base64 strings.  This
mirrors the role DER/XER plays in classical non-repudiation systems while
remaining dependency-free and human-debuggable.

One single-pass writer produces that form.  A :class:`Fragment` lets a
layer that embeds one value in several records have it encoded once.
"""

from __future__ import annotations

import base64
import json
from binascii import b2a_base64
from json.encoder import encode_basestring_ascii as _escape
from typing import Any

_BYTES_TAG = "__b64__"
_FLOAT_TAG = "__float__"

# JSON cannot represent bytes, tuples or non-string keys; canonicalisation
# maps bytes to a tagged wrapper and tuples to lists.  Non-string dict keys
# are rejected outright: silently coercing them would let two parties
# disagree about what was signed.


class Fragment:
    """A value whose canonical text is produced once and then spliced.

    The writer encodes the wrapped value the first time it meets the
    fragment and reuses that text afterwards.  There is deliberately no
    way to build one from bytes: nothing received from a peer can be
    spliced into a signed, hashed or stored record without being decoded
    and re-encoded here.  Do not mutate the value between wrapping and
    first encoding; afterwards the fragment no longer refers to it.
    """

    __slots__ = ("_value", "_text")

    def __init__(self, value: Any) -> None:
        self._value = value
        self._text: "str | None" = None

    @property
    def data(self) -> bytes:
        """The canonical bytes (encoding the value now if not yet done)."""
        if self._text is None:
            return canonical_bytes(self)
        return self._text.encode("ascii")


def _write(value: Any, kind: "type | None" = None) -> str:
    """Canonical text of *value*: one pass, dispatching on the exact type."""
    if kind is None:
        kind = type(value)
    if kind is str:
        return _escape(value)
    if kind is bytes:
        return '{"__b64__":"' + b2a_base64(value, newline=False).decode("ascii") + '"}'
    if kind is dict:
        try:
            keys = sorted(value)
        except TypeError:
            keys = list(value)  # mixed key types: the check below names one
        parts = []
        for key in keys:
            if type(key) is not str and not isinstance(key, str):
                raise TypeError(f"canonical encoding requires str keys, got {key!r}")
            if key == _BYTES_TAG or key == _FLOAT_TAG:
                raise ValueError(f"dict key {key!r} is reserved")
            parts.append(_escape(key) + ":" + _write(value[key]))
        return "{" + ",".join(parts) + "}"
    if kind is int:
        return int.__repr__(value)
    if kind is list or kind is tuple:
        return "[" + ",".join([_write(item) for item in value]) + "]"
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is Fragment:
        text = value._text
        if text is None:
            text = value._text = _write(value._value)
            value._value = None
        return text
    if kind is float:
        # Floats round-trip exactly through repr in Python 3, but different
        # producers may still format them differently; protocol data should
        # use ints or strings.  Accept floats but normalise via repr.
        return '{"__float__":' + _escape(repr(value)) + "}"
    # Subclasses (IntEnum, OrderedDict, named tuples, ...) encode as the
    # builtin they derive from.
    for base in (bytes, list, tuple, dict, int, str, float):
        if isinstance(value, base):
            return _write(value, base)
    raise TypeError(f"value of type {type(value).__name__} is not canonically encodable")


def _decode_wrapper(obj: dict) -> Any:
    """``json.loads`` object hook: unwrap tagged bytes and floats."""
    if len(obj) == 1:
        (tag, inner), = obj.items()
        if tag == _BYTES_TAG or tag == _FLOAT_TAG:
            # The hook runs bottom-up, so a wrapper inside a wrapper
            # arrives already decoded; the format has no such thing.
            if type(inner) in (bytes, float):
                raise TypeError(f"{tag!r} wrapper does not hold a string")
            return base64.b64decode(inner) if tag == _BYTES_TAG else float(inner)
    return obj


def canonical_bytes(value: Any) -> bytes:
    """Serialise *value* to its unique canonical byte string."""
    return _write(value).encode("ascii")


def as_bytes(value: Any) -> bytes:
    """*value* if it is ``bytes``: a peer's byte field is checked, never
    coerced (``bytes(n)`` is n zero bytes)."""
    if type(value) is not bytes:
        raise ValueError(f"not bytes: {type(value).__name__}")
    return value


def from_canonical_bytes(data: bytes) -> Any:
    """Inverse of :func:`canonical_bytes`."""
    return json.loads(data.decode("ascii"), object_hook=_decode_wrapper)


def freeze(value: Any) -> Any:
    """Private deep copy of *value* via its canonical encoding.

    Engines and the read cache keep such copies so that application-side
    mutation after a call cannot silently alter coordinated history.
    """
    return from_canonical_bytes(canonical_bytes(value))


def b64(data: bytes) -> str:
    """Compact base64 helper used in logs and debug output."""
    return base64.b64encode(data).decode("ascii")


def unb64(text: str) -> bytes:
    """Inverse of :func:`b64`."""
    return base64.b64decode(text.encode("ascii"))
