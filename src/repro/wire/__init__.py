"""``repro.wire`` — the wire codec and framing layer.

This package owns *framing only*: how an
:class:`~repro.transport.base.Envelope` becomes bytes on a socket and
back.  Everything with protocol authority — signatures, digests, state
identifiers, golden evidence — keeps hashing through
:func:`repro.util.encoding.canonical_bytes`; the frame codec can change
without perturbing a single signed byte.

A connection opens with the line ``REPRO-WIRE/1 binary\\n`` and then
carries length-prefixed frames of a compact tag-based encoding (no
base64 inflation for ``bytes``, no recursive dict re-copies).

See ``docs/PROTOCOL.md`` ("Wire format") for the byte-level layout.
"""

from repro.wire.binary import decode_value, encode_value
from repro.wire.framing import (
    MAX_FRAME,
    PREAMBLE,
    EnvelopeEncoder,
    FrameDecoder,
    FrameError,
    FrameTooLargeError,
    WireError,
)

__all__ = [
    "MAX_FRAME",
    "PREAMBLE",
    "EnvelopeEncoder",
    "FrameDecoder",
    "FrameError",
    "FrameTooLargeError",
    "WireError",
    "decode_value",
    "encode_value",
]
