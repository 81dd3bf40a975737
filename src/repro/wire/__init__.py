"""``repro.wire`` — connection framing.

This package owns how an :class:`~repro.transport.base.Envelope`
becomes bytes on a socket and back.  There is one value codec: a frame
body is :func:`repro.util.encoding.canonical_bytes` of the envelope,
the same canonical JSON every signature, digest and stored line uses,
and it is decoded by :func:`repro.util.encoding.from_canonical_bytes`.

A connection opens with the line ``REPRO-WIRE/2\\n`` and then carries
u32-length-prefixed frames.

See ``docs/PROTOCOL.md`` ("Wire format") for the byte-level layout.
"""

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
]
