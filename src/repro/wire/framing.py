"""Connection framing: the preamble, frame assembly, frame parsing.

A sender opens every connection with the ASCII line
``REPRO-WIRE/2\\n``, then ships frames as a u32 big-endian length
prefix followed by that many bytes of canonical JSON: the body is
``canonical_bytes(envelope.to_dict())``, the same writer every
signature, hash and stored line uses.  A receiver accepts exactly that
preamble and nothing else, so a peer speaking another frame layout
(the binary frames of ``REPRO-WIRE/1``) is refused as a framing error.

:class:`EnvelopeEncoder` also implements the encode-once broadcast
path: an m1/m2/m3 fan-out sends the *same* ``payload`` dict to every
peer (only ``recipient``/``msg_id`` differ), so the payload — virtually
all of the frame — is serialised once and the per-peer frames are
assembled around the cached bytes.  Even then its signed parts are
not walked: the writer copies the text they were sealed with.
"""

from __future__ import annotations

import struct
from json.encoder import encode_basestring_ascii as _escape
from typing import Optional

from repro.util.encoding import canonical_bytes, from_canonical_bytes

#: The bytes every connection opens with.
PREAMBLE = b"REPRO-WIRE/2\n"

#: Upper bound on one decoded frame.  Inbound frames declaring more are
#: rejected before any allocation, bounding what garbage or an intruder
#: can make a listener buffer.
MAX_FRAME = 16 * 1024 * 1024

_U32 = struct.Struct(">I")


class WireError(ValueError):
    """Base error for framing violations and frames that do not decode."""


class FrameError(WireError):
    """The byte stream violates the framing layer (fatal per connection)."""


class FrameTooLargeError(FrameError):
    """A frame declared more than ``max_frame`` bytes."""


class EnvelopeEncoder:
    """Turns envelopes into on-the-wire frames.

    ``encode`` returns the complete frame, length prefix included.  The
    payload bytes are memoised by object identity in a single slot: a
    broadcast enqueues n-1 envelopes sharing one payload dict back to
    back, so each hits the memo and only the thin envelope header is
    re-encoded per peer.  Payload dicts are treated as frozen once
    handed to the transport (the protocol layer never mutates a message
    after sending it).
    """

    __slots__ = ("_memo",)

    def __init__(self) -> None:
        self._memo: "Optional[tuple]" = None

    def payload_bytes(self, payload: dict) -> bytes:
        """Canonical bytes of *payload*, memoised by identity."""
        memo = self._memo
        if memo is not None and memo[0] is payload:
            return memo[1]
        raw = canonical_bytes(payload)
        self._memo = (payload, raw)
        return raw

    def encode(self, envelope) -> bytes:
        """One complete frame for *envelope* (header + cached payload).

        The keys are written in sorted order, so the body is exactly
        ``canonical_bytes(envelope.to_dict())``.
        """
        body = b"".join((
            b'{"msg_id":', _escape(envelope.msg_id).encode("ascii"),
            b',"payload":', self.payload_bytes(envelope.payload),
            b',"recipient":', _escape(envelope.recipient).encode("ascii"),
            b',"sender":', _escape(envelope.sender).encode("ascii"), b"}",
        ))
        return _U32.pack(len(body)) + body


class FrameDecoder:
    """Incremental per-connection frame parser.

    Feed raw socket chunks with :meth:`feed`; pull complete frames with
    :meth:`next_frame` and decode them with :meth:`decode`.  Framing
    violations (opening bytes other than :data:`PREAMBLE`, an oversized
    frame) raise :class:`FrameError` and poison the connection — the
    caller should close it.  A frame whose body fails to decode raises
    :class:`WireError` from :meth:`decode` only, so one malformed frame
    need not kill an otherwise healthy connection.
    """

    __slots__ = ("max_frame", "_buffer", "_opened")

    def __init__(self, max_frame: int = MAX_FRAME) -> None:
        self.max_frame = max_frame
        self._buffer = bytearray()
        self._opened = False

    def feed(self, chunk: bytes) -> None:
        self._buffer += chunk

    def next_frame(self) -> "Optional[bytes]":
        """The next complete frame body, or None until more bytes arrive."""
        buffer = self._buffer
        if not self._opened:
            size = len(PREAMBLE)
            if buffer[:size] != PREAMBLE[:len(buffer)]:
                raise FrameError(
                    f"unrecognised connection preamble {bytes(buffer[:size])!r}"
                )
            if len(buffer) < size:
                return None
            del buffer[:size]
            self._opened = True
        if len(buffer) < 4:
            return None
        length = _U32.unpack_from(buffer)[0]
        if length > self.max_frame:
            raise FrameTooLargeError(
                f"frame declares {length} bytes (cap {self.max_frame})"
            )
        if len(buffer) < 4 + length:
            return None
        frame = bytes(buffer[4:4 + length])
        del buffer[:4 + length]
        return frame

    def decode(self, frame: bytes):
        """Decode one frame body into the value it carries.

        Non-ASCII bytes, JSON syntax errors, trailing bytes, base64 in
        any but its canonical spelling,
        a malformed tagged wrapper and nesting too deep for the parser
        all raise :class:`WireError`.
        """
        try:
            return from_canonical_bytes(frame)
        except (ValueError, TypeError, RecursionError) as exc:
            raise WireError(f"undecodable frame: {type(exc).__name__}") from None
