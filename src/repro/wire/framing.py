"""Connection framing: the preamble, frame assembly, frame parsing.

A sender opens every connection with the ASCII line
``REPRO-WIRE/1 binary\\n``, then ships frames as a u32 big-endian
length prefix followed by that many bytes of
:mod:`repro.wire.binary`-encoded envelope.  A receiver accepts exactly
that preamble and nothing else; the version in it lets a future frame
layout be told apart on the same port.

:class:`EnvelopeEncoder` also implements the encode-once broadcast
path: an m1/m2/m3 fan-out sends the *same* ``payload`` dict to every
peer (only ``recipient``/``msg_id`` differ), so the payload — virtually
all of the frame — is serialised once and the per-peer frames are
assembled around the cached bytes.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.wire.binary import WireError, decode_value, encode_value

#: The bytes every connection opens with.
PREAMBLE = b"REPRO-WIRE/1 binary\n"

#: Upper bound on one decoded frame.  Inbound frames declaring more are
#: rejected before any allocation, bounding what garbage or an intruder
#: can make a listener buffer.
MAX_FRAME = 16 * 1024 * 1024

_U32 = struct.Struct(">I")


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
        """Binary encoding of *payload*, memoised by identity."""
        memo = self._memo
        if memo is not None and memo[0] is payload:
            return memo[1]
        raw = encode_value(payload)
        self._memo = (payload, raw)
        return raw

    def encode(self, envelope) -> bytes:
        """One complete frame for *envelope* (header + cached payload)."""
        payload_raw = self.payload_bytes(envelope.payload)
        # The envelope header is assembled inline around the cached
        # payload: four zero placeholder bytes for the u32 length
        # prefix, then the dict tag, pair count 4, and each key as a
        # pre-encoded ``varint-length + UTF-8`` literal.  Built in one
        # buffer and copied out once — this header is the only per-peer
        # work on a broadcast, so it stays call-free.
        body = bytearray(b"\x00\x00\x00\x00d\x04\x06msg_id")
        _bstr(body, envelope.msg_id)
        body += b"\x07payload"
        body += payload_raw
        body += b"\x09recipient"
        _bstr(body, envelope.recipient)
        body += b"\x06sender"
        _bstr(body, envelope.sender)
        _U32.pack_into(body, 0, len(body) - 4)
        return bytes(body)


def _bstr(buf: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    n = len(raw)
    buf.append(0x73)  # 's'
    if n < 0x80:
        buf.append(n)
    else:
        _bvarint(buf, n)
    buf += raw


def _bvarint(buf: bytearray, n: int) -> None:
    while n >= 0x80:
        buf.append((n & 0x7F) | 0x80)
        n >>= 7
    buf.append(n)


class FrameDecoder:
    """Incremental per-connection frame parser.

    Feed raw socket chunks with :meth:`feed`; pull complete frames with
    :meth:`next_frame` and decode them with :meth:`decode`.  Framing
    violations (opening bytes other than :data:`PREAMBLE`, an oversized
    frame) raise :class:`FrameError` and poison the connection — the
    caller should close it.  A frame whose body fails to decode raises
    :class:`~repro.wire.binary.WireError` from :meth:`decode` only, so
    one malformed frame need not kill an otherwise healthy connection.
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
        """Decode one frame body into the envelope dict it carries."""
        return decode_value(frame)
