"""Tag-based binary value codec for wire framing.

Encodes exactly the value domain of
:func:`repro.util.encoding.canonical_bytes` — dict / list / tuple /
str / bytes / int / bool / float / None with str-only dict keys — into
a compact tagged form.  All lengths, counts and small integers are
unsigned LEB128 varints (7 payload bits per byte, high bit set on every
byte but the last), so the common short string costs one length byte,
not four:

========  ==========================================================
tag       layout after the tag byte
========  ==========================================================
``N``     none
``T/F``   true / false
``j``     int: zig-zag varint (0,-1,1,-2,... -> 0,1,2,3,...)
``i``     big int (zig-zag >= 2**63): varint byte-count, then signed
          big-endian two's-complement bytes
``s``     str: varint byte-count, then UTF-8
``b``     bytes: varint byte-count, then the raw bytes (no base64)
``f``     float: IEEE-754 double, big-endian
``l``     list/tuple: varint item-count, then the items
``d``     dict: varint pair-count, then per pair a varint key
          byte-count, the key UTF-8 (keys carry no tag — they are
          always strings), and the tagged value
========  ==========================================================

Unlike the canonical JSON form this is *not* unique (dict pairs keep
insertion order rather than sorting), which is fine: the binary codec
frames transport envelopes only, it never feeds a hash or a signature.
``decode_value(encode_value(x)) == x`` for every canonically encodable
``x`` (tuples come back as lists, exactly as JSON framing returns them).

Both walkers inline the str/bytes/int/bool leaf cases inside the dict
loop — protocol envelopes are overwhelmingly dicts of those leaves, and
one Python call per *container* instead of per *node* is worth ~2x on
the m1/m2/m3 hot path.  Tags appear as int literals in the hot
comparisons for the same reason; the table above is the authority.

The decoder is written for hostile input: container counts are checked
against the remaining buffer before any loop, varints are capped at 63
bits, and a cursor running off the buffer surfaces as
:class:`BinaryCodecError` via ``IndexError``.  An over-long declared
string length can at worst yield a short slice, which is then caught by
the cursor/trailing checks — decode never returns a value for a
malformed buffer, and never allocates more than the frame shipped.
"""

from __future__ import annotations

import struct
from typing import Any

_F64 = struct.Struct(">d")

_INT64_MAG = 1 << 63  # zig-zag values past this go to the bigint form


class WireError(ValueError):
    """Base error for wire codec / framing violations."""


class BinaryCodecError(WireError):
    """Malformed or unencodable data in the binary value codec."""


def encode_value(value: Any) -> bytes:
    """Encode *value* into the tagged binary form."""
    buf = bytearray()
    _encode_into(buf, value)
    return bytes(buf)


def _varint(buf: bytearray, n: int) -> None:
    """Append unsigned LEB128 (callers fast-path the 1-byte case)."""
    while n >= 0x80:
        buf.append((n & 0x7F) | 0x80)
        n >>= 7
    buf.append(n)


#: Pre-encoded ``varint-length + UTF-8`` forms of dict keys, mirroring
#: the decoder's ``_KEY_CACHE`` — the same small key vocabulary is
#: re-encoded on every frame otherwise.  Bounded for the same reason.
_KEY_ENCODED: "dict[str, bytes]" = {}


def _encode_into(buf: bytearray, value: Any) -> None:
    # Exact-type dispatch, hottest kinds first.  bool before int.
    kind = type(value)
    append = buf.append
    if kind is dict:
        append(0x64)  # 'd'
        n = len(value)
        if n < 0x80:
            append(n)
        else:
            _varint(buf, n)
        key_encoded = _KEY_ENCODED
        for key, item in value.items():
            pre = key_encoded.get(key)
            if pre is not None:
                buf += pre
            else:
                if type(key) is not str:
                    if not isinstance(key, str):
                        raise BinaryCodecError(
                            f"binary encoding requires str keys, got {key!r}"
                        )
                    key = str(key)
                raw = key.encode("utf-8")
                n = len(raw)
                if n < 0x80:
                    head = bytearray((n,))
                else:
                    head = bytearray()
                    _varint(head, n)
                head += raw
                pre = bytes(head)
                if len(key_encoded) < _KEY_CACHE_MAX:
                    key_encoded[key] = pre
                buf += pre
            # Inline the leaf kinds; recurse only for containers/rare.
            ikind = type(item)
            if ikind is str:
                raw = item.encode("utf-8")
                append(0x73)  # 's'
                n = len(raw)
                if n < 0x80:
                    append(n)
                else:
                    _varint(buf, n)
                buf += raw
            elif ikind is bytes:
                append(0x62)  # 'b'
                n = len(item)
                if n < 0x80:
                    append(n)
                else:
                    _varint(buf, n)
                buf += item
            elif ikind is bool:
                append(0x54 if item else 0x46)  # 'T' / 'F'
            elif ikind is int:
                zigzag = (item << 1) if item >= 0 else ((-item << 1) - 1)
                if zigzag < _INT64_MAG:
                    append(0x6A)  # 'j'
                    if zigzag < 0x80:
                        append(zigzag)
                    else:
                        _varint(buf, zigzag)
                else:
                    _encode_bigint(buf, item)
            else:
                _encode_into(buf, item)
    elif kind is str:
        raw = value.encode("utf-8")
        append(0x73)  # 's'
        n = len(raw)
        if n < 0x80:
            append(n)
        else:
            _varint(buf, n)
        buf += raw
    elif kind is bytes:
        append(0x62)  # 'b'
        n = len(value)
        if n < 0x80:
            append(n)
        else:
            _varint(buf, n)
        buf += value
    elif kind is bool:
        append(0x54 if value else 0x46)  # 'T' / 'F'
    elif kind is int:
        # Zig-zag folds the sign into the low bit so small magnitudes
        # of either sign stay short.
        zigzag = (value << 1) if value >= 0 else ((-value << 1) - 1)
        if zigzag < _INT64_MAG:
            append(0x6A)  # 'j'
            if zigzag < 0x80:
                append(zigzag)
            else:
                _varint(buf, zigzag)
        else:
            _encode_bigint(buf, value)
    elif kind is list or kind is tuple:
        append(0x6C)  # 'l'
        n = len(value)
        if n < 0x80:
            append(n)
        else:
            _varint(buf, n)
        for item in value:
            _encode_into(buf, item)
    elif value is None:
        append(0x4E)  # 'N'
    elif kind is float:
        append(0x66)  # 'f'
        buf += _F64.pack(value)
    elif isinstance(value, (str, bytes, dict, bool, int, list, tuple, float)):
        # Subclasses (rare in protocol data) normalise to the base type.
        for base in (str, bytes, dict, bool, int, list, float):
            if isinstance(value, base):
                if base is bool:
                    _encode_into(buf, bool(value))
                elif base is list:
                    _encode_into(buf, list(value))
                else:
                    _encode_into(buf, base(value))
                return
        _encode_into(buf, list(value))
    else:
        raise BinaryCodecError(
            f"value of type {type(value).__name__} is not wire-encodable"
        )


def _encode_bigint(buf: bytearray, value: int) -> None:
    raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
    buf.append(0x69)  # 'i'
    _varint(buf, len(raw))
    buf += raw


#: Interned dict-key texts.  Envelope keys come from a small fixed
#: vocabulary (msg_type, signature, payload, ...), so the UTF-8 decode
#: and string allocation per key are pure waste after the first frame.
#: Bounded so hostile key floods cannot grow it without limit.
_KEY_CACHE: "dict[bytes, str]" = {}
_KEY_CACHE_MAX = 4096


def decode_value(data: bytes) -> Any:
    """Decode one value; the buffer must contain exactly one value.

    Implemented as closures over a shared cursor rather than a
    ``(value, offset)`` tuple chain, with leaf values inlined in the
    dict loop — per-node Python calls were the dominant decode cost.
    """
    if type(data) is not bytes:
        data = bytes(data)
    size = len(data)
    pos = 0
    key_cache = _KEY_CACHE

    def varint_rest(first: int) -> int:
        # Continuation of a varint whose first byte had the high bit set.
        nonlocal pos
        result = first & 0x7F
        shift = 7
        while True:
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if byte < 0x80:
                return result
            shift += 7
            if shift > 63:
                raise BinaryCodecError("varint exceeds 63 bits")

    def read_dict() -> dict:
        # The cursor sits just past a 'd' tag.  The hot leaf path runs
        # entirely on locals (``d``/``p``), syncing the shared closure
        # cursor only around recursive calls and rare long varints —
        # cell loads per node are measurable at this call volume.
        nonlocal pos
        d = data
        p = pos
        count = d[p]
        p += 1
        if count >= 0x80:
            pos = p
            count = varint_rest(count)
            p = pos
        if count > size - p:
            raise BinaryCodecError(
                f"implausible count {count} with {size - p} "
                f"byte(s) remaining"
            )
        result = {}
        for _ in range(count):
            length = d[p]
            p += 1
            if length >= 0x80:
                pos = p
                length = varint_rest(length)
                p = pos
            end = p + length
            raw = d[p:end]
            p = end
            key = key_cache.get(raw)
            if key is None:
                key = raw.decode()
                if len(key_cache) < _KEY_CACHE_MAX:
                    key_cache[raw] = key
            tag = d[p]
            p += 1
            # Leaf kinds inline; containers and rarities recurse.
            if tag == 0x73:  # 's'
                length = d[p]
                p += 1
                if length >= 0x80:
                    pos = p
                    length = varint_rest(length)
                    p = pos
                end = p + length
                result[key] = d[p:end].decode()
                p = end
            elif tag == 0x62:  # 'b'
                length = d[p]
                p += 1
                if length >= 0x80:
                    pos = p
                    length = varint_rest(length)
                    p = pos
                end = p + length
                result[key] = d[p:end]
                p = end
            elif tag == 0x64:  # 'd'
                pos = p
                result[key] = read_dict()
                p = pos
            elif tag == 0x6A:  # 'j'
                zigzag = d[p]
                p += 1
                if zigzag >= 0x80:
                    pos = p
                    zigzag = varint_rest(zigzag)
                    p = pos
                result[key] = (zigzag >> 1) ^ -(zigzag & 1)
            else:
                pos = p - 1
                result[key] = read()
                p = pos
        pos = p
        return result

    def read() -> Any:
        nonlocal pos
        tag = data[pos]
        pos += 1
        if tag == 0x64:  # 'd'
            return read_dict()
        if tag == 0x73 or tag == 0x62:  # 's' / 'b'
            length = data[pos]
            pos += 1
            if length >= 0x80:
                length = varint_rest(length)
            end = pos + length
            raw = data[pos:end]
            pos = end
            return raw.decode() if tag == 0x73 else raw
        if tag == 0x6A:  # 'j'
            zigzag = data[pos]
            pos += 1
            if zigzag >= 0x80:
                zigzag = varint_rest(zigzag)
            return (zigzag >> 1) ^ -(zigzag & 1)
        if tag == 0x6C:  # 'l'
            count = data[pos]
            pos += 1
            if count >= 0x80:
                count = varint_rest(count)
            if count > size - pos:
                raise BinaryCodecError(
                    f"implausible count {count} with {size - pos} "
                    f"byte(s) remaining"
                )
            return [read() for _ in range(count)]
        if tag == 0x54:  # 'T'
            return True
        if tag == 0x46:  # 'F'
            return False
        if tag == 0x4E:  # 'N'
            return None
        if tag == 0x69:  # 'i'
            length = data[pos]
            pos += 1
            if length >= 0x80:
                length = varint_rest(length)
            end = pos + length
            if end > size:
                raise BinaryCodecError("truncated big int")
            raw = data[pos:end]
            pos = end
            return int.from_bytes(raw, "big", signed=True)
        if tag == 0x66:  # 'f'
            if pos + 8 > size:
                raise BinaryCodecError("truncated float")
            result = _F64.unpack_from(data, pos)[0]
            pos += 8
            return result
        raise BinaryCodecError(f"unknown tag byte {bytes((tag,))!r}")

    try:
        value = read()
    except IndexError as exc:
        raise BinaryCodecError("truncated value") from exc
    except UnicodeDecodeError as exc:
        raise BinaryCodecError(f"invalid UTF-8: {exc}") from exc
    finally:
        # The closures name each other: empty the cells, or each frame
        # (buffer included) waits for the cycle collector.
        varint_rest = read_dict = read = None
    # An over-long str/bytes length silently yields a short slice and a
    # cursor past the end; this check (or the IndexError above) is what
    # rejects that buffer, so it must stay exact, not `<=`.
    if pos != size:
        raise BinaryCodecError(
            f"cursor at {pos} of {size}: truncated or trailing bytes"
        )
    return value
