"""The seed two-pass canonical encoder, kept verbatim as a test oracle.

``repro.util.encoding`` replaced it with a single-pass writer; the
property tests in ``test_encoding_oracle.py`` require the two to agree
byte for byte (and the decoders value for value) over the whole value
domain.  Do not optimise or "fix" the encoder: it defines the bytes that
every signature and evidence chain written so far was computed over.
The decoder reads a bytes wrapper only in the spelling the encoder
writes, as production does; the seed's lenient ``b64decode`` read
``")"`` as ``b""`` and disagreed across Python versions.
"""

from __future__ import annotations

import base64
import json
from typing import Any

_BYTES_TAG = "__b64__"


def _encode_value(value: Any) -> Any:
    if isinstance(value, bytes):
        return {_BYTES_TAG: base64.b64encode(value).decode("ascii")}
    if isinstance(value, (list, tuple)):
        return [_encode_value(item) for item in value]
    if isinstance(value, dict):
        encoded = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"canonical encoding requires str keys, got {key!r}")
            if key == _BYTES_TAG:
                raise ValueError(f"dict key {_BYTES_TAG!r} is reserved")
            encoded[key] = _encode_value(item)
        return encoded
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return {"__float__": repr(value)}
    raise TypeError(f"value of type {type(value).__name__} is not canonically encodable")


def _decode_value(value: Any) -> Any:
    if isinstance(value, list):
        return [_decode_value(item) for item in value]
    if isinstance(value, dict):
        if set(value) == {_BYTES_TAG}:
            text = value[_BYTES_TAG]
            data = base64.b64decode(text)
            if base64.b64encode(data).decode("ascii") != text:
                raise ValueError("bytes wrapper is not canonical base64")
            return data
        if set(value) == {"__float__"}:
            return float(value["__float__"])
        return {key: _decode_value(item) for key, item in value.items()}
    return value


def reference_canonical_bytes(value: Any) -> bytes:
    encoded = _encode_value(value)
    text = json.dumps(encoded, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return text.encode("ascii")


def reference_from_canonical_bytes(data: bytes) -> Any:
    return _decode_value(json.loads(data.decode("ascii")))
