"""A tagged-bytes wrapper decodes only in the spelling the writer uses.

``base64.b64decode(s, validate=True)`` read some spellings on one Python
and refused them on another: ``"="`` and ``"=="`` as ``b""`` on 3.9 and
3.10, ``"YWJj===="`` as ``b"abc"`` on 3.11 and 3.12.  Every version read
``"AB=="``, which the writer spells ``"AA=="``.  A string is accepted
exactly when ``b2a_base64(a2b_base64(s), newline=False)`` gives it back,
so a frame and a stored line decode alike on every Python, and one value
has one accepted spelling.
"""

from __future__ import annotations

import binascii
import json

import pytest

from repro.errors import StorageError
from repro.storage.backends import FileRecordStore
from repro.storage.log import NonRepudiationLog
from repro.util.encoding import b64
from repro.wire import FrameDecoder, WireError

NON_CANONICAL = [
    pytest.param("=", id="pad-only"),
    pytest.param("==", id="pad-pair"),
    pytest.param("YWJj====", id="extra-padding"),
    pytest.param("AB==", id="non-zero-pad-bits"),
    pytest.param("YWJj=", id="pad-after-full-group"),
    pytest.param("YWI", id="missing-padding"),
    pytest.param("YW Jj", id="inner-space"),
    pytest.param("YWJj\n", id="trailing-newline"),
    pytest.param(")", id="stray-character"),
    pytest.param("\x0c", id="form-feed"),
    pytest.param("-_8=", id="urlsafe-alphabet"),
    pytest.param("é", id="non-ascii"),
]

CANONICAL = [("", b""), ("AA==", b"\x00"), ("YWI=", b"ab"), ("YWJj", b"abc"),
             ("+/8=", b"\xfb\xff")]


def _frame_body(text):
    return b'{"v":{"__b64__":' + json.dumps(text).encode("ascii") + b"}}"


def _log_line(tmp_path, text):
    """A one-entry log whose blob is spelled *text*.  The entry is
    written holding what a lenient decoder reads from *text*, so its
    chain verifies exactly when *text* is accepted."""
    try:
        lenient = binascii.a2b_base64(text)
    except (binascii.Error, ValueError):
        lenient = b"unreadable"
    path = str(tmp_path / "log.jsonl")
    store = FileRecordStore(path, fsync=False)
    NonRepudiationLog("OrgA", store).record("note", {"blob": lenient})
    store.close()
    with open(path, "rb") as handle:
        line = handle.read()
    spelled = b'{"__b64__":"' + b64(lenient).encode("ascii") + b'"}'
    assert line.count(spelled) == 1
    with open(path, "wb") as handle:
        handle.write(line.replace(spelled, b'{"__b64__":'
                                  + json.dumps(text).encode("ascii") + b"}"))
    return path


@pytest.mark.parametrize("text", NON_CANONICAL)
def test_a_non_canonical_spelling_is_no_frame(text):
    with pytest.raises(WireError):
        FrameDecoder().decode(_frame_body(text))


@pytest.mark.parametrize("text", NON_CANONICAL)
def test_a_non_canonical_spelling_is_no_stored_line(tmp_path, text):
    store = FileRecordStore(_log_line(tmp_path, text), fsync=False)
    try:
        with pytest.raises(StorageError):
            NonRepudiationLog("OrgA", store)
    finally:
        store.close()


@pytest.mark.parametrize("text, value", CANONICAL)
def test_the_canonical_spelling_decodes_in_a_frame_and_a_line(tmp_path, text,
                                                               value):
    assert FrameDecoder().decode(_frame_body(text)) == {"v": value}
    store = FileRecordStore(_log_line(tmp_path, text), fsync=False)
    (entry,) = NonRepudiationLog("OrgA", store).entries()
    store.close()
    assert entry.payload["blob"] == value
