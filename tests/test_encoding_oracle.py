"""The single-pass writer against the seed two-pass encoder, byte for byte.

``tests/reference_encoder.py`` is the encoder every signature and chain
hash written before the encode-once change was computed with.  These
properties require the writer in ``repro.util.encoding`` (and its
one-pass decoder) to agree with it over the whole value domain, with
fragments at any nesting position, and on the error cases.
"""

from __future__ import annotations

import collections
import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.encoding import Fragment, canonical_bytes, freeze, from_canonical_bytes
from tests.reference_encoder import (
    reference_canonical_bytes,
    reference_from_canonical_bytes,
)


class Phase(enum.IntEnum):
    M1 = 1
    M3 = 3


class Tag(str):
    """A plain ``str`` subclass (keys and values)."""


class Colour(str, enum.Enum):
    RED = "red"


Point = collections.namedtuple("Point", "x y")

text = st.text(max_size=12) | st.sampled_from(
    ["", "\x00\x1f", " é\U0001F600", '"\\/', "__float__", "\x7f\x80"])
keys = text.filter(lambda s: s != "__b64__") | st.builds(
    Tag, st.text(min_size=1, max_size=4).filter(lambda s: s != "__b64__"))
leaves = (
    st.none() | st.booleans()
    | st.integers(min_value=-(2 ** 130), max_value=2 ** 130)
    | st.floats(allow_nan=True, allow_infinity=True)
    | text | st.binary(max_size=24)
    | st.sampled_from([Phase.M1, Phase.M3, Tag("tagged"), Colour.RED, b"", 0, -0.0])
)
values = st.recursive(
    leaves,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.tuples(children, children).map(lambda pair: Point(*pair))
        | st.dictionaries(keys, children, max_size=4)
        | st.dictionaries(keys, children, max_size=3).map(collections.OrderedDict)
    ),
    max_leaves=16,
)


def _outcome(decode, blob):
    """What *decode* makes of *blob*: the value's repr, or "rejected".

    Which of ``TypeError``/``ValueError`` reports a malformed wrapper
    may differ (the hook sees the innermost wrapper first, the two-pass
    reference the outermost); that one is raised may not.
    """
    try:
        return repr(decode(blob))
    except (TypeError, ValueError):
        return "rejected"


def _wrap(value, draw_bool):
    """Rebuild *value* with fragments at positions chosen by *draw_bool*."""
    if isinstance(value, dict):
        value = {key: _wrap(item, draw_bool) for key, item in value.items()}
    elif isinstance(value, (list, tuple)) and not isinstance(value, Point):
        value = [_wrap(item, draw_bool) for item in value]
    return Fragment(value) if draw_bool() else value


class TestWriterMatchesReference:
    @settings(max_examples=400)
    @given(values)
    def test_encoding_is_byte_identical(self, value):
        assert canonical_bytes(value) == reference_canonical_bytes(value)

    @settings(max_examples=300)
    @given(values, st.data())
    def test_fragments_at_any_position_change_nothing(self, value, data):
        expected = reference_canonical_bytes(value)
        wrapped = _wrap(value, lambda: data.draw(st.booleans()))
        assert canonical_bytes(wrapped) == expected
        # Filled fragments splice: a second pass yields the same bytes.
        assert canonical_bytes(wrapped) == expected
        assert canonical_bytes(Fragment(wrapped)) == expected

    @settings(max_examples=300)
    @given(values)
    def test_decoding_is_value_identical(self, value):
        # (A ``__float__`` key is not reserved on encode, so the encoders
        # can emit wrappers neither decoder accepts: both reject then.)
        blob = reference_canonical_bytes(value)
        expected = _outcome(reference_from_canonical_bytes, blob)
        assert _outcome(from_canonical_bytes, blob) == expected
        assert _outcome(lambda _: freeze(value), blob) == expected

    @settings(max_examples=300)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=6),
        lambda children: st.lists(children, max_size=3) | st.dictionaries(
            st.sampled_from(["a", "b", "__b64__", "__float__"]), children,
            max_size=2),
        max_leaves=8,
    ))
    def test_decoding_foreign_json_is_outcome_identical(self, doc):
        """Malformed and nested wrappers included: same value, or both reject.

        (Float *literals* are left out: canonical JSON has none, and one
        sitting directly inside a ``__float__`` wrapper is the single
        input the one-pass hook cannot tell from a nested wrapper — the
        reference converted it, the hook rejects it.)
        """
        blob = json.dumps(doc).encode("ascii")
        assert _outcome(from_canonical_bytes, blob) == _outcome(
            reference_from_canonical_bytes, blob)


class TestFragment:
    def test_data_encodes_once_and_drops_the_value(self):
        value = {"k": [1, b"\x00"]}
        fragment = Fragment(value)
        first = fragment.data
        value["k"].append(2)  # too late to matter
        assert fragment.data == first == reference_canonical_bytes({"k": [1, b"\x00"]})
        assert fragment._value is None

    def test_failed_encode_leaves_fragment_unfilled(self):
        fragment = Fragment({"bad": object()})
        with pytest.raises(TypeError):
            canonical_bytes([fragment])
        assert fragment._text is None

    def test_no_constructor_takes_bytes_as_already_canonical(self):
        # bytes wrapped in a fragment are a *value* (base64-tagged), never
        # spliced verbatim: received bytes cannot become a fragment's text.
        assert Fragment(b'{"x":1}').data == reference_canonical_bytes(b'{"x":1}')


class TestErrorCases:
    @pytest.mark.parametrize("value", [
        {1: "a"}, {"ok": {None: 1}}, [{"a": 1, 2: 3}], {("t",): 1},
    ])
    def test_non_str_keys_raise_type_error(self, value):
        with pytest.raises(TypeError, match="requires str keys"):
            reference_canonical_bytes(value)
        with pytest.raises(TypeError, match="requires str keys"):
            canonical_bytes(value)
        with pytest.raises(TypeError, match="requires str keys"):
            canonical_bytes(Fragment(value))

    @pytest.mark.parametrize("value", [
        {"__b64__": "x"}, [{"a": {"__b64__": 1}}], {"a": 1, "__b64__": 2},
    ])
    def test_reserved_key_raises_value_error(self, value):
        with pytest.raises(ValueError, match="reserved"):
            reference_canonical_bytes(value)
        with pytest.raises(ValueError, match="reserved"):
            canonical_bytes(value)

    @pytest.mark.parametrize("value", [
        object(), {"x": {1, 2}}, [bytearray(b"x")], {"f": lambda: 0}, 1j,
    ])
    def test_unencodable_types_raise_type_error(self, value):
        with pytest.raises(TypeError, match="not canonically encodable"):
            reference_canonical_bytes(value)
        with pytest.raises(TypeError, match="not canonically encodable"):
            canonical_bytes(value)

    def test_float_tag_is_not_reserved_on_encode(self):
        # Seed behaviour, kept: only the bytes tag is rejected as a key.
        value = {"__float__": "1.5"}
        assert canonical_bytes(value) == reference_canonical_bytes(value)
