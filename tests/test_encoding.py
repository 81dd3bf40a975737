"""Canonical encoding: determinism, round-trips, and rejection rules."""

from __future__ import annotations

import base64

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.encoding import b64, canonical_bytes, from_canonical_bytes


class TestCanonicalBytes:
    def test_dict_key_order_is_irrelevant(self):
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes({"b": 2, "a": 1})

    def test_nested_structures_round_trip(self):
        value = {"a": [1, 2, {"b": b"\x00\xff", "c": None}], "d": True}
        assert from_canonical_bytes(canonical_bytes(value)) == value

    def test_bytes_round_trip(self):
        value = {"blob": bytes(range(256))}
        assert from_canonical_bytes(canonical_bytes(value)) == value

    def test_tuples_normalise_to_lists(self):
        assert canonical_bytes((1, 2)) == canonical_bytes([1, 2])

    def test_distinct_values_encode_distinctly(self):
        assert canonical_bytes({"a": 1}) != canonical_bytes({"a": 2})

    def test_bool_and_int_are_distinguished_from_each_other(self):
        # JSON maps True -> true and 1 -> 1, which differ.
        assert canonical_bytes(True) != canonical_bytes(1)

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError):
            canonical_bytes({1: "a"})

    def test_reserved_key_rejected(self):
        with pytest.raises(ValueError):
            canonical_bytes({"__b64__": "x"})

    def test_unencodable_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_bytes({"x": object()})

    def test_float_round_trip(self):
        value = {"f": 0.1}
        assert from_canonical_bytes(canonical_bytes(value)) == value

    def test_output_is_ascii(self):
        canonical_bytes({"text": "héllo ünïcode"}).decode("ascii")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(2**53), max_value=2**53)
    | st.text(max_size=20) | st.binary(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.text(max_size=8).filter(lambda s: s != "__b64__" and s != "__float__"),
        children, max_size=4,
    ),
    max_leaves=12,
)


class TestCanonicalProperties:
    @given(json_values)
    def test_round_trip(self, value):
        assert from_canonical_bytes(canonical_bytes(value)) == value

    @given(json_values)
    def test_deterministic(self, value):
        assert canonical_bytes(value) == canonical_bytes(value)

    @given(st.binary(max_size=64))
    def test_b64_round_trip(self, data):
        assert base64.b64decode(b64(data)) == data
