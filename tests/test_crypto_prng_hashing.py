"""PRNG and hash substrate."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.hashing import (
    DIGEST_SIZE,
    hash_members,
    hash_value,
    secure_hash,
)
from repro.crypto.prng import DeterministicRandomSource, SystemRandomSource


class TestDeterministicRandomSource:
    def test_same_seed_same_stream(self):
        a = DeterministicRandomSource(42)
        b = DeterministicRandomSource(42)
        assert a.random_bytes(100) == b.random_bytes(100)

    def test_different_seeds_differ(self):
        assert (DeterministicRandomSource(1).random_bytes(32)
                != DeterministicRandomSource(2).random_bytes(32))

    def test_seed_types(self):
        for seed in (b"bytes", "text", 12345):
            DeterministicRandomSource(seed).random_bytes(8)

    def test_bad_seed_type(self):
        with pytest.raises(TypeError):
            DeterministicRandomSource(1.5)  # type: ignore[arg-type]

    def test_fork_is_independent_of_consumption_order(self):
        parent1 = DeterministicRandomSource("p")
        parent2 = DeterministicRandomSource("p")
        parent2.random_bytes(64)  # consume from parent first
        assert parent1.fork("x").random_bytes(16) == parent2.fork("x").random_bytes(16)

    def test_forks_with_different_labels_differ(self):
        parent = DeterministicRandomSource("p")
        assert parent.fork("a").random_bytes(16) != parent.fork("b").random_bytes(16)

    def test_stream_is_consumed(self):
        rng = DeterministicRandomSource(0)
        assert rng.random_bytes(8) != rng.random_bytes(8)

    @given(st.integers(min_value=1, max_value=10_000))
    def test_random_below_in_range(self, bound):
        rng = DeterministicRandomSource(bound)
        for _ in range(10):
            assert 0 <= rng.random_below(bound) < bound

    def test_random_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DeterministicRandomSource(0).random_below(0)

    def test_random_below_covers_range(self):
        rng = DeterministicRandomSource("coverage")
        seen = {rng.random_below(4) for _ in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRandomSource(0).random_bytes(-1)


class TestSystemRandomSource:
    def test_length(self):
        assert len(SystemRandomSource().random_bytes(33)) == 33


class TestHashing:
    def test_digest_size(self):
        assert len(secure_hash(b"abc")) == DIGEST_SIZE == 32

    def test_requires_bytes(self):
        with pytest.raises(TypeError):
            secure_hash("text")  # type: ignore[arg-type]

    def test_hash_value_structural(self):
        assert hash_value({"a": 1, "b": 2}) == hash_value({"b": 2, "a": 1})
        assert hash_value({"a": 1}) != hash_value({"a": 2})

    def test_hash_members_is_order_sensitive(self):
        # Member order encodes join recency (sponsor selection), so
        # different orders are genuinely different groups.
        assert hash_members(["A", "B"]) != hash_members(["B", "A"])

    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_collision_free_on_samples(self, a, b):
        if a != b:
            assert secure_hash(a) != secure_hash(b)
