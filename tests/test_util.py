"""Clocks and identifier helpers."""

from __future__ import annotations

import pytest

from repro.util.clocks import SystemClock, VirtualClock
from repro.util.identifiers import validate_party_id
from tests.engine_helpers import OffsetClock


class TestVirtualClock:
    def test_starts_at_configured_time(self):
        assert VirtualClock(5.0).now() == 5.0

    def test_advance(self):
        clock = VirtualClock()
        assert clock.advance(2.5) == 2.5
        assert clock.now() == 2.5

    def test_advance_to_is_monotonic(self):
        clock = VirtualClock(10.0)
        clock.advance_to(5.0)  # no-op: already past
        assert clock.now() == 10.0
        clock.advance_to(12.0)
        assert clock.now() == 12.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)


class TestOffsetClock:
    def test_offset_applies(self):
        base = VirtualClock(100.0)
        skewed = OffsetClock(base, -3.0)
        assert skewed.now() == 97.0

    def test_tracks_base(self):
        base = VirtualClock()
        skewed = OffsetClock(base, 1.0)
        base.advance(5.0)
        assert skewed.now() == 6.0


class TestSystemClock:
    def test_moves_forward(self):
        clock = SystemClock()
        assert clock.now() <= clock.now()


class TestPartyIds:
    def test_valid_ids(self):
        for good in ("OrgA", "a", "Org-1.test_x", "X" * 128):
            assert validate_party_id(good) == good

    @pytest.mark.parametrize("bad", ["", " lead", "has space", "a/b", "-lead",
                                     ".lead", "X" * 129, "nul\x00l"])
    def test_invalid_ids(self, bad):
        with pytest.raises(ValueError):
            validate_party_id(bad)

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            validate_party_id(42)  # type: ignore[arg-type]
