"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

import repro.core.community as community_module
from repro.core.community import Community
from repro.core.runtime import SimRuntime
from repro.crypto.prng import DeterministicRandomSource
from repro.crypto.rsa import generate_keypair
from repro.crypto.signature import KeyPair
from repro.transport.inmemory import LinkProfile

# ---------------------------------------------------------------------------
# Key-generation cache: RSA keygen dominates test time, and tests never rely
# on two same-named parties having different keys, so cache by (name, bits).
# ---------------------------------------------------------------------------

_KEY_CACHE: "dict[tuple[str, int], KeyPair]" = {}
_CACHE_RNG = DeterministicRandomSource("test-key-cache")


def _cached_generate_party_keypair(party_id, bits=512, rng=None):
    key = (party_id, bits)
    if key not in _KEY_CACHE:
        _KEY_CACHE[key] = KeyPair(
            party_id=party_id,
            private_key=generate_keypair(bits, _CACHE_RNG),
        )
    return _KEY_CACHE[key]


@pytest.fixture(autouse=True)
def _fast_keys(monkeypatch):
    monkeypatch.setattr(
        community_module, "generate_party_keypair", _cached_generate_party_keypair
    )


# ---------------------------------------------------------------------------
# Community factories
# ---------------------------------------------------------------------------

@pytest.fixture
def make_community():
    """Factory for simulated communities with configurable faults."""

    def build(names_or_count, seed=0, profile=None, **kwargs) -> Community:
        if isinstance(names_or_count, int):
            names = [f"Org{i + 1}" for i in range(names_or_count)]
        else:
            names = list(names_or_count)
        runtime = SimRuntime(seed=seed,
                             profile=profile or LinkProfile(latency=0.005))
        return Community(names, runtime=runtime, **kwargs)

    return build


@pytest.fixture
def lossy_profile():
    return LinkProfile(latency=0.01, jitter=0.02,
                       drop_probability=0.25, duplicate_probability=0.15)


@pytest.fixture
def community2(make_community) -> Community:
    return make_community(2, seed=2)


@pytest.fixture
def community3(make_community) -> Community:
    return make_community(3, seed=3)


@pytest.fixture
def community4(make_community) -> Community:
    return make_community(4, seed=4)
