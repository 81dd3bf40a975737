"""Workload generators for the benchmark harness."""

from __future__ import annotations

from typing import Iterator

from repro.crypto.prng import DeterministicRandomSource


def counter_states(count: int, payload_keys: int = 1,
                   payload_bytes: int = 16) -> "Iterator[dict]":
    """A sequence of distinct dict states of controlled size."""
    filler = "x" * payload_bytes
    for index in range(count):
        state: dict = {"counter": index + 1}
        for key in range(payload_keys):
            state[f"field{key}"] = f"{filler}{index}"
        yield state


def random_states(count: int, seed: "int | str" = 0,
                  key_space: int = 8,
                  payload_bytes: int = 16) -> "Iterator[dict]":
    """Seeded random dict states (distinct via a monotonic counter).

    The companion of :func:`counter_states` for workloads that should
    *vary with the seed*: each state carries one randomly chosen key
    with a random payload, drawn from a :class:`DeterministicRandomSource`
    — the same seed always yields the same sequence.
    """
    rng = DeterministicRandomSource(f"workload-states:{seed}")
    filler = "x" * payload_bytes
    for index in range(count):
        key = f"k{rng.random_below(key_space)}"
        yield {
            "counter": index + 1,
            key: f"{filler}{rng.random_below(1 << 16)}",
        }


def large_state(size_bytes: int, chunk: int = 64) -> dict:
    """A dict state of at least *size_bytes* canonical bytes."""
    from repro.util.encoding import canonical_bytes

    state: dict = {}
    index = 0
    while len(canonical_bytes(state)) < size_bytes:
        state[f"blob{index}"] = "v" * chunk
        index += 1
    return state
