"""Secure pseudo-random sequence generation.

Section 4.2 of the paper assumes "a secure pseudo-random sequence
generator to generate statistically random and unpredictable sequences of
bits".  We provide two implementations behind one interface:

* :class:`SystemRandomSource` — the operating system CSPRNG (``secrets``),
  used by default in real deployments.
* :class:`DeterministicRandomSource` — a SHA-256 counter-mode generator
  seeded explicitly.  Counter-mode hashing is a standard CSPRNG
  construction; determinism is what makes the protocol test suite and the
  simulated network reproducible.
"""

from __future__ import annotations

import hashlib
import secrets
import threading


class RandomSource:
    """Abstract source of random bytes and bounded integers."""

    def random_bytes(self, length: int) -> bytes:
        raise NotImplementedError

    def random_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        bits = bound.bit_length()
        nbytes = (bits + 7) // 8
        mask = (1 << bits) - 1
        while True:
            candidate = int.from_bytes(self.random_bytes(nbytes), "big") & mask
            if candidate < bound:
                return candidate


class SystemRandomSource(RandomSource):
    """Operating-system CSPRNG."""

    def random_bytes(self, length: int) -> bytes:
        if length < 0:
            raise ValueError("length must be non-negative")
        return secrets.token_bytes(length)


class DeterministicRandomSource(RandomSource):
    """SHA-256 counter-mode generator with an explicit seed.

    The output stream is ``SHA256(seed || counter)`` blocks.  Unpredictable
    to parties who do not know the seed, and exactly reproducible for a
    given seed, which the simulation runtime relies on.
    """

    _BLOCK = hashlib.sha256().digest_size

    def __init__(self, seed: "bytes | str | int") -> None:
        if isinstance(seed, int):
            seed = seed.to_bytes(max(1, (seed.bit_length() + 7) // 8), "big")
        elif isinstance(seed, str):
            seed = seed.encode("utf-8")
        elif not isinstance(seed, bytes):
            raise TypeError("seed must be bytes, str or int")
        self._seed = hashlib.sha256(b"repro-prng-seed:" + seed).digest()
        self._counter = 0
        self._buffer = b""
        self._lock = threading.Lock()

    def random_bytes(self, length: int) -> bytes:
        if length < 0:
            raise ValueError("length must be non-negative")
        with self._lock:
            while len(self._buffer) < length:
                block = hashlib.sha256(
                    self._seed + self._counter.to_bytes(8, "big")
                ).digest()
                self._counter += 1
                self._buffer += block
            out, self._buffer = self._buffer[:length], self._buffer[length:]
            return out

    def fork(self, label: str) -> "DeterministicRandomSource":
        """Derive an independent child stream, e.g. one per party.

        Forking keeps per-party randomness independent of the *order* in
        which parties consume bytes, which keeps simulations deterministic
        under scheduling changes.
        """
        return DeterministicRandomSource(self._seed + label.encode("utf-8"))
