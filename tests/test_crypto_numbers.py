"""Number theory substrate: primality, primes, modular arithmetic."""

from __future__ import annotations

import hashlib
import os
import pathlib
import subprocess
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.community as community_module
import repro.crypto.numbers as numbers
from repro.core.community import Community
from repro.crypto.numbers import (
    bytes_to_int,
    extended_gcd,
    generate_prime,
    int_to_bytes,
    is_probable_prime,
    mod_inverse,
    mod_pow,
)
from repro.crypto.prng import DeterministicRandomSource
from repro.crypto.signature import generate_party_keypair

KNOWN_PRIMES = [2, 3, 5, 7, 11, 13, 97, 7919, 104729, 2**31 - 1]
KNOWN_COMPOSITES = [0, 1, 4, 9, 15, 561, 1105, 1729, 2465, 6601,  # Carmichael
                    2**31, 104729 * 7919]


class TestMillerRabin:
    @pytest.mark.parametrize("p", KNOWN_PRIMES)
    def test_known_primes(self, p):
        assert is_probable_prime(p)

    @pytest.mark.parametrize("c", KNOWN_COMPOSITES)
    def test_known_composites_including_carmichael(self, c):
        assert not is_probable_prime(c)

    def test_large_prime_uses_random_witnesses(self):
        rng = DeterministicRandomSource(1)
        # 2^521 - 1 is a Mersenne prime above the deterministic bound.
        assert is_probable_prime(2**521 - 1, rng.random_below)

    def test_large_composite(self):
        rng = DeterministicRandomSource(1)
        assert not is_probable_prime((2**521 - 1) * 3, rng.random_below)

    def test_large_candidate_requires_rng(self):
        with pytest.raises(ValueError):
            is_probable_prime(2**400 + 1)

    @given(st.integers(min_value=2, max_value=100_000))
    def test_agrees_with_trial_division(self, n):
        by_division = n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_probable_prime(n) == by_division


@pytest.fixture
def witness_calls(monkeypatch):
    """Every Miller-Rabin exponentiation, as the list of its witnesses."""
    calls = []
    real = numbers._miller_rabin_witness

    def counting(n, a):
        calls.append(a)
        return real(n, a)

    monkeypatch.setattr(numbers, "_miller_rabin_witness", counting)
    return calls


def _sha256(*values: int) -> str:
    return hashlib.sha256(b"".join(int_to_bytes(v) for v in values)).hexdigest()


class TestSmallFactorGcd:
    @pytest.mark.parametrize("p", [307, 7919, 16381])
    def test_small_factor_is_found_without_exponentiating(self, p, witness_calls):
        rng = DeterministicRandomSource(5)
        draws = []

        def rand_below(bound):
            draws.append(bound)
            return rng.random_below(bound)

        assert not is_probable_prime(p * (2**521 - 1), rand_below)
        assert len(draws) == 1
        assert witness_calls == []

    @pytest.mark.parametrize("exponent", [127, 521, 607])
    def test_mersenne_primes_pass_every_round(self, exponent, witness_calls):
        rng = DeterministicRandomSource(6)
        assert is_probable_prime(2**exponent - 1, rng.random_below)
        assert len(witness_calls) == 40

    def test_exponentiations_of_a_seeded_1024_bit_search(self, witness_calls):
        rng = DeterministicRandomSource("prime-search:2")
        prime = generate_prime(1024, rng.random_below)
        assert _sha256(prime) == (
            "3a81683124c2115c8a1524216cf49bf9867028277d9e49bb8e79dd98042f7775")
        assert len(witness_calls) == 143  # 210 before the gcd


class TestSeededKeys:
    """A seed names the same primes: golden runs and stored evidence
    depend on the keys that ``Community(seed=...)`` derives."""

    E2E_512 = {
        "CA": "c83404e0297c4c661521af63216e70c8cee011c06ff99bbb592d69cc6834653b",
        "TSA": "305b8f9e640e49135c530dac44822f5851949e2b8045021ac4e446bbeb088221",
        "Org1": "6997c34b79c27bb335631d9bc7cc9589a20475adb6dc9b8a5cd8576afe8c6951",
        "Org2": "9adfb88d7f6190f7cd9d307e2b008493b825d6d66053a3595a0280a3aac0ea72",
        "Org3": "d33bd3ef25d50ad7ca18825bd89275a9480c3ed27d4fd319e61a4f7b996fa9e4",
    }
    ORG1_2048 = "37dc41c332c91659428a566dfced0ba4da4246568a1d2f36a2d2cad10710c2c5"

    @staticmethod
    def _fingerprint(keypair) -> str:
        key = keypair.private_key
        return _sha256(key.prime_p, key.prime_q)

    def test_e2e_community_keys_at_512_bits(self, monkeypatch):
        keys = {}

        def recording(name, **kwargs):
            keys[name] = generate_party_keypair(name, **kwargs)
            return keys[name]

        monkeypatch.setattr(community_module, "generate_party_keypair", recording)
        Community(["Org1", "Org2", "Org3"], seed="e2e")
        assert {name: self._fingerprint(kp) for name, kp in keys.items()} \
            == self.E2E_512

    def test_org1_key_at_2048_bits(self):
        # The stream Community(seed="e2e") forks for Org1's key.
        rng = DeterministicRandomSource("community:e2e").fork("key:Org1")
        keypair = generate_party_keypair("Org1", bits=2048, rng=rng)
        assert self._fingerprint(keypair) == self.ORG1_2048


class TestGeneratePrime:
    def test_exact_bit_length(self):
        rng = DeterministicRandomSource(2)
        for bits in (16, 32, 64):
            p = generate_prime(bits, rng.random_below)
            assert p.bit_length() == bits
            assert is_probable_prime(p, rng.random_below)

    def test_top_two_bits_set(self):
        rng = DeterministicRandomSource(3)
        p = generate_prime(32, rng.random_below)
        assert p >> 30 == 0b11

    def test_too_small_rejected(self):
        rng = DeterministicRandomSource(4)
        with pytest.raises(ValueError):
            generate_prime(4, rng.random_below)


class TestExtendedGcd:
    @given(st.integers(min_value=1, max_value=10**9),
           st.integers(min_value=1, max_value=10**9))
    def test_bezout_identity(self, a, b):
        g, x, y = extended_gcd(a, b)
        assert a * x + b * y == g
        assert a % g == 0 and b % g == 0


class TestModInverse:
    @given(st.integers(min_value=1, max_value=10**6))
    def test_inverse_mod_prime(self, a):
        p = 1_000_003  # prime
        if a % p == 0:
            return
        inv = mod_inverse(a, p)
        assert (a * inv) % p == 1

    def test_no_inverse_when_not_coprime(self):
        with pytest.raises(ValueError):
            mod_inverse(6, 9)


class TestByteConversion:
    @given(st.integers(min_value=0, max_value=2**256))
    def test_round_trip(self, n):
        assert bytes_to_int(int_to_bytes(n)) == n

    def test_fixed_length_padding(self):
        assert int_to_bytes(1, 4) == b"\x00\x00\x00\x01"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            int_to_bytes(-1)


@st.composite
def _odd_power(draw):
    """(base, exponent, modulus): an odd modulus of 1 to 4096 bits, a base
    in ``[0, 3 * modulus)`` and an exponent from 0 to ``2**bits``."""
    bits = draw(st.integers(min_value=1, max_value=4096))
    modulus = draw(st.integers(min_value=1 << (bits - 1),
                               max_value=(1 << bits) - 1)) | 1
    base = draw(st.integers(min_value=0, max_value=3 * modulus - 1))
    exponent = draw(st.integers(min_value=0, max_value=1 << bits))
    return base, exponent, modulus


class TestModPow:
    """``mod_pow`` is builtin ``pow``, run on OpenSSL for odd moduli."""

    @settings(max_examples=60, deadline=None)
    @given(_odd_power())
    @example((0, 0, 1))
    @example((5, 7, 1))
    @example((2, 0, 3))
    @example((8, 5, 3))
    @example((2**64, 2**64 + 1, 2**61 - 1))
    def test_equals_builtin_pow_for_odd_moduli(self, power):
        assert mod_pow(*power) == pow(*power)

    @pytest.mark.parametrize("base, exponent, modulus", [
        (3, 5, 2), (7, 100, 2**64), (12345, 65537, 2**255 + 2),
        (3, -1, 7), (3, -1, 2**127 - 1), (5, -3, 2**61 - 1), (3, -1, 10),
        (4, 3, -7), (4, 0, -7),
    ])
    def test_even_modulus_and_negative_exponent_are_pow(
            self, base, exponent, modulus):
        assert mod_pow(base, exponent, modulus) == pow(base, exponent, modulus)

    @pytest.mark.parametrize("base, exponent, modulus", [
        (6, -1, 9), (0, -1, 7), (3, 2, 0)])
    def test_raises_what_pow_raises(self, base, exponent, modulus):
        with pytest.raises(ValueError):
            pow(base, exponent, modulus)
        with pytest.raises(ValueError):
            mod_pow(base, exponent, modulus)

    def test_builtin_fallback_signs_the_same_bytes(self, monkeypatch):
        def sign_and_verify():
            rng = DeterministicRandomSource("mod-pow-fallback")
            keypair = generate_party_keypair("A", bits=512, rng=rng)
            signature = keypair.signer().sign({"x": 1})
            key = keypair.private_key
            return (key.prime_p, key.prime_q, signature.value,
                    keypair.verifier().verify({"x": 1}, signature))

        native = sign_and_verify()
        monkeypatch.setattr(numbers, "_libcrypto", None)
        fallback = sign_and_verify()
        assert fallback == native
        assert native[3] is True

    def test_a_short_exponent_on_a_small_modulus_stays_on_pow(
            self, monkeypatch):
        # A handle with no BN functions: touching it raises AttributeError.
        monkeypatch.setattr(numbers, "_libcrypto", object())
        modulus = (1 << 767) + 1155
        assert mod_pow(3, 65537, modulus) == pow(3, 65537, modulus)
        with pytest.raises(AttributeError):
            mod_pow(3, 65537, (1 << 1023) + 1155)
        with pytest.raises(AttributeError):
            mod_pow(3, 1 << 64, modulus)

    def test_an_interpreter_without_ctypes_falls_back_to_pow(self):
        probe = (
            "import sys\n"
            "sys.modules['ctypes'] = None\n"
            "from repro.crypto.numbers import NATIVE_MOD_POW, mod_pow\n"
            "modulus = 2**255 - 19\n"
            "assert mod_pow(7, modulus - 2, modulus) == pow(7, modulus - 2,"
            " modulus)\n"
            "print(NATIVE_MOD_POW)\n")
        src = str(pathlib.Path(numbers.__file__).parents[2])
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)
        assert done.stdout.strip() == "False"

    def test_threads_on_distinct_moduli(self):
        failures = []

        def worker(seed):
            rng = DeterministicRandomSource(f"mod-pow-thread:{seed}")
            for _ in range(500):
                modulus = rng.random_below(1 << 256) | 1 << 255 | 1
                base = rng.random_below(modulus)
                exponent = rng.random_below(1 << 256)
                if mod_pow(base, exponent, modulus) != pow(base, exponent,
                                                           modulus):
                    failures.append((base, exponent, modulus))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_no_memory_grows_per_call(self):
        probe = (
            "import resource\n"
            "from repro.crypto.numbers import mod_pow\n"
            "modulus = 2**255 - 19\n"
            "def run(calls):\n"
            "    for base in range(calls):\n"
            "        mod_pow(base, modulus - 2, modulus)\n"
            "run(1000)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "run(100_000)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss"
            " - before)\n")
        src = str(pathlib.Path(numbers.__file__).parents[2])
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=300, check=True)
        assert int(done.stdout) < 2048  # KB: ru_maxrss counts kilobytes
