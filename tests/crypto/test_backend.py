"""Crypto backend layer: registry, pure == tables equivalence, batching."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.backend import (
    PureBackend,
    TablesBackend,
    available_backends,
    current_backend,
    get_backend,
    set_backend,
    use_backend,
)
from repro.crypto.modes import decrypt_ecb, encrypt_ecb

PURE = get_backend("pure")
TABLES = get_backend("tables")


def _bytes_or_bytearray(n: int):
    """An n-byte key as ``bytes`` or ``bytearray``: backends accept both."""
    raw = st.binary(min_size=n, max_size=n)
    return st.one_of(raw, raw.map(bytearray))


keys = st.sampled_from([16, 24, 32]).flatmap(_bytes_or_bytearray)
key_lists = st.lists(_bytes_or_bytearray(32), min_size=0, max_size=12)
buffers = st.integers(min_value=0, max_value=24).flatmap(
    lambda n: st.binary(min_size=16 * n, max_size=16 * n)
)
small_buffers = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.binary(min_size=16 * n, max_size=16 * n)
)


class TestRegistry:
    def test_available(self):
        assert available_backends() == ("pure", "tables")
        assert isinstance(get_backend("pure"), PureBackend)
        assert isinstance(get_backend("tables"), TablesBackend)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown crypto backend"):
            get_backend("openssl")
        with pytest.raises(ValueError, match="unknown crypto backend"):
            set_backend("openssl")

    def test_default_is_tables(self):
        assert current_backend().name == "tables"

    def test_use_backend_restores(self):
        before = current_backend()
        with use_backend("pure") as active:
            assert active.name == "pure"
            assert current_backend() is active
        assert current_backend() is before

    def test_use_backend_restores_on_error(self):
        before = current_backend()
        with pytest.raises(RuntimeError):
            with use_backend("pure"):
                raise RuntimeError("boom")
        assert current_backend() is before

    def test_use_backend_accepts_instance(self):
        with use_backend(PURE) as active:
            assert active is PURE


class TestEquivalence:
    """pure == tables, bit for bit, for every key size and buffer shape."""

    @settings(max_examples=40, deadline=None)
    @given(key=keys, plaintext=buffers)
    def test_encrypt_decrypt_roundtrip(self, key, plaintext):
        ciphertext = TABLES.encrypt_ecb(key, plaintext)
        assert ciphertext == PURE.encrypt_ecb(key, plaintext)
        assert TABLES.decrypt_ecb(key, ciphertext) == plaintext
        assert PURE.decrypt_ecb(key, ciphertext) == plaintext

    @settings(max_examples=40, deadline=None)
    @given(keys_=key_lists, payload=small_buffers)
    def test_seal_many_and_open_many(self, keys_, payload):
        assert TABLES.seal_many(keys_, payload) == PURE.seal_many(keys_, payload)
        assert TABLES.open_many(keys_, payload) == PURE.open_many(keys_, payload)

    @settings(max_examples=40, deadline=None)
    @given(keys_=key_lists, payload=small_buffers)
    def test_open_many_matches_per_key_loop(self, keys_, payload):
        assert TABLES.open_many(keys_, payload) == [
            decrypt_ecb(k, payload) for k in keys_
        ]
        assert TABLES.seal_many(keys_, payload) == [
            encrypt_ecb(k, payload) for k in keys_
        ]

    @settings(max_examples=25, deadline=None)
    @given(
        payload=small_buffers,
        key128=st.binary(min_size=16, max_size=16),
        key192=st.binary(min_size=24, max_size=24),
        key256=st.binary(min_size=32, max_size=32),
    )
    def test_open_many_mixed_key_lengths(self, payload, key128, key192, key256):
        # Mixed lengths exercise the per-round-count grouping: results must
        # still come back in input order.
        mixed = [key256, key128, key192, key256, key128]
        assert TABLES.open_many(mixed, payload) == PURE.open_many(mixed, payload)
        assert TABLES.seal_many(mixed, payload) == PURE.seal_many(mixed, payload)

    @settings(max_examples=60, deadline=None)
    @given(data=st.binary(min_size=0, max_size=512))
    def test_sha256_cross_check(self, data):
        digest = hashlib.sha256(data).digest()
        assert PURE.sha256(data) == digest
        assert TABLES.sha256(data) == digest


class TestAlignmentRejection:
    @settings(max_examples=20, deadline=None)
    @given(
        key=keys,
        bad=st.binary(min_size=1, max_size=64).filter(lambda b: len(b) % 16),
    )
    def test_non_block_aligned_rejected(self, key, bad):
        for backend in (PURE, TABLES):
            with pytest.raises(ValueError, match="block-aligned"):
                backend.encrypt_ecb(key, bad)
            with pytest.raises(ValueError, match="block-aligned"):
                backend.decrypt_ecb(key, bad)
            with pytest.raises(ValueError, match="block-aligned"):
                backend.seal_many([key], bad)
            with pytest.raises(ValueError, match="block-aligned"):
                backend.open_many([key], bad)

    def test_misaligned_rejected_even_with_no_keys(self):
        for backend in (PURE, TABLES):
            with pytest.raises(ValueError, match="block-aligned"):
                backend.seal_many([], b"x")
            with pytest.raises(ValueError, match="block-aligned"):
                backend.open_many([], b"x")

    def test_bad_key_length_rejected(self):
        for backend in (PURE, TABLES):
            with pytest.raises(ValueError, match="AES key"):
                backend.encrypt_ecb(b"short", b"\x00" * 16)
            with pytest.raises(ValueError, match="AES key"):
                backend.open_many([b"\x00" * 17], b"\x00" * 16)


class TestEdgeCases:
    def test_empty_buffer(self):
        key = b"k" * 32
        for backend in (PURE, TABLES):
            assert backend.encrypt_ecb(key, b"") == b""
            assert backend.decrypt_ecb(key, b"") == b""
            assert backend.seal_many([key, key], b"") == [b"", b""]
            assert backend.open_many([key, key], b"") == [b"", b""]

    def test_empty_key_list(self):
        for backend in (PURE, TABLES):
            assert backend.seal_many([], b"\x00" * 16) == []
            assert backend.open_many([], b"\x00" * 16) == []

    def test_fips197_vector(self):
        # FIPS-197 Appendix C.1, through both backends' buffer paths.
        key = bytes(range(16))
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        for backend in (PURE, TABLES):
            assert backend.encrypt_ecb(key, plaintext * 3) == expected * 3
            assert backend.decrypt_ecb(key, expected * 3) == plaintext * 3

    def test_repeated_keys_in_open_many(self):
        key = b"r" * 32
        payload = b"p" * 48
        assert TABLES.open_many([key, key, key], payload) == [
            decrypt_ecb(key, payload)
        ] * 3


class TestBatchedKeySchedule:
    """The SWAR multi-key expansion must equal FIPS-197 word for word."""

    @settings(max_examples=25, deadline=None)
    @given(
        key_len=st.sampled_from([16, 24, 32]),
        seeds=st.lists(st.binary(min_size=8, max_size=8), min_size=1, max_size=9),
    )
    def test_batch_equals_reference_schedule(self, key_len, seeds):
        from repro.crypto.aes import AES
        from repro.crypto.backend import TablesBackend

        backend = TablesBackend()  # fresh instance: no cache interference
        keys = [(seed * 4)[:key_len] for seed in seeds]
        batched = backend._expand_uncached(list(dict.fromkeys(keys)))
        reference = {
            key: [bytes(rk) for rk in AES(key)._round_keys]
            for key in dict.fromkeys(keys)
        }
        for key, schedule in zip(dict.fromkeys(keys), batched):
            assert schedule == reference[key]

    @staticmethod
    def _assert_reference(backend, keys):
        from repro.crypto.aes import AES

        for key, schedule in zip(keys, backend._expand_uncached(keys)):
            assert schedule == [bytes(rk) for rk in AES(key)._round_keys]

    @pytest.mark.parametrize("key_len", [16, 24, 32])
    @pytest.mark.parametrize("n_keys", [48, 64])
    def test_benchmark_batch_sizes_equal_reference(self, n_keys, key_len):
        rng = random.Random(n_keys * key_len)
        keys = [rng.randbytes(key_len) for _ in range(n_keys)]
        self._assert_reference(TablesBackend(), keys)

    def test_batch_larger_than_cache_equals_reference(self):
        # One call that evicts its own first keys before it returns.
        backend = TablesBackend()
        rng = random.Random(1025)
        keys = [rng.randbytes(32) for _ in range(backend._RK_CACHE_MAX + 76)]
        self._assert_reference(backend, keys)
        assert len(backend._round_keys) == backend._RK_CACHE_MAX
        assert list(backend._round_keys) == keys[-backend._RK_CACHE_MAX :]

    def test_oversized_seal_many_equals_pure(self):
        backend = TablesBackend()
        rng = random.Random(7)
        keys = [rng.randbytes(32) for _ in range(backend._RK_CACHE_MAX + 76)]
        payload = rng.randbytes(16)
        assert backend.seal_many(keys, payload) == PURE.seal_many(keys, payload)

    def test_mixed_lengths_in_one_seal_many_equal_pure(self):
        rng = random.Random(11)
        keys = [rng.randbytes(rng.choice([16, 24, 32])) for _ in range(64)]
        assert {len(key) for key in keys} == {16, 24, 32}
        payload = rng.randbytes(48)
        sealed = TablesBackend().seal_many(keys, payload)
        assert sealed == PURE.seal_many(keys, payload)
        assert TablesBackend().open_many(keys, payload) == PURE.open_many(keys, payload)

    def test_cache_burst_does_not_lose_in_flight_hits(self):
        from repro.crypto.backend import TablesBackend

        backend = TablesBackend()
        backend._RK_CACHE_MAX = 8  # force eviction pressure
        old = b"o" * 32
        backend.encrypt_ecb(old, b"\x00" * 16)  # cache `old`
        burst = [old] + [bytes([i]) * 32 for i in range(16)]
        payload = b"p" * 16
        assert backend.seal_many(burst, payload) == [
            encrypt_ecb(k, payload) for k in burst
        ]


class TestScheduleCacheHits:
    """Keys already in the schedule LRU are never expanded again."""

    @pytest.fixture
    def counted(self, monkeypatch):
        backend = TablesBackend()
        expanded = []
        original = backend._expand_uncached

        def counting(keys):
            expanded.append(list(keys))
            return original(keys)

        monkeypatch.setattr(backend, "_expand_uncached", counting)
        return backend, expanded

    def test_second_open_many_expands_nothing(self, counted):
        backend, expanded = counted
        rng = random.Random(2)
        keys = [rng.randbytes(32) for _ in range(64)]
        sealed = rng.randbytes(48)
        first = backend.open_many(keys, sealed)
        assert expanded == [keys]
        expanded.clear()
        assert backend.open_many(keys, sealed) == first
        reordered = keys[::-1]
        assert backend.seal_many(reordered, sealed) == PURE.seal_many(reordered, sealed)
        assert backend.open_many([bytearray(k) for k in keys], sealed) == first
        assert expanded == []

    def test_second_encrypt_ecb_expands_nothing(self, counted):
        backend, expanded = counted
        key = b"e" * 24
        plaintext = b"p" * 32
        ciphertext = backend.encrypt_ecb(key, plaintext)
        assert expanded == [[key]]
        expanded.clear()
        assert backend.encrypt_ecb(key, plaintext) == ciphertext
        assert backend.decrypt_ecb(bytearray(key), ciphertext) == plaintext
        assert backend.open_many([key], ciphertext) == [plaintext]
        assert expanded == []

    def test_only_misses_are_expanded(self, counted):
        backend, expanded = counted
        cached = [bytes([i]) * 32 for i in range(4)]
        fresh = [bytes([100 + i]) * 32 for i in range(3)]
        backend.open_many(cached, b"\x00" * 16)
        expanded.clear()
        backend.open_many(cached + fresh + cached, b"\x00" * 16)
        assert expanded == [fresh]
