"""Pluggable crypto backends: the batched symmetric hot path.

Every friending episode is dominated by symmetric work: sealing the
request under the profile key, trial-decrypting the sealed message under
every candidate key, sealing one acknowledge element per candidate, and
the initiator opening reply elements (Tables IV-VII of the paper measure
exactly this cost).  The seed implementation drives all of it through
:mod:`repro.crypto.aes`'s per-block, per-round Python loops.

This module introduces a backend seam with two implementations:

``pure``
    The from-scratch reference substrate, byte-for-byte the seed
    behaviour: :mod:`repro.crypto.modes` per-block AES, plus the
    from-scratch :func:`repro.crypto.sha256.sha256_pure` behind the
    backend's ``sha256`` primitive.

``tables`` (default)
    A table-driven implementation that processes *whole multi-block
    buffers in one call*.  SubBytes/InvSubBytes run through 256-byte
    translation tables via :meth:`bytes.translate` (C speed); ShiftRows,
    MixColumns and AddRoundKey run as SWAR bitwise algebra on one large
    integer covering the entire buffer, so the Python interpreter
    executes a few dozen operations per *round per buffer* instead of
    dozens per *round per block*.  :meth:`~CryptoBackend.open_many` and
    :meth:`~CryptoBackend.seal_many` extend the same trick across keys:
    all candidate keys of a reply element are trial-decrypted in a
    single pass over one packed integer.  SHA-256 takes the
    :mod:`hashlib` fast path (stdlib only; the pure implementation is
    kept and cross-checked in the tests).

Both backends produce bit-identical ciphertext (pinned by hypothesis
equivalence properties in ``tests/crypto/test_backend.py``), so backend
choice is purely a speed/readability trade —
``benchmarks/bench_crypto_backends.py`` quantifies it and appends the
measurement to the ``BENCH_crypto.json`` trajectory.

Scope note: the protocol hot path routes its *AES* work through the
selected backend.  Profile hashing (:mod:`repro.crypto.hashes`) is
hashlib everywhere — that already was the seed's fast path — so the
backend's ``sha256`` primitive exists to make the pure-vs-hashlib gap
measurable (the Table IV question), not to change protocol hashing.
"""

from __future__ import annotations

import hashlib
import struct
from collections import OrderedDict
from collections.abc import Sequence
from contextlib import contextmanager

from repro.crypto.aes import BLOCK_SIZE, _INV_SBOX, _RCON, _ROUNDS_BY_KEY_LEN, _SBOX
from repro.crypto.modes import (
    decrypt_ecb as _pure_decrypt_ecb,
    decrypt_ecb_under_keys as _pure_decrypt_under_keys,
    encrypt_ecb as _pure_encrypt_ecb,
    encrypt_ecb_under_keys as _pure_encrypt_under_keys,
)
from repro.crypto.sha256 import sha256_pure

__all__ = [
    "CryptoBackend",
    "PureBackend",
    "TablesBackend",
    "available_backends",
    "current_backend",
    "get_backend",
    "set_backend",
    "use_backend",
]

DEFAULT_BACKEND = "tables"


class CryptoBackend:
    """Interface every crypto backend implements.

    All buffer arguments must be block-aligned (multiples of 16 bytes);
    backends raise ``ValueError`` otherwise, matching
    :mod:`repro.crypto.modes`.  Backends are stateless apart from
    internal caches, so one instance can be shared freely.
    """

    name: str = "abstract"

    def encrypt_ecb(self, key: bytes, plaintext: bytes) -> bytes:
        """ECB-encrypt a whole block-aligned buffer under one key."""
        raise NotImplementedError

    def decrypt_ecb(self, key: bytes, ciphertext: bytes) -> bytes:
        """ECB-decrypt a whole block-aligned buffer under one key."""
        raise NotImplementedError

    def seal_many(self, keys: Sequence[bytes], plaintext: bytes) -> list[bytes]:
        """Encrypt one block-aligned plaintext under each of *keys*.

        The reply-building hot path: a Protocol 2/3 candidate seals the
        same acknowledge payload under every candidate key it recovered.
        """
        raise NotImplementedError

    def open_many(self, keys: Sequence[bytes], ciphertext: bytes) -> list[bytes]:
        """Trial-decrypt one block-aligned ciphertext under each of *keys*.

        The participant-side hot path: the sealed message is opened under
        every candidate profile key, amortizing schedule lookup and the
        round loops across the whole key set.
        """
        raise NotImplementedError

    def sha256(self, data: bytes) -> bytes:
        """SHA-256 digest of *data*."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover -- debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class PureBackend(CryptoBackend):
    """The seed behaviour: per-block pure-Python AES, from-scratch SHA-256."""

    name = "pure"

    def encrypt_ecb(self, key: bytes, plaintext: bytes) -> bytes:
        return _pure_encrypt_ecb(key, plaintext)

    def decrypt_ecb(self, key: bytes, ciphertext: bytes) -> bytes:
        return _pure_decrypt_ecb(key, ciphertext)

    def seal_many(self, keys: Sequence[bytes], plaintext: bytes) -> list[bytes]:
        if not keys:
            _require_aligned(plaintext, "plaintext")
            return []
        return _pure_encrypt_under_keys(keys, plaintext)

    def open_many(self, keys: Sequence[bytes], ciphertext: bytes) -> list[bytes]:
        if not keys:
            _require_aligned(ciphertext, "ciphertext")
            return []
        return _pure_decrypt_under_keys(keys, ciphertext)

    def sha256(self, data: bytes) -> bytes:
        return sha256_pure(data)


# -- tables backend ----------------------------------------------------------

_SBOX_TABLE = bytes(_SBOX)
_INV_SBOX_TABLE = bytes(_INV_SBOX)

# The key schedule transposes 4-byte words through ``cast("I")`` views.
if struct.calcsize("I") != 4:  # pragma: no cover
    raise ImportError("TablesBackend needs a 4-byte C unsigned int")

# Cuts one key's whole schedule into its 16-byte round keys, in C.
_ROUND_KEY_CUTS = {
    rounds: struct.Struct(f"{BLOCK_SIZE}s" * (rounds + 1))
    for rounds in _ROUNDS_BY_KEY_LEN.values()
}


def _pattern_mask(offsets: Sequence[int], n_blocks: int) -> int:
    """Big-endian mask selecting byte *offsets* within every 16-byte block."""
    pattern = bytearray(BLOCK_SIZE)
    for offset in offsets:
        pattern[offset] = 0xFF
    return int.from_bytes(bytes(pattern) * n_blocks, "big")


class _SwarMasks:
    """All repeating byte-position masks for a buffer of *n_blocks* blocks.

    The state is column-major inside each block (byte of row ``r``,
    column ``c`` lives at offset ``4c + r``) and the whole buffer is one
    big-endian integer, so moving a byte to a lower offset is a left
    shift.  Every mask is a 16-byte pattern repeated ``n_blocks`` times;
    a single masked shift therefore applies the same permutation step to
    every block of the buffer at once.
    """

    __slots__ = (
        "lo7", "hi1", "row", "sr_left", "sr_right", "isr_left", "isr_right",
        "rot1_hi", "rot2_hi", "rot2_lo", "rot3_lo",
    )

    def __init__(self, n_blocks: int):
        self.lo7 = int.from_bytes(b"\x7f" * (BLOCK_SIZE * n_blocks), "big")
        self.hi1 = int.from_bytes(b"\x80" * (BLOCK_SIZE * n_blocks), "big")
        self.row = [
            _pattern_mask([4 * c + r for c in range(4)], n_blocks) for r in range(4)
        ]
        # ShiftRows sends the byte at offset 4c+r to 4((c-r) mod 4)+r:
        # columns c >= r move left by 32r bits, columns c < r wrap right.
        self.sr_left = [
            _pattern_mask([4 * c + r for c in range(r, 4)], n_blocks) for r in range(4)
        ]
        self.sr_right = [
            _pattern_mask([4 * c + r for c in range(r)], n_blocks) for r in range(4)
        ]
        # InvShiftRows sends 4c+r to 4((c+r) mod 4)+r: the mirror image.
        self.isr_right = [
            _pattern_mask([4 * c + r for c in range(4 - r)], n_blocks) for r in range(4)
        ]
        self.isr_left = [
            _pattern_mask([4 * c + r for c in range(4 - r, 4)], n_blocks) for r in range(4)
        ]
        # Byte rotations inside each column, for the MixColumns algebra.
        self.rot1_hi = self.row[1] | self.row[2] | self.row[3]
        self.rot2_hi = self.row[2] | self.row[3]
        self.rot2_lo = self.row[0] | self.row[1]
        self.rot3_lo = self.row[0] | self.row[1] | self.row[2]


class TablesBackend(CryptoBackend):
    """Whole-buffer AES via translation tables + SWAR big-int algebra.

    One call encrypts/decrypts every block of the buffer: SubBytes is a
    single :meth:`bytes.translate` over the buffer, and the linear layers
    are a handful of mask/shift/xor operations on one arbitrary-precision
    integer, all executing in C.  Cost per round is therefore ~40 Python
    operations for the *entire* buffer, against ~60 per *block* for the
    pure backend -- the bigger the batch, the bigger the win (the crypto
    bench measures >20x on kilobyte buffers, >4x even on one 48-byte
    reply element).
    """

    name = "tables"

    # Masks are pure functions of the block count; buffers repeat a small
    # set of shapes (48-byte elements, n_keys * 3 blocks, ...), so a
    # bounded cache makes them effectively free.
    _MASK_CACHE_MAX = 64
    _RK_CACHE_MAX = 1024

    def __init__(self):
        self._masks: OrderedDict[int, _SwarMasks] = OrderedDict()
        self._round_keys: OrderedDict[bytes, list[bytes]] = OrderedDict()

    # -- caches -------------------------------------------------------------

    def _masks_for(self, n_blocks: int) -> _SwarMasks:
        masks = self._masks.get(n_blocks)
        if masks is None:
            masks = self._masks[n_blocks] = _SwarMasks(n_blocks)
            while len(self._masks) > self._MASK_CACHE_MAX:
                self._masks.popitem(last=False)
        else:
            self._masks.move_to_end(n_blocks)
        return masks

    def _round_key_bytes(self, key: bytes) -> list[bytes]:
        """Per-round 16-byte round keys for one ``bytes`` key (cached)."""
        rks = self._round_keys.get(key)
        if rks is None:
            rks = self._expand_uncached([key])[0]
        else:
            self._round_keys.move_to_end(key)
        return rks

    def _expand_uncached(self, keys: list[bytes]) -> list[list[bytes]]:
        """SWAR key schedule: expand many same-length keys in one pass.

        The FIPS-197 schedule is sequential in *words* but embarrassingly
        parallel across *keys*, so word ``i`` of every key is computed at
        once on one packed integer: RotWord is a masked rotate, SubWord a
        single :meth:`bytes.translate`, the rest XORs.

        Getting keys into that word-major layout and schedules back out of
        it is a 4-byte-word transpose, done as C-level strided copies over
        ``memoryview(...).cast("I")`` views: word ``i`` of every key is the
        slice ``[i::nk]`` of the joined keys, and key ``j``'s schedule is
        the slice ``[j::n_keys]`` of the joined schedule words, which one
        precompiled :class:`struct.Struct` cuts into 16-byte round keys.
        The interpreter runs a few operations per schedule word and per
        key, never one per key per word.

        Trial decryption mints mostly-fresh candidate keys (wrong-key
        decryptions of the sealed message), so candidate-heavy handshakes
        take this miss path for almost every key.  Results are cached per
        key; every key in *keys* must be ``bytes`` of the same length.
        """
        n_keys = len(keys)
        key_len = len(keys[0])
        _validate_key_len(key_len)
        rounds = _ROUNDS_BY_KEY_LEN[key_len]
        nk = key_len // 4
        total_words = 4 * (rounds + 1)
        cell = 4 * n_keys
        key_words = memoryview(b"".join(keys)).cast("I")
        words = [int.from_bytes(key_words[i::nk], "big") for i in range(nk)]
        tail3 = int.from_bytes(b"\x00\xff\xff\xff" * n_keys, "big")
        head1 = int.from_bytes(b"\xff\x00\x00\x00" * n_keys, "big")
        for i in range(nk, total_words):
            temp = words[i - 1]
            if i % nk == 0:
                temp = ((temp & tail3) << 8) | ((temp & head1) >> 24)
                temp = int.from_bytes(
                    temp.to_bytes(cell, "big").translate(_SBOX_TABLE), "big"
                )
                rcon = _RCON[i // nk - 1]
                temp ^= int.from_bytes(bytes([rcon, 0, 0, 0]) * n_keys, "big")
            elif nk > 6 and i % nk == 4:
                temp = int.from_bytes(
                    temp.to_bytes(cell, "big").translate(_SBOX_TABLE), "big"
                )
            words.append(words[i - nk] ^ temp)
        schedule_words = memoryview(
            b"".join([w.to_bytes(cell, "big") for w in words])
        ).cast("I")
        cut = _ROUND_KEY_CUTS[rounds].unpack
        schedules = [
            list(cut(schedule_words[j::n_keys].tobytes())) for j in range(n_keys)
        ]
        self._round_keys.update(zip(keys, schedules))
        while len(self._round_keys) > self._RK_CACHE_MAX:
            self._round_keys.popitem(last=False)
        return schedules

    def _schedules_for(self, keys: list[bytes]) -> list[list[bytes]]:
        """Round keys for a same-length key group, batch-expanding misses.

        Results are held locally rather than re-read from the cache: a
        large burst of fresh keys may evict this call's own hits.
        """
        schedules: dict[bytes, list[bytes]] = {}
        missing: list[bytes] = []
        for key in keys:
            if key in schedules:
                continue
            cached = self._round_keys.get(key)
            if cached is not None:
                self._round_keys.move_to_end(key)
                schedules[key] = cached
            else:
                missing.append(key)
                schedules[key] = []  # placeholder: marks the key as seen
        if missing:
            for key, rks in zip(missing, self._expand_uncached(missing)):
                schedules[key] = rks
        return [schedules[key] for key in keys]

    # -- SWAR building blocks ----------------------------------------------

    @staticmethod
    def _shift_rows(state: int, m: _SwarMasks) -> int:
        out = state & m.row[0]
        out |= ((state & m.sr_left[1]) << 32) | ((state & m.sr_right[1]) >> 96)
        out |= ((state & m.sr_left[2]) << 64) | ((state & m.sr_right[2]) >> 64)
        out |= ((state & m.sr_left[3]) << 96) | ((state & m.sr_right[3]) >> 32)
        return out

    @staticmethod
    def _inv_shift_rows(state: int, m: _SwarMasks) -> int:
        out = state & m.row[0]
        out |= ((state & m.isr_right[1]) >> 32) | ((state & m.isr_left[1]) << 96)
        out |= ((state & m.isr_right[2]) >> 64) | ((state & m.isr_left[2]) << 64)
        out |= ((state & m.isr_right[3]) >> 96) | ((state & m.isr_left[3]) << 32)
        return out

    @staticmethod
    def _rot1(state: int, m: _SwarMasks) -> int:
        """Rotate each column up one byte (row r takes row r+1)."""
        return ((state & m.rot1_hi) << 8) | ((state & m.row[0]) >> 24)

    @staticmethod
    def _rot2(state: int, m: _SwarMasks) -> int:
        return ((state & m.rot2_hi) << 16) | ((state & m.rot2_lo) >> 16)

    @staticmethod
    def _rot3(state: int, m: _SwarMasks) -> int:
        return ((state & m.row[3]) << 24) | ((state & m.rot3_lo) >> 8)

    @staticmethod
    def _xtime(state: int, m: _SwarMasks) -> int:
        """Multiply every byte by x in GF(2^8), all blocks at once.

        The reduction term is a multiply: isolating the carried-out high
        bits leaves one bit per byte, so ``* 0x1B`` spreads the Rijndael
        polynomial into exactly the right bytes without carries.
        """
        return ((state & m.lo7) << 1) ^ (((state & m.hi1) >> 7) * 0x1B)

    @classmethod
    def _mix_columns(cls, state: int, m: _SwarMasks) -> int:
        r1 = cls._rot1(state, m)
        return cls._xtime(state ^ r1, m) ^ r1 ^ cls._rot2(state, m) ^ cls._rot3(state, m)

    @classmethod
    def _inv_mix_columns(cls, state: int, m: _SwarMasks) -> int:
        x2 = cls._xtime(state, m)
        x4 = cls._xtime(x2, m)
        x8 = cls._xtime(x4, m)
        e = x8 ^ x4 ^ x2      # 14·a
        f = x8 ^ x2 ^ state   # 11·a
        g = x8 ^ x4 ^ state   # 13·a
        h = x8 ^ state        # 9·a
        return e ^ cls._rot1(f, m) ^ cls._rot2(g, m) ^ cls._rot3(h, m)

    # -- core passes --------------------------------------------------------

    def _encrypt_int(
        self, data: bytes, rk_rep: list[int], n_blocks: int
    ) -> bytes:
        """Encrypt *data* given per-round replicated round-key integers."""
        m = self._masks_for(n_blocks)
        length = len(data)
        rounds = len(rk_rep) - 1
        state = int.from_bytes(data, "big") ^ rk_rep[0]
        for r in range(1, rounds):
            state = int.from_bytes(
                state.to_bytes(length, "big").translate(_SBOX_TABLE), "big"
            )
            state = self._shift_rows(state, m)
            state = self._mix_columns(state, m)
            state ^= rk_rep[r]
        state = int.from_bytes(
            state.to_bytes(length, "big").translate(_SBOX_TABLE), "big"
        )
        state = self._shift_rows(state, m)
        state ^= rk_rep[rounds]
        return state.to_bytes(length, "big")

    def _decrypt_int(
        self, data: bytes, rk_rep: list[int], n_blocks: int
    ) -> bytes:
        """Decrypt *data* given per-round replicated round-key integers."""
        m = self._masks_for(n_blocks)
        length = len(data)
        rounds = len(rk_rep) - 1
        state = int.from_bytes(data, "big") ^ rk_rep[rounds]
        for r in range(rounds - 1, 0, -1):
            state = self._inv_shift_rows(state, m)
            state = int.from_bytes(
                state.to_bytes(length, "big").translate(_INV_SBOX_TABLE), "big"
            )
            state ^= rk_rep[r]
            state = self._inv_mix_columns(state, m)
        state = self._inv_shift_rows(state, m)
        state = int.from_bytes(
            state.to_bytes(length, "big").translate(_INV_SBOX_TABLE), "big"
        )
        state ^= rk_rep[0]
        return state.to_bytes(length, "big")

    def _replicated_round_keys(self, key: bytes, n_blocks: int) -> list[int]:
        # Keys are normalized to ``bytes`` here, the single-key boundary:
        # the schedule cache needs a hashable key (a bytearray is not).
        key = bytes(key)
        return [
            int.from_bytes(rk * n_blocks, "big") for rk in self._round_key_bytes(key)
        ]

    # -- public API ---------------------------------------------------------

    def encrypt_ecb(self, key: bytes, plaintext: bytes) -> bytes:
        _require_aligned(plaintext, "plaintext")
        _validate_key_len(len(key))
        if not plaintext:
            return b""
        n_blocks = len(plaintext) // BLOCK_SIZE
        return self._encrypt_int(
            plaintext, self._replicated_round_keys(key, n_blocks), n_blocks
        )

    def decrypt_ecb(self, key: bytes, ciphertext: bytes) -> bytes:
        _require_aligned(ciphertext, "ciphertext")
        _validate_key_len(len(key))
        if not ciphertext:
            return b""
        n_blocks = len(ciphertext) // BLOCK_SIZE
        return self._decrypt_int(
            ciphertext, self._replicated_round_keys(key, n_blocks), n_blocks
        )

    def _many(self, keys: Sequence[bytes], data: bytes, *, encrypt: bool) -> list[bytes]:
        """One SWAR pass over ``data`` replicated under every key.

        Keys of equal length share one packed buffer (same round count);
        mixed lengths are grouped and processed per group, results
        scattered back into input order.
        """
        _require_aligned(data, "plaintext" if encrypt else "ciphertext")
        if not keys:
            return []
        keys = list(map(bytes, keys))  # hashable schedule-cache keys
        results: list[bytes | None] = [None] * len(keys)
        by_len: dict[int, list[int]] = {}
        for i, key in enumerate(keys):
            _validate_key_len(len(key))
            by_len.setdefault(len(key), []).append(i)
        blocks_per_key = len(data) // BLOCK_SIZE
        size = len(data)
        for indices in by_len.values():
            group = [keys[i] for i in indices]
            if not data:
                for i in indices:
                    results[i] = b""
                continue
            n_blocks = blocks_per_key * len(group)
            schedules = self._schedules_for(group)
            rk_rep = [
                int.from_bytes(
                    b"".join(rks[r] * blocks_per_key for rks in schedules), "big"
                )
                for r in range(len(schedules[0]))
            ]
            packed = data * len(group)
            out = (
                self._encrypt_int(packed, rk_rep, n_blocks)
                if encrypt
                else self._decrypt_int(packed, rk_rep, n_blocks)
            )
            for slot, i in enumerate(indices):
                results[i] = out[slot * size : (slot + 1) * size]
        return results  # type: ignore[return-value]

    def seal_many(self, keys: Sequence[bytes], plaintext: bytes) -> list[bytes]:
        return self._many(keys, plaintext, encrypt=True)

    def open_many(self, keys: Sequence[bytes], ciphertext: bytes) -> list[bytes]:
        return self._many(keys, ciphertext, encrypt=False)

    def sha256(self, data: bytes) -> bytes:
        return hashlib.sha256(data).digest()


def _require_aligned(data: bytes, kind: str) -> None:
    if len(data) % BLOCK_SIZE:
        raise ValueError(f"ECB requires block-aligned {kind}")


def _validate_key_len(key_len: int) -> None:
    if key_len not in _ROUNDS_BY_KEY_LEN:
        raise ValueError(f"AES key must be 16/24/32 bytes, got {key_len}")


# -- registry ---------------------------------------------------------------

_BACKENDS: dict[str, CryptoBackend] = {
    PureBackend.name: PureBackend(),
    TablesBackend.name: TablesBackend(),
}
_current: CryptoBackend = _BACKENDS[DEFAULT_BACKEND]


def available_backends() -> tuple[str, ...]:
    """Names of the registered backends (stable order)."""
    return tuple(sorted(_BACKENDS))


def get_backend(name: str) -> CryptoBackend:
    """Look up a backend by name; raises ``ValueError`` on unknown names."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown crypto backend {name!r}; available: {', '.join(available_backends())}"
        ) from None


def current_backend() -> CryptoBackend:
    """The backend the protocol hot path currently routes through."""
    return _current


def set_backend(name_or_backend: str | CryptoBackend) -> CryptoBackend:
    """Select the process-wide backend; returns the previous one."""
    global _current
    previous = _current
    if isinstance(name_or_backend, CryptoBackend):
        _current = name_or_backend
    else:
        _current = get_backend(name_or_backend)
    return previous


@contextmanager
def use_backend(name_or_backend: str | CryptoBackend):
    """Temporarily select a backend (benchmarks, A/B comparisons, tests)."""
    previous = set_backend(name_or_backend)
    try:
        yield _current
    finally:
        set_backend(previous)
