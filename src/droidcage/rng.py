"""Portable deterministic PRNG: splitmix64-seeded xoshiro256**.

Event streams, fill values and corpus synthesis all draw from this
generator so a 64-bit seed reproduces a run bit-for-bit, independent of
the host language or its standard library.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterator, Sequence, TypeVar

MASK64 = (1 << 64) - 1
_SPAN = MASK64 + 1

_ALNUM = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

T = TypeVar("T")


def splitmix64_stream(seed: int) -> Iterator[int]:
    """Yield the splitmix64 sequence for ``seed``."""
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield (z ^ (z >> 31)) & MASK64


# Outputs generated per refill. Draws consume the buffer in order, so the
# stream is the same for any batch size; only the state runs ahead.
_BATCH = 64

# The scrambler runs on a whole batch at once: the 64 raw values are packed
# into one integer, 64 bits per lane, and split into even and odd lanes.
# Each half then has 64 zero bits above every lane, so ``* 5``, ``<< 7`` and
# ``* 9`` carry into that gap and never into the next lane, and one mask per
# operation cuts every lane back to 64 bits at once. The mask is built from
# lane positions, not from bytes: on a big-endian host the packing puts value
# i in lane 63 - i, which swaps the halves but keeps both of them whole.
# (array "Q" items are 64-bit on every platform CPython supports.)
_EVEN_LANES = sum(MASK64 << (128 * i) for i in range(_BATCH // 2))
_PACKED_BYTES = 8 * _BATCH


def _scramble_lanes(v: int) -> int:
    """``rotl(x * 5, 7) * 9 mod 2**64`` on every lane of ``v`` (gaps zero)."""
    mask = _EVEN_LANES
    v = (v * 5) & mask
    v = ((v << 7) | (v >> 57)) & mask
    return (v * 9) & mask


def _scramble_batch(packed: int) -> int:
    """The scrambler on all ``_BATCH`` 64-bit lanes of ``packed``."""
    return (_scramble_lanes(packed & _EVEN_LANES)
            | _scramble_lanes((packed >> 64) & _EVEN_LANES) << 64)


class Xoshiro256StarStar:
    """xoshiro256** with its state seeded from splitmix64.

    This is the reference construction: four splitmix64 outputs make up
    the initial 256-bit state, so any implementation of the same pair of
    algorithms produces identical streams for the same seed. Outputs are
    generated ``_BATCH`` at a time and handed out in order.
    """

    __slots__ = ("_state", "_buf")

    def __init__(self, seed: int):
        sm = splitmix64_stream(seed)
        self._state = (next(sm), next(sm), next(sm), next(sm))
        self._buf: list[int] = []

    def _refill(self) -> list[int]:
        s0, s1, s2, s3 = self._state
        mask = MASK64
        raw = []
        append = raw.append
        for _ in range(_BATCH):
            append(s1)
            t = (s1 << 17) & mask
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & mask  # rotl(s3, 45)
        self._state = (s0, s1, s2, s3)
        raw.reverse()  # consumed with pop(), from the end
        packed = int.from_bytes(array("Q", raw).tobytes(), sys.byteorder)
        packed = _scramble_batch(packed)
        out = array("Q", packed.to_bytes(_PACKED_BYTES, sys.byteorder)).tolist()
        self._buf = out
        return out

    def next_u64(self) -> int:
        return (self._buf or self._refill()).pop()

    def randrange(self, n: int) -> int:
        """Unbiased draw from [0, n) via rejection sampling.

        A draw ``v`` is kept when it lies below the largest multiple of
        ``n`` that fits in 2**64, i.e. when ``v - v % n + n <= 2**64``;
        that needs no per-bound limit.
        """
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        while True:
            v = (self._buf or self._refill()).pop()
            r = v % n
            if v - r + n <= _SPAN:
                return r

    def choice(self, seq: Sequence[T]) -> T:
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.randrange(len(seq))]

    def percent(self) -> int:
        """Integer in [0, 100), for percentage mix decisions."""
        return self.randrange(100)

    def alnum(self, length: int) -> str:
        randrange = self.randrange
        return "".join([_ALNUM[randrange(62)] for _ in range(length)])


def derive_seed(seed: int, label: str) -> int:
    """Stable sub-seed for an independent named stream.

    Folds the label via FNV-1a and scrambles with one splitmix64 step,
    so sub-streams do not depend on iteration order elsewhere.
    """
    h = 0xCBF29CE484222325
    for b in label.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & MASK64
    return next(splitmix64_stream((seed & MASK64) ^ h))
