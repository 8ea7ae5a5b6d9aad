"""Portable deterministic PRNG: splitmix64-seeded xoshiro256**.

Event streams, fill values and corpus synthesis all draw from this
generator so a 64-bit seed reproduces a run bit-for-bit, independent of
the host language or its standard library.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain, islice, repeat
from typing import Callable, Iterator, Sequence, TypeVar

MASK64 = (1 << 64) - 1
_SPAN = MASK64 + 1

ALNUM = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

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


# Outputs generated per refill. Draws read each batch in order, so the
# stream is the same for any batch size; only the state runs ahead.
_BATCH = 64
_RAW_BITS = 64 * _BATCH
_PACKED_BYTES = 8 * _BATCH

# The scrambler runs on a whole batch at once: the 64 raw values are packed
# into one integer, 64 bits per lane, and split into even and odd lanes.
# Each half then has 64 zero bits above every lane, so ``* 5``, ``<< 7`` and
# ``* 9`` carry into that gap and never into the next lane, and one mask per
# operation cuts every lane back to 64 bits at once. The mask also drops
# every bit from ``_RAW_BITS`` up, so the scrambler reads only the lanes.
# (array "Q" items are 64-bit on every platform CPython supports.)
_EVEN_LANES = sum(MASK64 << (128 * i) for i in range(_BATCH // 2))


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


def _split(state: int) -> tuple[int, int, int, int]:
    """``(s0, s1, s2, s3)`` of a state kept as ``s0 | s1 << 64 | ...``."""
    return (state & MASK64, (state >> 64) & MASK64,
            (state >> 128) & MASK64, state >> 192)


def _join(words) -> int:
    """The 256-bit state of the words ``s0, s1, s2, s3``."""
    return sum(w << (64 * i) for i, w in enumerate(words))


def _run_batch(s0: int, s1: int, s2: int, s3: int) -> tuple[list[int], tuple[int, ...]]:
    """The batch's raw outputs (``s1`` before each step) and the state after.

    This loop is the definition of a xoshiro256 step; the tables below are
    built from it.
    """
    raw = []
    for _ in range(_BATCH):
        raw.append(s1)
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & MASK64  # rotl(s3, 45)
    return raw, (s0, s1, s2, s3)


# A refill by table lookup. The state step uses only xor, shift and rotate,
# so it is linear over GF(2) (Blackman & Vigna, "Scrambled Linear
# Pseudorandom Number Generators", ACM TOMS 2021): the batch's 64 raw
# outputs and the state 64 steps on are the XOR, over the state's set bits,
# of what each bit alone would give. Only the scrambler is non-linear, and
# it runs once per batch on the result.
#
# One entry is one int: the 64 raw outputs in its low ``_RAW_BITS`` bits, in
# the lanes ``_scramble_batch`` and the unpacking in ``_refill`` expect, and
# the state 64 steps on above them. There is one table per state byte, of 32
# entries: 16 for the values of the low nibble, then 16 for the high nibble.
# A refill XORs 64 entries. The 1024 entries take about 0.58 MB and are built
# at import, from one run of ``_run_batch`` on each of the 256 one-bit
# states, in 11-19 ms (2 vCPUs, CPython 3.11). Tables indexed by whole bytes
# would take half the XORs but about 4.7 MB, over a tenth of a 200-app run's
# peak memory.


def _build_tables(byteorder: str) -> tuple[tuple[int, ...], ...]:
    """The 32 nibble tables for unpacking through ``byteorder`` bytes.

    The lanes are placed by position, counted from bit 0. Unpacking through
    ``byteorder`` bytes puts lane i in item i (little) or item 63 - i (big),
    and ``_refill`` hands items out from the end, so the k-th raw output goes
    in the lane that becomes item 63 - k.
    """
    lanes = range(_BATCH - 1, -1, -1) if byteorder == "little" else range(_BATCH)
    shifts = [64 * lane for lane in lanes]
    units = []
    for bit in range(256):
        raw, after = _run_batch(*_split(1 << bit))
        entry = _join(after) << _RAW_BITS
        for shift, value in zip(shifts, raw):
            entry |= value << shift
        units.append(entry)

    def combine(first: int, nibble: int) -> int:
        acc = 0
        for i in range(4):
            if nibble >> i & 1:
                acc ^= units[first + i]
        return acc

    return tuple(tuple(combine(8 * byte + 4 * half, nibble)
                       for half in (0, 1) for nibble in range(16))
                 for byte in range(32))


def _jump(state: int, tables: tuple[tuple[int, ...], ...]) -> int:
    """The table entry of ``state``: its batch's raw lanes, the next state above."""
    acc = 0
    for table, b in zip(tables, state.to_bytes(32, "little")):
        acc ^= table[b & 15] ^ table[16 | b >> 4]
    return acc


_TABLES = _build_tables(sys.byteorder)


def _limit(n: int) -> int:
    """The largest multiple of ``n`` that fits in 2**64."""
    return _SPAN - _SPAN % n


def _redraw(draw: Callable[[], int], n: int) -> int:
    """``randrange(n)`` over ``draw``'s outputs, for ``0 < n <= 2**64``: the
    first draw below ``_limit(n)``, mod ``n``. The one rejection rule."""
    limit = _limit(n)
    while (v := draw()) >= limit:
        pass
    return v % n


def _refill(cell: list[int]) -> Iterator[int]:
    """The next ``_BATCH`` outputs of the state in ``cell[0]``, in draw
    order; moves ``cell[0]`` on by ``_BATCH`` steps."""
    jumped = _jump(cell[0], _TABLES)
    cell[0] = jumped >> _RAW_BITS
    packed = _scramble_batch(jumped)
    return reversed(array("Q", packed.to_bytes(_PACKED_BYTES, sys.byteorder)))


def raw_stream(seed: int) -> Iterator[int]:
    """The xoshiro256** outputs for ``seed``, its state seeded from splitmix64.

    This is the reference construction: four splitmix64 outputs make up
    the initial 256-bit state, so any implementation of the same pair of
    algorithms produces identical streams for the same seed. The stream is
    C-level iterators over one ``_refill`` call per batch, so a draw is a
    ``next()`` with no Python frame.
    """
    state = _join(islice(splitmix64_stream(seed), 4))
    return chain.from_iterable(map(_refill, repeat([state])))


class Xoshiro256StarStar:
    """Draws over ``raw_stream(seed)``: ``next_u64`` is the stream's next."""

    __slots__ = ("next_u64",)

    def __init__(self, seed: int):
        self.next_u64 = raw_stream(seed).__next__

    def randrange(self, n: int) -> int:
        """Unbiased draw from [0, n) by ``_redraw``'s rejection rule; a bound
        above 2**64, where no draw is ever kept, raises before any draw."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        if n > _SPAN:
            raise ValueError(f"randrange bound {n} is above 2**64")
        return _redraw(self.next_u64, n)

    def choice(self, seq: Sequence[T]) -> T:
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.randrange(len(seq))]

    def alnum(self, length: int) -> str:
        randrange = self.randrange
        return "".join([ALNUM[randrange(62)] for _ in range(length)])


def derive_seed(seed: int, label: str) -> int:
    """Stable sub-seed for an independent named stream.

    Folds the label via FNV-1a and scrambles with one splitmix64 step,
    so sub-streams do not depend on iteration order elsewhere.
    """
    h = 0xCBF29CE484222325
    for b in label.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & MASK64
    return next(splitmix64_stream((seed & MASK64) ^ h))
