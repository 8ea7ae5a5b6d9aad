import sys
from array import array
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from droidcage.rng import (
    Xoshiro256StarStar,
    _RAW_BITS,
    _build_tables,
    _jump,
    _refill,
    _scramble_batch,
    _scramble_lanes,
    _split,
    derive_seed,
    raw_stream,
    splitmix64_stream,
)

MASK64 = (1 << 64) - 1
ALNUM = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


class ReferenceXoshiro:
    """Straight-line xoshiro256**, one output per call, no buffering."""

    def __init__(self, seed):
        sm = splitmix64_stream(seed)
        self.s = [next(sm), next(sm), next(sm), next(sm)]

    @staticmethod
    def rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & MASK64

    def next_u64(self):
        s0, s1, s2, s3 = self.s
        result = (self.rotl((s1 * 5) & MASK64, 7) * 9) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = self.rotl(s3, 45)
        self.s = [s0, s1, s2, s3]
        return result

    def randrange(self, n):
        span = MASK64 + 1
        limit = span - (span % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n


SEEDS = (0, 1, 42, 2**64 - 1)
# 2**63 + 1 rejects almost half of all draws; the others are the bounds the
# monkey and the fill generator use.
BOUNDS = (1, 100, 1080, 1920, 2**63 + 1, 2**64)


def test_splitmix64_reference_vectors_seed_zero():
    # published reference outputs for seed 0
    sm = splitmix64_stream(0)
    assert next(sm) == 0xE220A8397B1DCDAF
    assert next(sm) == 0x6E789E6AA1B965F4
    assert next(sm) == 0x06C45D188009454F


def test_splitmix64_reference_vectors_seed_1234567():
    sm = splitmix64_stream(1234567)
    assert next(sm) == 6457827717110365317
    assert next(sm) == 3203168211198807973


def test_xoshiro_streams_are_reproducible():
    a = Xoshiro256StarStar(42)
    b = Xoshiro256StarStar(42)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_xoshiro_different_seeds_diverge():
    a = Xoshiro256StarStar(0)
    b = Xoshiro256StarStar(1)
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_randrange_bounds():
    rng = Xoshiro256StarStar(7)
    draws = [rng.randrange(10) for _ in range(1000)]
    assert set(draws) <= set(range(10))
    assert len(set(draws)) == 10  # all residues show up over 1000 draws


def test_alnum_is_alphanumeric():
    rng = Xoshiro256StarStar(3)
    s = rng.alnum(12)
    assert len(s) == 12
    assert s.isalnum()


def test_derive_seed_stable_and_label_sensitive():
    assert derive_seed(0, "a") == derive_seed(0, "a")
    assert derive_seed(0, "a") != derive_seed(0, "b")
    assert derive_seed(0, "a") != derive_seed(1, "a")


@pytest.mark.parametrize("seed", SEEDS)
def test_next_u64_matches_reference_across_batches(seed):
    ref, rng = ReferenceXoshiro(seed), Xoshiro256StarStar(seed)
    assert [rng.next_u64() for _ in range(1000)] == [ref.next_u64() for _ in range(1000)]


@pytest.mark.parametrize("seed", SEEDS)
def test_randrange_matches_reference_including_rejections(seed):
    ref, rng = ReferenceXoshiro(seed), Xoshiro256StarStar(seed)
    bounds = [BOUNDS[i % len(BOUNDS)] for i in range(1200)]
    assert [rng.randrange(n) for n in bounds] == [ref.randrange(n) for n in bounds]
    # the streams stay in step after rejections
    assert rng.next_u64() == ref.next_u64()


def test_lane_scrambler_keeps_carries_out_of_the_next_lane():
    # Words whose products and rotation carry the most, side by side with
    # neighbours that would show any spill-over.
    words = [MASK64, 0, MASK64, 1, 2**63, 2**57 - 1, 2**64 // 5 + 1, 2**64 // 9 + 1]
    lanes = [words[i % len(words)] for i in range(32)]
    packed = sum(w << (128 * i) for i, w in enumerate(lanes))
    scrambled = _scramble_lanes(packed)
    rotl = ReferenceXoshiro.rotl
    assert [(scrambled >> (128 * i)) & (2**128 - 1) for i in range(32)] == [
        (rotl((w * 5) & MASK64, 7) * 9) & MASK64 for w in lanes]


@pytest.mark.reseeded
@example(seed=0, count=64)
@example(seed=1, count=65)
@example(seed=2**64 - 1, count=129)
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), count=st.integers(0, 300))
def test_raw_stream_yields_the_reference_outputs(seed, count):
    # up to four batches, so the stream crosses refills
    ref = ReferenceXoshiro(seed)
    assert list(islice(raw_stream(seed), count)) == [ref.next_u64() for _ in range(count)]


@pytest.mark.parametrize("byteorder", ("little", "big"))
def test_batch_scrambler_works_for_either_byte_order(byteorder):
    # The refill packs a batch through native bytes, so on a big-endian
    # host value i lands in lane 63 - i. Pack both ways on this host by
    # swapping the items' bytes when the order is not the native one.
    raw = [w * 0x9E3779B97F4A7C15 & MASK64 for w in range(64)]
    raw[0], raw[63] = MASK64, 2**63  # the first and last lane carry the most
    items = array("Q", raw)
    if byteorder != sys.byteorder:
        items.byteswap()
    packed = _scramble_batch(int.from_bytes(items.tobytes(), byteorder))
    out = array("Q", packed.to_bytes(8 * 64, byteorder))
    if byteorder != sys.byteorder:
        out.byteswap()
    rotl = ReferenceXoshiro.rotl
    assert out.tolist() == [(rotl((w * 5) & MASK64, 7) * 9) & MASK64 for w in raw]


def _reference_at(state):
    """The straight-line reference generator started from a 256-bit state."""
    ref = ReferenceXoshiro(0)
    ref.s = list(_split(state))
    return ref


def _with_examples(states):
    def apply(test):
        for state in states:
            test = example(state=state)(test)
        return test
    return apply


# Every one-bit state picks one unit entry per table; all ones picks the
# last entry of both nibble sets of every table.
@pytest.mark.reseeded
@_with_examples([*(1 << bit for bit in range(256)), 2**256 - 1])
@settings(max_examples=200, deadline=None)
@given(state=st.integers(0, 2**256 - 1))
def test_table_refill_matches_the_straight_line_loop(state):
    cell, ref = [state], _reference_at(state)
    for _ in range(3):
        assert list(_refill(cell)) == [ref.next_u64() for _ in range(64)]
        assert _split(cell[0]) == tuple(ref.s)


@pytest.mark.parametrize("byteorder", ("little", "big"))
def test_table_lanes_work_for_either_byte_order(byteorder):
    # The refill unpacks a batch through native bytes. Build the tables for
    # either order and unpack the same way on this host, swapping the items'
    # bytes when the order is not the native one.
    tables = _build_tables(byteorder)
    state = 0x0123456789ABCDEF_FEDCBA9876543210_8000000000000001_FFFFFFFFFFFFFFFF
    ref = _reference_at(state)
    jumped = _jump(state, tables)
    out = array("Q", _scramble_batch(jumped).to_bytes(8 * 64, byteorder))
    if byteorder != sys.byteorder:
        out.byteswap()
    assert out.tolist()[::-1] == [ref.next_u64() for _ in range(64)]
    assert _split(jumped >> _RAW_BITS) == tuple(ref.s)


def test_rejection_path_is_exercised():
    ref = ReferenceXoshiro(42)
    limit = 2**64 - 2**64 % (2**63 + 1)
    assert any(ref.next_u64() >= limit for _ in range(200))


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_calls_match_reference(seed):
    ref, rng = ReferenceXoshiro(seed), Xoshiro256StarStar(seed)
    seq = ("click", "long_click", "scroll", "set_text")
    for i in range(300):
        length = i % 13
        assert rng.choice(seq) == seq[ref.randrange(len(seq))]
        assert rng.alnum(length) == "".join(ALNUM[ref.randrange(62)] for _ in range(length))
        assert rng.randrange(100) == ref.randrange(100)
        assert rng.next_u64() == ref.next_u64()


@pytest.mark.parametrize("drawn", [0, 1, 63, 64, 65])
def test_a_generator_built_mid_stream_draws_from_the_start(drawn):
    # Each stream holds its own state cell: building a second generator
    # from the same seed, at or beside a refill boundary of the first,
    # neither resets nor shares the first one's position.
    rng, ref = Xoshiro256StarStar(5), ReferenceXoshiro(5)
    for _ in range(drawn):
        assert rng.next_u64() == ref.next_u64()
    fresh, fresh_ref = Xoshiro256StarStar(5), ReferenceXoshiro(5)
    expected = [ref.next_u64() for _ in range(200)]
    assert [fresh.next_u64() for _ in range(200)] == [fresh_ref.next_u64() for _ in range(200)]
    assert [rng.next_u64() for _ in range(200)] == expected


@pytest.mark.parametrize("bound", [0, -1])
def test_randrange_rejects_non_positive_bounds(bound):
    with pytest.raises(ValueError):
        Xoshiro256StarStar(0).randrange(bound)


@pytest.mark.parametrize("bound", [2**64 + 1, 2**200])
def test_randrange_rejects_bounds_above_2_64(bound):
    # Every draw would be rejected: without the check the call never returns.
    # The check comes before any draw, so the stream is where it was.
    rng = Xoshiro256StarStar(1)
    with pytest.raises(ValueError, match=rf"^randrange bound {bound} is above 2\*\*64$"):
        rng.randrange(bound)
    assert rng.next_u64() == ReferenceXoshiro(1).next_u64()


def test_randrange_2_64_is_the_raw_output():
    ref, rng = ReferenceXoshiro(1), Xoshiro256StarStar(1)
    assert [rng.randrange(2**64) for _ in range(200)] == [ref.next_u64() for _ in range(200)]


def test_choice_rejects_an_empty_sequence():
    with pytest.raises(ValueError, match="empty sequence"):
        Xoshiro256StarStar(0).choice([])
