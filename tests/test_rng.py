from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from rbcsp.rng import BLOCK, FIRST_BLOCK, GAMMA, MASK64, SplitMix64, derive_stream, mix64

from reference_rng import ScalarSplitMix64


def test_derive_stream_deterministic():
    assert derive_stream(12345, 7) == derive_stream(12345, 7)


def test_derive_stream_known_reference():
    # splitmix64 reference sequence for seed 0 (first outputs of Vigna's C code)
    draws = SplitMix64(0).draws
    assert next(draws) == 0xE220A8397B1DCDAF
    assert next(draws) == 0x6E789E6AA1B965F4
    assert next(draws) == 0x06C45D188009454F
    # derive_stream(s, i) is exactly element i of the stream seeded with s
    assert derive_stream(0, 0) == 0xE220A8397B1DCDAF
    assert derive_stream(0, 2) == 0x06C45D188009454F


def test_derive_stream_no_collisions_over_1e6():
    s = 0xDEADBEEFCAFE
    seen = {derive_stream(s, i) for i in range(1_000_000)}
    assert len(seen) == 1_000_000


def test_derive_stream_rejects_negative_index():
    with pytest.raises(ValueError):
        derive_stream(1, -1)


def test_mix64_is_in_range():
    for z in (0, 1, MASK64, 0x123456789ABCDEF0):
        assert 0 <= mix64(z) <= MASK64


def test_next_below_bounds_and_determinism():
    rng1 = SplitMix64(99)
    rng2 = SplitMix64(99)
    draws1 = [rng1.next_below(b) for b in (2, 3, 7, 10, 1 << 40)]
    draws2 = [rng2.next_below(b) for b in (2, 3, 7, 10, 1 << 40)]
    assert draws1 == draws2
    for value, bound in zip(draws1, (2, 3, 7, 10, 1 << 40)):
        assert 0 <= value < bound


def test_next_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(0).next_below(0)


def test_next_below_uniform_chi_square():
    rng = SplitMix64(2024)
    bound = 6
    n = 60_000
    counts = [0] * bound
    for _ in range(n):
        counts[rng.next_below(bound)] += 1
    expected = n / bound
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 25.0  # df=5, far beyond any sane quantile


def test_next_float_in_unit_interval():
    rng = ScalarSplitMix64(5)
    xs = [rng.next_float() for _ in range(10_000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert abs(sum(xs) / len(xs) - 0.5) < 0.02


# start offsets on and next to block edges (draws 16 and 1040 start the
# second and third blocks), plus anywhere in the first three blocks
_EDGES = [FIRST_BLOCK - 1, FIRST_BLOCK, FIRST_BLOCK + BLOCK - 1, FIRST_BLOCK + BLOCK]
_offsets = (st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, *_EDGES])
            | st.integers(0, 3 * BLOCK))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(-(1 << 66), 1 << 66), start=_offsets, length=st.integers(0, BLOCK + 2))
def test_block_stream_is_vigna_sequence(seed, start, length):
    """Raw draw i of the stream seeded with s is mix64(s + (i + 1) * GAMMA)."""
    got = list(islice(SplitMix64(seed).draws, start, start + length))
    assert got == [mix64(seed + (i + 1) * GAMMA) for i in range(start, start + length)]


@pytest.mark.parametrize("i", [0, 5, BLOCK - 1, BLOCK, 2 * BLOCK, *_EDGES])
def test_rejection_consumes_exactly_one_draw(i):
    # mix64(0) == 0, so this seed makes raw draw i zero, which next_below(3)
    # rejects (2^64 mod 3 = 1); the draws after it move up by exactly one
    seed = (-(i + 1) * GAMMA) & MASK64
    raw = [mix64(seed + (j + 1) * GAMMA) for j in range(i + 3)]
    assert raw[i] == 0
    rng = SplitMix64(seed)
    assert list(islice(rng.draws, i)) == raw[:i]
    assert rng.next_below(3) == raw[i + 1] % 3
    assert next(rng.draws) == raw[i + 2]
