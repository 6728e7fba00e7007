"""Deterministic 64-bit random number generation.

Every random draw in this package comes from the splitmix64 generator so
that instances are reproducible bit-for-bit from a single integer seed,
in any environment, forever.  The algorithm is the public-domain one from
Sebastiano Vigna (http://prng.di.unimi.it/splitmix64.c):

    state  <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z      <- state
    z      <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z      <- (z XOR (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    output <- z XOR (z >> 31)

Raw draw i of the stream seeded with s is ``mix64(s + (i + 1) * GAMMA)``.
:class:`SplitMix64` computes them in blocks, first ``FIRST_BLOCK`` = 16
(all that a small instance needs), then ``BLOCK`` = 1024 at a time, in plain
Python ints: the states are 64-bit lanes spaced 128 bits apart in one int, so
each step of ``mix64`` is one bigint op over the block, and a 64x64-bit
product fits its lane without carrying into the next.  The lanes' low 64
bits are read back as little-endian words, whatever the host's byte order.

Derived draws are defined on top of the raw 64-bit stream:

* ``next_below(bound)`` draws uniformly from ``[0, bound)`` by rejection:
  draws ``x`` are rejected while ``x < 2^64 mod bound``; the first accepted
  ``x`` yields ``x mod bound``.  The accepted range has size a multiple of
  ``bound``, so the result is exactly uniform; each rejection is one draw.
* a float in ``[0, 1)`` is ``(x >> 11) * 2^-53`` of one draw ``x``.

``derive_stream(base_seed, index)`` is the stateless batch-seed derivation:
it returns the splitmix64 output function applied to
``base_seed + (index + 1) * 0x9E3779B97F4A7C15``, i.e. element ``index`` of
the splitmix64 sequence seeded with ``base_seed``.  The output function is
a bijection on 64-bit integers, so distinct indices always give distinct
seeds.
"""

from __future__ import annotations

import struct
from functools import cache
from itertools import chain, count, repeat

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
FIRST_BLOCK = 16  # raw draws in a stream's first block
BLOCK = 1024  # raw draws in every later block


def mix64(z: int) -> int:
    """splitmix64 output function (a 64-bit bijection)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def derive_stream(base_seed: int, index: int) -> int:
    """Seed for batch element `index`, decorrelated from its neighbours."""
    if index < 0:
        raise ValueError(f"stream index must be nonnegative, got {index}")
    return mix64((base_seed + (index + 1) * GAMMA) & MASK64)


@cache
def _lanes(size: int):
    """Constants of a `size`-draw block, built once per size: a 1 in every
    lane, (i + 1) * GAMMA in lane i, the lanes' low-64-bit mask, the reader."""
    ones = int.from_bytes(b"\1".ljust(16, b"\0") * size, "little")
    gamma_lanes = b"".join(((i + 1) * GAMMA).to_bytes(16, "little") for i in range(size))
    gammas = int.from_bytes(gamma_lanes, "little")
    return ones, gammas, MASK64 * ones, struct.Struct("<" + "Q8x" * size).unpack


def _block(state: int, size: int) -> tuple[int, ...]:
    """The `size` raw draws that follow `state`: mix64(state + (i + 1) * GAMMA)."""
    ones, gammas, low, unpack = _lanes(size)
    z = ((state & MASK64) * ones + gammas) & low
    z = (z ^ (z >> 30)) & low
    z = z * MIX1 & low
    z = (z ^ (z >> 27)) & low
    z = z * MIX2 & low
    return unpack((z ^ (z >> 31)).to_bytes(16 * size, "little"))


class SplitMix64:
    """splitmix64 stream; ``next_below`` and ``next(draws)`` share one iterator."""

    __slots__ = ("draws",)

    def __init__(self, seed: int):
        states = chain((seed,), count(seed + FIRST_BLOCK * GAMMA, BLOCK * GAMMA))
        self.draws = chain.from_iterable(map(_block, states, chain((FIRST_BLOCK,), repeat(BLOCK))))

    def next_below(self, bound: int) -> int:
        """Exactly uniform integer in [0, bound) via modulo rejection."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        threshold = (1 << 64) % bound
        x = next(self.draws)
        while x < threshold:
            x = next(self.draws)
        return x % bound

