"""Keyed random streams, seeded for a whole batch of keys in one pass.

Every random draw of the estimators comes from a stream keyed by a tuple of
nonnegative integers: `(seed, rep)` for a placebo replicate, `(seed, draw,
side)` for a subsample draw.  The stream of a key is NumPy's
`Generator(PCG64(SeedSequence(entropy=key)))`, so a result does not depend on
the order or the batching of the draws.

Building a `SeedSequence` and a `PCG64` per key costs ~25 µs, about half of
what a small hypergeometric draw costs.  The states of many keys are computed
at once instead: `SeedSequence`'s entropy mixing and `generate_state` run as
uint32 array arithmetic over the keys' entropy words, then PCG64's two-step
seeding runs in Python ints.  `keyed_streams(seed, shape)` keys index `i` by
`(seed, *np.unravel_index(i, shape))`, so it builds the entropy words of up
to `PASS_KEYS` keys as arrays (the seed's words broadcast, then one uint32
word per index part, as no dimension of `shape` may pass 2**32) without a
Python loop over the keys, and sets each state, when asked for, on one
reused `Generator`.
Both algorithms are part of NumPy's stream-compatibility promise (NEP 19),
and the test suite checks the states against NumPy's own construction for
seeds of every entropy width, so every stream stays bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4

#: Keys seeded in one pass by `keyed_streams`.
PASS_KEYS = 4096

# PCG64's 128-bit LCG multiplier (pcg64.h).
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _words(n: int) -> list[int]:
    """The uint32 entropy words of a nonnegative integer: little-endian, at least one."""
    n = int(n)
    if n < 0:
        raise ValueError(f"stream key parts must be nonnegative, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


class _Hash:
    """SeedSequence's `hashmix`, whose multiplier advances on every call."""

    def __init__(self, init: int, mult: int):
        self.const = init
        self.mult = mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ self.const
        self.const = (self.const * self.mult) & _MASK32
        value *= np.uint32(self.const)
        value ^= value >> 16
        return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    out ^= out >> 16
    return out


def _pools(entropy: np.ndarray) -> np.ndarray:
    """`SeedSequence.pool` of each row of a (keys, words) uint32 entropy array."""
    hashmix = _Hash(_INIT_A, _MULT_A)
    zero = np.zeros(entropy.shape[0], dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < entropy.shape[1] else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, entropy.shape[1]):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[:, src]))
    return np.stack(pool, axis=1)


def _seed_words(pool: np.ndarray) -> np.ndarray:
    """`generate_state(4, np.uint64)` of each pool row, as (keys, 4) uint64."""
    hashmix = _Hash(_INIT_B, _MULT_B)
    words = np.stack([hashmix(pool[:, i % _POOL_SIZE]) for i in range(8)], axis=1)
    # Little-endian pairs of uint32 words, whatever the host's byte order.
    return words.astype("<u4").view("<u8").astype(np.uint64)


def _states(entropy: np.ndarray) -> list[tuple[int, int]]:
    """(state, inc) of `PCG64(SeedSequence(entropy=row))` for every row of a
    (keys, words) uint32 entropy array."""
    states = []
    for s_hi, s_lo, i_hi, i_lo in _seed_words(_pools(entropy)).tolist():
        # pcg_setseq_128_srandom_r: step from 0, add the seed, step again.
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def _index_states(seed: np.ndarray, shape: tuple, start: int, stop: int) -> list[tuple[int, int]]:
    """(state, inc) of `PCG64(SeedSequence(entropy=key))` for the keys
    `key = (seed, *np.unravel_index(i, shape))` with `start <= i < stop`,
    given the seed's entropy words; a key's entropy is those words, then one
    uint32 word per index part."""
    parts = np.unravel_index(np.arange(start, stop), shape)
    seeds = np.broadcast_to(seed, (stop - start, seed.size))
    return _states(np.column_stack((seeds, *parts)).astype(np.uint32))


def keyed_streams(seed: int, shape):
    """A function `stream(i)`, for 0 <= i < prod(`shape`), returning a
    `Generator` on the stream of the key `(seed, *np.unravel_index(i, shape))`.

    Every call returns the same `Generator`, reset to the start of the key's
    stream, so a draw must be taken before the next call.  The states are
    computed in one pass per `PASS_KEYS` consecutive indices, when one of
    them is asked for, so their memory stays bounded whatever the count.
    """
    if max(shape) > 1 << 32:
        raise ValueError(f"stream key dimensions must be at most 2**32, got shape {shape}")
    count = math.prod(shape)
    words = np.array(_words(seed), dtype=np.uint32)
    gen = np.random.Generator(np.random.PCG64(0))
    bitgen = gen.bit_generator
    start, states = None, []

    def stream(i: int) -> np.random.Generator:
        nonlocal start, states
        if start != i - i % PASS_KEYS:
            start = i - i % PASS_KEYS
            states = _index_states(words, shape, start, min(start + PASS_KEYS, count))
        state, inc = states[i - start]
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen

    return stream
