"""Reproducible random-number streams.

Every stochastic routine in the package derives its randomness from a
master seed plus a tuple of integer keys (replica index, probe value,
block number, ...).  Two runs with the same seed therefore produce
identical results regardless of worker count or call order, and any
single replica can be replayed in isolation.

Draws consumed one at a time come in windows of 64, 64, 128, ..., 4096
values, then 4096 each, a window drawn when its first value is read:
``event_draws`` draws w uniforms, then w exponentials, and pairs them
for the event loops, one pair per event; ``exponentials`` draws w
exponentials for lazily drawn clocks.  Nothing else is drawn, so a
second reader of a generator goes on where the first stopped.

Block seeding.  A stream is ``PCG64`` seeded through numpy's
``SeedSequence`` hash of the entropy words (seed, keys).  Replica loops
ask for ``substream(seed, i)`` over consecutive i, so for a single key
0 <= k < 2**32 the hash is computed in one numpy uint32 pass for the
256 keys of k's block and the last few blocks are kept.  The generator
is then built from its precomputed seeding words, which gives the same
state as ``default_rng(SeedSequence(entropy))`` at a fraction of the
cost; every other key tuple goes through ``SeedSequence`` itself.
"""
from __future__ import annotations

import functools
import itertools
import struct
from typing import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


def substream(seed: int, *keys: int) -> np.random.Generator:
    """Deterministic generator for (seed, keys).

    Distinct key tuples give statistically independent streams.  The
    generator equals ``default_rng(SeedSequence(entropy))`` in state; a
    single key below 2**32 takes the block-seeded path (module docstring).
    """
    entropy = [int(seed) & _MASK64] + [int(k) & _MASK64 for k in keys]
    if len(entropy) == 2 and entropy[1] <= _MASK32:
        states = _block_states(entropy[0], entropy[1] >> _BLOCK_BITS)
        return _seeded()(states[entropy[1] & _BLOCK_MASK], entropy)
    return np.random.default_rng(np.random.SeedSequence(entropy))


# SeedSequence's hash (numpy/random/bit_generator.pyx) for the entropy
# words of (seed, key), key < 2**32: the seed gives one word, or two when
# it is >= 2**32, the key one more, and the pool of four words is padded
# with zeros.  Hashmix i xors a word with constant i and multiplies it by
# constant i + 1 of one running sequence, so the constants depend only on
# the order of the steps and the steps run on whole rows of keys.
_BLOCK_BITS = 8
_BLOCK_MASK = (1 << _BLOCK_BITS) - 1


@functools.cache
def _hash_constants(const: int, mult: int, n: int) -> np.ndarray:
    """const * mult**i mod 2**32 for i < n, as a uint32 column.

    Made on first use: an array built at import adds to the import's RSS.
    """
    out = [const]
    for _ in range(n - 1):
        const = const * mult & _MASK32
        out.append(const)
    return np.array(out, dtype=np.uint32)[:, None]


@functools.lru_cache(maxsize=4)
def _block_states(seed64: int, block: int) -> np.ndarray:
    """PCG64 seeding words of keys block*256 .. block*256 + 255, one row each.

    Row j equals ``SeedSequence([seed64, block*256 + j]).generate_state(4,
    np.uint64)``.
    """
    a = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
    words = [seed64 & _MASK32] + ([seed64 >> 32] if seed64 > _MASK32 else [])
    pool = np.zeros((4, 1 << _BLOCK_BITS), dtype=np.uint32)
    pool[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    pool[len(words)] = np.arange(block << _BLOCK_BITS, (block + 1) << _BLOCK_BITS, dtype=np.uint32)
    pool ^= a[0:4]
    pool *= a[1:5]
    pool ^= pool >> 16
    for src in range(4):
        # mix(dst, hashmix(src)) into each other word, in order
        dst = [d for d in range(4) if d != src]
        i = 4 + 3 * src
        h = pool[src] ^ a[i : i + 3]
        h *= a[i + 1 : i + 4]
        h ^= h >> 16
        mixed = pool[dst] * 0xCA01F9DD - h * 0x4973F715
        pool[dst] = mixed ^ (mixed >> 16)
    # generate_state(4, uint64): eight words cycling over the pool
    b = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
    out = pool[[0, 1, 2, 3, 0, 1, 2, 3]]
    out ^= b[0:8]
    out *= b[1:9]
    out ^= out >> 16
    # a key's eight words, low word first, are its four uint64s
    return np.ascontiguousarray(out.T).astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seeded():
    """Return seeded(state, entropy) -> Generator(PCG64) from precomputed words.

    Built on first use, so that importing the package does not load
    numpy.random.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class _SeedState(ISeedSequence):
        """A seed sequence that hands PCG64 its precomputed seeding words."""

        def __init__(self, state: np.ndarray, entropy: list[int]):
            self._state = state
            self._entropy = entropy

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("only PCG64's seeding request is precomputed")
            return self._state

        def __reduce__(self):
            # pickles as the SeedSequence it stands for
            return np.random.SeedSequence, (self._entropy,)

    def seeded(state: np.ndarray, entropy: list[int]) -> np.random.Generator:
        return Generator(PCG64(_SeedState(state, entropy)))

    return seeded


def float_key(x: float) -> int:
    """Map a float to a stable 64-bit integer key (bit pattern)."""
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


def mix_seed(seed: int, *keys: int) -> int:
    """Collapse (seed, keys) into a single derived 64-bit seed.

    Used where a routine wants to hand a plain integer seed to a
    sub-estimator while staying deterministic in the keys (e.g. one seed
    per probed rate, independent of probe order).
    """
    entropy = [int(seed) & _MASK64] + [int(k) & _MASK64 for k in keys]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


# the windows a stream is drawn in, in reading order, then windows of
# 4096 each: the first is what most replicas read in all
_WINDOWS = (64, 64, 128, 256, 512, 1024, 2048, 4096)


def event_draws(rng: np.random.Generator) -> Iterator[tuple[float, float]]:
    """Endless (uniform, exponential) pairs of rng, one pair per event.

    A window of w pairs is drawn when its first pair is read, as
    ``rng.random(w)`` and then ``rng.standard_exponential(w)``, pair i
    taking value i of each.  So nothing is drawn before the first pair is
    read, and the generator is left at the end of the window that holds
    the last pair read.  The values are Python floats, converted a window
    at a time, so the loop does no numpy-scalar arithmetic; ``chain``
    keeps the step from one pair to the next in C.
    """
    sizes = itertools.chain(_WINDOWS, itertools.repeat(_WINDOWS[-1]))
    return itertools.chain.from_iterable(
        zip(rng.random(w).tolist(), rng.standard_exponential(w).tolist()) for w in sizes
    )


def exponentials(rng: np.random.Generator) -> Iterator[float]:
    """Endless standard exponentials of rng, for lazily drawn clocks.

    The windows are those of ``event_draws``, each drawn as
    ``rng.standard_exponential(w)`` alone when its first value is read.
    """
    sizes = itertools.chain(_WINDOWS, itertools.repeat(_WINDOWS[-1]))
    return itertools.chain.from_iterable(rng.standard_exponential(w).tolist() for w in sizes)
