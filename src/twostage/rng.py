"""Reproducible random-number streams.

Every stochastic routine in the package derives its randomness from a
master seed plus a tuple of integer keys (replica index, probe value,
block number, ...).  Two runs with the same seed therefore produce
identical results regardless of worker count or call order, and any
single replica can be replayed in isolation.

Draws that are consumed one at a time come in fills of _DRAW_BUF values,
read in the growing windows of _WINDOWS, which amortize numpy's
per-call cost without converting values that are never read:
``event_draws`` iterates the (uniform, exponential) pairs that the event
loops read, one per event, and ``exponentials`` yields the standard
exponentials of a stream for lazily drawn clocks.

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


_DRAW_BUF = 8192
# the windows that tile each fill, in reading order: the first is what
# most replicas read in all, and no window holds more than half a fill
_WINDOWS = (64, 64, 128, 256, 512, 1024, 2048, 4096)


def event_draws(rng: np.random.Generator) -> Iterator[tuple[float, float]]:
    """Endless (uniform, exponential) pairs of rng, one pair per event.

    The pairs are those of lockstep fills: _DRAW_BUF uniforms, then
    _DRAW_BUF exponentials, pair i of a fill taking value i of each.
    Most replicas use a handful of events, so each fill is read in the
    growing windows of _WINDOWS, and a window is drawn when its first
    pair is read.  A fill has two cursors: its uniforms start at the
    fill's start state, its exponentials after a jump over the fill's
    _DRAW_BUF uniforms, and the generator's state is saved and restored
    around each window so that each kind is drawn from its own cursor.
    The generator is left at the exponential cursor: after a fill read to
    its end that is where lockstep fills leave it, and after a loop that
    stops inside a fill it sits past the exponentials of the window that
    holds the last pair read.  Generators whose jump is not counted in
    64-bit outputs (MT19937, Philox, ...) take full fills.  Nothing is
    drawn before the first pair is read.

    The values are Python floats, converted from numpy's arrays a window
    at a time, so the loop does no numpy-scalar arithmetic; ``chain``
    keeps the step from one pair to the next in C.
    """
    return itertools.chain.from_iterable(_windows(rng))


def _windows(rng: np.random.Generator) -> Iterator[Iterator[tuple[float, float]]]:
    """The pairs of event_draws, one iterator per window."""
    bg = rng.bit_generator
    if not _jumps_by_output(bg):
        while True:
            u = rng.random(_DRAW_BUF).tolist()
            yield zip(u, rng.standard_exponential(_DRAW_BUF).tolist())
    first = _WINDOWS[0]
    while True:
        fill = bg.state
        u = rng.random(first).tolist()  # one 64-bit output per double
        bg.advance(_DRAW_BUF - first)
        yield zip(u, rng.standard_exponential(first).tolist())
        done = first
        for size in _WINDOWS[1:]:
            at_exponentials = bg.state
            bg.state = fill
            bg.advance(done)
            u = rng.random(size).tolist()
            bg.state = at_exponentials
            yield zip(u, rng.standard_exponential(size).tolist())
            done += size


def _jumps_by_output(bg: np.random.BitGenerator) -> bool:
    """Whether bg.advance(n) skips exactly n 64-bit outputs.

    True for PCG64; Philox's advance counts four-output blocks, and
    MT19937 has none.  Looked up at the call, not at import, because
    numpy loads numpy.random lazily.
    """
    return isinstance(bg, (np.random.PCG64, np.random.PCG64DXSM))


def exponentials(rng: np.random.Generator) -> Iterator[float]:
    """Standard exponentials of rng, as if drawn _DRAW_BUF at a time.

    The values are those that follow one fill of _DRAW_BUF uniforms,
    which are never read: the exponentials have always come after such a
    fill, and this keeps pinned-seed streams where they are.  On PCG64
    the fill is a jump (one 64-bit output per uniform double), on other
    generators a draw.  Most readers want a few values, so each fill of
    exponentials is read in the windows of _WINDOWS, a window drawn when
    its first value is requested; numpy draws an array's exponentials one
    after another from the stream, so the windows give the same values
    as full fills.  Nothing is drawn before the first value is requested.
    """
    if _jumps_by_output(rng.bit_generator):
        rng.bit_generator.advance(_DRAW_BUF)
    else:
        rng.random(_DRAW_BUF)
    while True:
        for size in _WINDOWS:
            yield from rng.standard_exponential(size).tolist()
