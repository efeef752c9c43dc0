"""Reproducible random-number streams.

Every stochastic routine in the package derives its randomness from a
master seed plus a tuple of integer keys (replica index, probe value,
block number, ...).  Two runs with the same seed therefore produce
identical results regardless of worker count or call order, and any
single replica can be replayed in isolation.

Draws that are consumed one at a time come in fills of _DRAW_BUF values,
which amortize numpy's per-call cost: ``EventDraws`` pairs uniform and
exponential fills for the event loops, and ``exponentials`` yields the
standard exponentials of a stream for lazily drawn clocks.
"""
from __future__ import annotations

import struct
from typing import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1


def substream(seed: int, *keys: int) -> np.random.Generator:
    """Deterministic generator for (seed, keys).

    Distinct key tuples give statistically independent streams.
    """
    entropy = [int(seed) & _MASK64] + [int(k) & _MASK64 for k in keys]
    return np.random.default_rng(np.random.SeedSequence(entropy))


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
_PEEK = 64


class EventDraws:
    """Paired uniform and exponential buffers for one event loop.

    A fill draws _DRAW_BUF uniforms, then _DRAW_BUF exponentials.  Most
    replicas use a handful of events, so the first fill is peeked: its
    first _PEEK uniforms, a jump over the rest of the uniforms, and its
    first _PEEK exponentials.  A loop that outgrows the peek calls
    ``refill``, which replays the full first fill from the saved state and
    resumes at index _PEEK.  Every draw a loop consumes is therefore a
    fixed function of the stream, equal to lockstep full fills; only the
    generator's state after a replica that stayed inside the peek differs
    (it sits past the peeked exponentials).  Generators whose jump is not
    counted in 64-bit outputs (MT19937, Philox, ...) peek the full fill.

    The loop reads ``u`` and ``e`` into locals and calls ``refill`` when
    its index reaches ``len(u)``.
    """

    __slots__ = ("_rng", "_replay", "u", "e")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        bg = rng.bit_generator
        # PCG64's advance(n) skips exactly n 64-bit outputs; Philox's counts
        # four-output blocks.  Looked up here, not at import, because
        # numpy loads numpy.random lazily.
        jumps = isinstance(bg, (np.random.PCG64, np.random.PCG64DXSM))
        peek = _PEEK if jumps else _DRAW_BUF
        self._replay = bg.state if peek < _DRAW_BUF else None
        self.u = rng.random(peek)  # one 64-bit output per double
        if peek < _DRAW_BUF:
            bg.advance(_DRAW_BUF - peek)
        self.e = rng.standard_exponential(peek)

    def refill(self) -> int:
        """Load the next full fill; return the index the loop resumes at."""
        rng = self._rng
        resume = 0
        if self._replay is not None:
            rng.bit_generator.state = self._replay
            self._replay = None
            resume = len(self.u)
        self.u = rng.random(_DRAW_BUF)
        self.e = rng.standard_exponential(_DRAW_BUF)
        return resume


def exponentials(rng: np.random.Generator) -> Iterator[float]:
    """Standard exponentials of rng, drawn _DRAW_BUF at a time.

    Nothing is drawn before the first value is requested.
    """
    # drawn and never read: the exponentials have always followed one fill
    # of uniforms, and this keeps pinned-seed streams where they are
    rng.random(_DRAW_BUF)
    while True:
        yield from rng.standard_exponential(_DRAW_BUF).tolist()
