"""Minimal worker-pool helper for replica batches.

Replica results are deterministic functions of (seed, replica index), so
chunked parallel execution returns the same numbers as a serial run; the
chunks are merged in submission order to keep reductions reproducible.
"""
from __future__ import annotations

import multiprocessing
from typing import Callable, Sequence


def chunked_map(fn: Callable, chunks: Sequence, workers: int = 1) -> list:
    """Apply fn to each chunk, optionally across a process pool.

    fn must be a picklable top-level function when workers > 1.
    """
    if workers <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    with multiprocessing.Pool(min(workers, len(chunks))) as pool:
        return pool.map(fn, chunks)


def index_chunks(total: int, chunk_size: int) -> list[tuple[int, int]]:
    """Split range(total) into [lo, hi) index pairs."""
    return [(lo, min(lo + chunk_size, total)) for lo in range(0, total, chunk_size)]
