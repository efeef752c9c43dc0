"""Minimal worker-pool helper for replica batches.

Replica results are deterministic functions of (seed, replica index), so
chunked parallel execution returns the same numbers as a serial run; the
chunks are merged in submission order to keep reductions reproducible.

Every multi-chunk map runs inside a ``pool_scope()`` and shares that
scope's one pool.  A map called outside any scope opens a scope of its
own, so its pool lives for that one map; a caller that maps many
batches (a bisection) opens one scope around all of them and forks one
pool.  The first map that needs the pool creates it with its worker
count, unless the scope was opened with a worker count, which forks the
pool at once from the opening thread.  Threads started inside such a
scope share the pool: their maps run concurrently on it, each getting
its own chunks back in order.  Forking before those threads start keeps
the fork in one thread and the pool creation free of races.  Leaving
the outermost scope, normally or by an exception, terminates and joins
the pool, so no worker outlives it.  The workers ignore SIGINT: a Ctrl-C
reaches the whole process group, and only the parent handles it.
"""
from __future__ import annotations

import multiprocessing
import signal
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

_scoped = False  # inside pool_scope()
_pool = None  # the scope's pool, once created


@contextmanager
def pool_scope(workers: int = 1) -> Iterator[None]:
    """Share one pool among the maps inside the block.

    With workers > 1 the outermost scope forks a pool of that many
    workers on entry, from the calling thread; otherwise the first map
    that needs a pool creates it.  A nested scope joins the enclosing one.
    """
    global _scoped, _pool
    if _scoped:
        yield
        return
    _scoped = True
    try:
        if workers > 1:
            _pool = _new_pool(workers)
        yield
    finally:
        pool, _pool, _scoped = _pool, None, False
        if pool is not None:
            pool.terminate()
            pool.join()


def chunked_map(fn: Callable, chunks: Sequence, workers: int = 1) -> list:
    """Apply fn to each chunk, optionally across a process pool.

    fn must be a picklable top-level function when workers > 1.
    """
    global _pool
    if workers <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    with pool_scope():
        if _pool is None:
            _pool = _new_pool(workers)
        return _pool.map(fn, chunks)


def _new_pool(workers: int):
    """A pool whose workers ignore Ctrl-C: the scope's exit terminates them."""
    return multiprocessing.Pool(workers, signal.signal, (signal.SIGINT, signal.SIG_IGN))


def index_chunks(total: int, chunk_size: int, start: int = 0) -> list[tuple[int, int]]:
    """Split range(start, start + total) into [lo, hi) index pairs."""
    end = start + total
    return [(lo, min(lo + chunk_size, end)) for lo in range(start, end, chunk_size)]
