"""Minimal worker-pool helper for replica batches.

Replica results are deterministic functions of (seed, replica index), so
chunked parallel execution returns the same numbers as a serial run; the
chunks are merged in submission order to keep reductions reproducible.

``pool_scope(workers)`` is the one place a pool is made, and each
mapping command forks at most one.  The outermost scope with workers > 1
forks its pool at once, from the calling thread, and every multi-chunk
map inside it shares that pool; a nested scope, or a one-worker scope,
forks nothing.  A map called outside any such scope opens one of its own,
so its pool lives for that one map; a caller that maps many batches (a
bisection, a sweep) opens one scope around all of them.  Threads started
inside a scope share its pool: their maps run concurrently on it, each
getting its own chunks back in order.  Forking before those threads
start keeps the fork in one thread and the pool creation free of races.
Leaving the outermost scope, normally or by an exception, terminates and
joins the pool, so no worker outlives it.  The workers ignore SIGINT: a
Ctrl-C reaches the whole process group, and only the parent handles it.
"""
from __future__ import annotations

import multiprocessing
import signal
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

_pool = None  # the outermost scope's pool


@contextmanager
def pool_scope(workers: int) -> Iterator[None]:
    """Share one pool of ``workers`` processes among the maps inside the block.

    Inside an enclosing pool's scope, or with one worker, this forks
    nothing and the maps use the enclosing pool, if any.
    """
    global _pool
    if _pool is not None or workers <= 1:
        yield
        return
    # the replicas draw from numpy.random: loaded before the fork, the
    # workers share it instead of each importing its own
    import numpy.random  # noqa: F401
    # workers ignore Ctrl-C: the scope's exit terminates them
    _pool = multiprocessing.Pool(workers, signal.signal, (signal.SIGINT, signal.SIG_IGN))
    try:
        yield
    finally:
        pool, _pool = _pool, None
        pool.terminate()
        pool.join()


def chunked_map(fn: Callable, chunks: Sequence, workers: int = 1) -> list:
    """Apply fn to each chunk, optionally across a process pool.

    fn must be a picklable top-level function when workers > 1.
    """
    if workers <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    with pool_scope(workers):
        return _pool.map(fn, chunks)
