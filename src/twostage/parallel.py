"""Minimal worker-pool helper for replica batches.

Replica results are deterministic functions of (seed, replica index), so
chunked parallel execution returns the same numbers as a serial run; the
chunks are merged in submission order to keep reductions reproducible.

``pool_scope(workers)`` sets the worker count ``size()``, which is 1
outside any scope: there every map runs serially and nothing forks.  The
command line opens one scope around each command.  A scope forks its
pool, the only one made, at its first map of more than one chunk or at
``start()``.  Threads inside a scope share that pool, each map getting
its own chunks back in order; a caller that starts such threads calls
``start()`` first, so the fork happens while the process has one thread.
Leaving the scope, normally or by an exception, terminates and joins the
pool, so no worker outlives it.  A scope inside one of more than one
worker changes nothing.  The workers ignore SIGINT: a Ctrl-C reaches the
whole process group, and only the parent handles it.
"""
from __future__ import annotations

import multiprocessing
import signal
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

_size = 1  # the open scope's worker count
_pool = None  # its pool, once forked


@contextmanager
def pool_scope(workers: int) -> Iterator[None]:
    """Let the maps inside the block share a pool of ``workers`` processes, forked on first need."""
    global _size, _pool
    if _size > 1 or workers <= 1:
        yield
        return
    _size = workers
    try:
        yield
    finally:
        pool, _pool, _size = _pool, None, 1
        if pool is not None:
            pool.terminate()
            pool.join()


def size() -> int:
    """The worker count of the open scope; 1 outside any."""
    return _size


def start() -> None:
    """Fork the open scope's pool now, unless it has one worker or its pool already."""
    global _pool
    if _size > 1 and _pool is None:
        # the replicas draw from numpy.random: loaded before the fork, the
        # workers share it instead of each importing its own
        import numpy.random  # noqa: F401
        # workers ignore Ctrl-C: the scope's exit terminates them
        _pool = multiprocessing.Pool(_size, signal.signal, (signal.SIGINT, signal.SIG_IGN))


def chunked_map(fn: Callable, chunks: Sequence) -> list:
    """Apply fn to each chunk; several chunks run on the scope's pool, if any (fn then picklable)."""
    if _size <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    start()
    return _pool.map(fn, chunks)
