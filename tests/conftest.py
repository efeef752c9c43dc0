import signal
import threading
from contextlib import contextmanager

import pytest


@contextmanager
def _time_limit(seconds):
    """Fail a block that runs longer than seconds, so it cannot stall the suite."""

    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    except TimeoutError:
        # the interrupted frames are not reported: some cannot be formatted
        pytest.fail(f"still running after {seconds} s", pytrace=False)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def time_limit():
    """``with time_limit(seconds):`` fails the block once it has run that long."""
    return _time_limit


@pytest.fixture
def pools(monkeypatch):
    """The worker pools forked during the test, in order.

    Each fork must happen while the process runs only the threads it ran
    when the test began.
    """
    from twostage import parallel

    forked = []
    real_pool = parallel.multiprocessing.Pool
    threads = threading.active_count()

    def counted_pool(*args, **kwargs):
        assert threading.active_count() == threads, "a pool forked while other threads ran"
        forked.append(real_pool(*args, **kwargs))
        return forked[-1]

    monkeypatch.setattr(parallel.multiprocessing, "Pool", counted_pool)
    return forked
