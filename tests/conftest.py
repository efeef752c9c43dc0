import signal
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
