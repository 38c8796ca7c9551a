"""A wall-clock limit for a block of test code."""
import contextlib
import signal


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the test if the block runs longer than `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
