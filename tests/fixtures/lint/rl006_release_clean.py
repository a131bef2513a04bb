"""Clean: a lock's own ``read_locked()`` leaves through ``release_read()``,
which updates the reader count under the lock's condition variable.
That is the lock's bookkeeping, not a reader-path write."""

import threading
from contextlib import contextmanager


class CountingLock:
    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0

    def acquire_read(self):
        with self._cond:
            self._readers += 1

    def release_read(self):
        with self._cond:
            self._readers -= 1
            self._cond.notify_all()

    @contextmanager
    def read_locked(self):
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()
