"""``RWLock.try_acquire_read``: the one acquisition that never waits.

It must succeed exactly when a waiting ``acquire_read`` would enter at
once (no writer active or waiting), count as an ordinary read hold, and
return False — holding nothing — instead of blocking in every other
case, including while another thread is inside the lock's bookkeeping.
"""

import threading
import time

import pytest

from repro.api.locks import LockSanitizerError, RWLock, held_locks_in_thread

TIMEOUT = 10


def _wait_until(predicate):
    deadline = time.monotonic() + TIMEOUT
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.001)


class _Holder:
    """A thread holding ``lock`` in ``mode`` until :meth:`release`."""

    def __init__(self, lock, mode):
        self.lock, self.mode = lock, mode
        self.held = threading.Event()
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        getattr(self.lock, f"acquire_{self.mode}")()
        self.held.set()
        self.done.wait(TIMEOUT)
        getattr(self.lock, f"release_{self.mode}")()

    def release(self):
        self.done.set()
        self.thread.join(TIMEOUT)
        assert not self.thread.is_alive()


def test_free_lock_is_taken_and_counted():
    lock = RWLock()
    assert lock.try_acquire_read()
    assert lock.stats()["read_acquisitions"] == 1
    lock.release_read()
    # released: a writer gets in without waiting
    with lock.write_locked():
        pass


def test_shares_with_a_reader_of_another_thread():
    lock = RWLock()
    reader = _Holder(lock, "read")
    assert reader.held.wait(TIMEOUT)
    assert lock.try_acquire_read()
    lock.release_read()
    reader.release()


def test_refused_while_a_writer_is_active():
    lock = RWLock()
    writer = _Holder(lock, "write")
    assert writer.held.wait(TIMEOUT)
    assert not lock.try_acquire_read()
    assert lock.stats()["read_acquisitions"] == 0
    writer.release()
    assert lock.try_acquire_read()
    lock.release_read()


def test_refused_while_a_writer_is_waiting():
    """Writer preference holds for the try too: a reader already inside
    does not let a new one past a queued writer."""
    lock = RWLock()
    reader = _Holder(lock, "read")
    assert reader.held.wait(TIMEOUT)
    writer = _Holder(lock, "write")
    _wait_until(lambda: lock._writers_waiting == 1)
    assert not lock.try_acquire_read()
    reader.release()
    assert writer.held.wait(TIMEOUT)
    writer.release()
    assert lock.try_acquire_read()
    lock.release_read()


def test_a_held_reader_keeps_writers_out_until_release():
    lock = RWLock()
    assert lock.try_acquire_read()
    writer = _Holder(lock, "write")
    _wait_until(lambda: lock._writers_waiting == 1)
    assert not writer.held.is_set()
    lock.release_read()
    assert writer.held.wait(TIMEOUT)
    writer.release()


def test_never_blocks_on_the_internal_mutex():
    lock = RWLock()
    inside, leave = threading.Event(), threading.Event()

    def busy():
        with lock._cond:
            inside.set()
            leave.wait(TIMEOUT)

    thread = threading.Thread(target=busy, daemon=True)
    thread.start()
    assert inside.wait(TIMEOUT)
    started = time.perf_counter()
    try:
        assert not lock.try_acquire_read()
        assert time.perf_counter() - started < 1.0
    finally:
        leave.set()
        thread.join(TIMEOUT)
    assert not thread.is_alive()
    assert lock.try_acquire_read()
    lock.release_read()


class TestSanitizer:
    @pytest.fixture(autouse=True)
    def sanitize(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")

    def test_records_the_hold_and_release_clears_it(self):
        lock = RWLock()
        assert lock.try_acquire_read()
        assert held_locks_in_thread() == {id(lock): "read"}
        lock.release_read()
        assert held_locks_in_thread() == {}

    def test_reentrant_try_raises(self):
        lock = RWLock()
        with lock.read_locked():
            with pytest.raises(LockSanitizerError, match="reentrant read"):
                lock.try_acquire_read()

    def test_try_under_the_write_lock_raises(self):
        lock = RWLock()
        with lock.write_locked():
            with pytest.raises(LockSanitizerError, match="holding the write"):
                lock.try_acquire_read()

    def test_a_refused_try_records_nothing(self):
        lock = RWLock()
        writer = _Holder(lock, "write")
        assert writer.held.wait(TIMEOUT)
        assert not lock.try_acquire_read()
        assert held_locks_in_thread() == {}
        writer.release()
