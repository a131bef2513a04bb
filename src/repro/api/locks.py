"""A readers-writer lock for the :class:`~repro.api.service.AuditService`.

The audit workload is read-heavy: many concurrent ``explain``/``report``
calls against delta-maintained state, punctuated by occasional writers
(``ingest``, ``mine``, template registration).  A plain mutex would
serialize the reads; this lock lets any number of readers share the
service while writers get exclusive access.

Policy: **writer-preferring**.  New readers block while a writer is
waiting, so a steady stream of ``explain`` calls cannot starve an
``ingest``.  The lock is not reentrant — the service never nests public
calls, and keeping it non-reentrant keeps the invariant auditable.
:meth:`RWLock.try_acquire_read` is the one acquisition that never waits:
the HTTP event loop uses it to answer a point read in place, and hands
the read to a pool thread when it fails.

**Sanitizer.**  With ``REPRO_SANITIZE=1`` every acquisition is checked
against a per-thread held-lock table and the discipline violations that
would otherwise manifest as hangs (or as silently-corrupted children
after ``fork``) raise :class:`LockSanitizerError` immediately instead:
reentrant read/write acquisition, read-after-write, read→write upgrade
attempts, and ``fork()`` while the forking thread holds any RWLock.
This is the dynamic twin of the static RL006 lint rule — CI runs the
full test suite once with the sanitizer on.  The env var is read at
acquisition time, so a test can flip it with ``monkeypatch.setenv``.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from collections.abc import Iterator


class LockSanitizerError(RuntimeError):
    """A lock-discipline violation caught by the REPRO_SANITIZE runtime."""


#: Per-thread sanitizer bookkeeping: ``id(lock) -> "read" | "write"``.
_held = threading.local()
_fork_guard_installed = False


def _sanitize_enabled() -> bool:
    return os.environ.get("REPRO_SANITIZE") == "1"


def _held_map() -> dict[int, str]:
    table: dict[int, str] | None = getattr(_held, "locks", None)
    if table is None:
        table = _held.locks = {}
    return table


def held_locks_in_thread() -> dict[int, str]:
    """``id(lock) -> mode`` for every RWLock the current thread holds.

    Populated only while ``REPRO_SANITIZE=1``; the leak-check test
    fixture asserts this is empty after every test.
    """
    return dict(_held_map())


#: fork-while-held violations, drained by :func:`consume_fork_violations`.
_fork_violations: list[str] = []


def _check_fork_while_held() -> None:
    if _sanitize_enabled() and _held_map():
        modes = "/".join(sorted(_held_map().values()))
        _fork_violations.append(
            f"fork() while this thread holds an RWLock ({modes}) — the "
            "child inherits the lock in an undefined state and can never "
            "release it"
        )


def consume_fork_violations() -> list[str]:
    """Drain the fork-while-held violations the at-fork guard recorded.

    CPython reports exceptions from ``os.register_at_fork`` callbacks as
    *unraisable* and forks anyway, so the guard cannot stop the fork —
    it records, and the test-suite fixture turns any record into a
    :class:`LockSanitizerError` at the end of the offending test.
    """
    out = list(_fork_violations)
    _fork_violations.clear()
    return out


def _install_fork_guard() -> None:
    global _fork_guard_installed
    if not _fork_guard_installed and hasattr(os, "register_at_fork"):
        _fork_guard_installed = True
        os.register_at_fork(before=_check_fork_while_held)


_VIOLATIONS = {
    ("read", "read"): "reentrant read acquisition",
    ("read", "write"): "read->write upgrade attempt",
    ("write", "read"): "read acquisition while holding the write lock",
    ("write", "write"): "reentrant write acquisition",
}


class RWLock:
    """Writer-preferring readers-writer lock (non-reentrant)."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0
        #: Lifetime acquisition counters (surfaced by AuditService.stats()).
        self.read_acquisitions = 0
        self.write_acquisitions = 0

    # ------------------------------------------------------------------
    def _sanitize_acquire(self, mode: str) -> None:
        """Raise (instead of deadlocking) on a discipline violation;
        record the hold *before* blocking so fork checks see it."""
        _install_fork_guard()
        held = _held_map().get(id(self))
        if held is not None:
            raise LockSanitizerError(
                f"{_VIOLATIONS[held, mode]} on {self!r} in thread "
                f"{threading.current_thread().name!r} — the RWLock is not "
                "reentrant; outside the sanitizer this self-deadlocks"
            )
        _held_map()[id(self)] = mode

    def acquire_read(self) -> None:
        """Block until no writer is active or waiting, then enter shared."""
        if _sanitize_enabled():
            self._sanitize_acquire("read")
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._active_readers += 1
            self.read_acquisitions += 1

    def try_acquire_read(self) -> bool:
        """Enter shared only if that needs no waiting: False, holding
        nothing, while a writer is active or waiting — or while another
        thread is inside the lock's own bookkeeping.  Never blocks, so an
        event loop may call it; pair a True with :meth:`release_read`."""
        sanitize = _sanitize_enabled()
        if sanitize:
            self._sanitize_acquire("read")
        acquired = False
        if self._cond.acquire(blocking=False):
            try:
                if not (self._writer_active or self._writers_waiting):
                    self._active_readers += 1
                    self.read_acquisitions += 1
                    acquired = True
            finally:
                self._cond.release()
        if sanitize and not acquired:
            _held_map().pop(id(self), None)
        return acquired

    def release_read(self) -> None:
        # unconditional discard: REPRO_SANITIZE may flip mid-hold
        _held_map().pop(id(self), None)
        with self._cond:
            self._active_readers -= 1
            if self._active_readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        """Block until the lock is free, then enter exclusive."""
        if _sanitize_enabled():
            self._sanitize_acquire("write")
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._active_readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
            self.write_acquisitions += 1

    def release_write(self) -> None:
        _held_map().pop(id(self), None)
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()

    # ------------------------------------------------------------------
    @contextmanager
    def read_locked(self) -> Iterator[None]:
        """``with lock.read_locked():`` — shared (reader) critical section."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        """``with lock.write_locked():`` — exclusive (writer) section."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    def stats(self) -> dict:
        """Lifetime acquisition counters."""
        return {
            "read_acquisitions": self.read_acquisitions,
            "write_acquisitions": self.write_acquisitions,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<RWLock readers={self._active_readers} "
            f"writer={self._writer_active} waiting={self._writers_waiting}>"
        )
